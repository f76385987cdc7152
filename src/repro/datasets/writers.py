"""Descriptor-driven dataset materialisation.

:func:`write_dataset` renders a synthetic dataset onto disk for *any*
layout descriptor: it walks the compiled strips of every physical file and
fills each attribute with values from a single deterministic value
function.  Because the byte placement comes from the same strip geometry
the planner reads with, one value function materialises every layout of
the paper's Figure 9 experiment identically — the layout-equivalence tests
rely on this.

The value function receives the attribute name, the file's binding
environment (e.g. ``{"REL": 2, "DIRID": 0}``), and a sparse meshgrid of
loop-variable values; it returns an array broadcastable to the strip's
full dimension shape.  Attributes must therefore be pure functions of
``(binding vars, loop vars)`` — which is exactly the condition for two
layouts to encode the same virtual table.
"""

from __future__ import annotations

import os
from typing import Callable, Dict

import numpy as np

from ..core.extractor import Mount
from ..core.planner import CompiledDataset
from ..core.strips import PhysicalFile, Strip

#: value_fn(attr_name, env, coords) -> array broadcastable to the dim shape.
ValueFn = Callable[[str, Dict[str, int], Dict[str, np.ndarray]], np.ndarray]


def strip_coords(strip: Strip) -> Dict[str, np.ndarray]:
    """Sparse meshgrid (numpy broadcasting shapes) of a strip's loop values."""
    ndim = len(strip.dims)
    coords: Dict[str, np.ndarray] = {}
    for axis, dim in enumerate(strip.dims):
        shape = [1] * ndim
        shape[axis] = dim.count
        coords[dim.var] = np.asarray(dim.values(), dtype=np.int64).reshape(shape)
    return coords


def render_file(file: PhysicalFile, value_fn: ValueFn) -> bytearray:
    """Render one physical file's bytes in memory."""
    buf = bytearray(file.expected_size)
    for strip in file.strips:
        shape = tuple(dim.count for dim in strip.dims)
        strides = tuple(dim.byte_stride for dim in strip.dims)
        coords = strip_coords(strip)
        for attr, offset, fmt in zip(
            strip.attrs, strip.attr_offsets, strip.attr_formats
        ):
            dtype = np.dtype(fmt)
            view = np.ndarray(
                shape=shape,
                dtype=dtype,
                buffer=buf,
                offset=strip.base_offset + offset,
                strides=strides,
            )
            values = value_fn(attr, file.env, coords)
            view[...] = np.broadcast_to(np.asarray(values, dtype=dtype), shape)
    return buf


def write_dataset(
    dataset: CompiledDataset,
    mount: Mount,
    value_fn: ValueFn,
    only_missing: bool = False,
) -> int:
    """Materialise every physical file of the dataset; returns total bytes.

    ``only_missing`` skips files that already exist with the expected size
    (cheap idempotent re-runs for benchmarks).
    """
    total = 0
    for file in dataset.files:
        path = mount(file.node, file.relpath)
        if (
            only_missing
            and os.path.exists(path)
            and os.path.getsize(path) == file.expected_size
        ):
            total += file.expected_size
            continue
        os.makedirs(os.path.dirname(path), exist_ok=True)
        buf = render_file(file, value_fn)
        with open(path, "wb") as handle:
            handle.write(buf)
        total += len(buf)
    return total


def hash01(values: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniform [0, 1) floats from integer coordinates.

    A vectorised splitmix64-style mixer: good enough dispersion for
    synthetic workloads, fully reproducible across platforms, and pure —
    the same (value, salt) always maps to the same float, which is what
    lets different layouts materialise identical tables.
    """
    x = np.asarray(values, dtype=np.uint64)
    salt64 = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15) * (salt64 + np.uint64(1))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)
