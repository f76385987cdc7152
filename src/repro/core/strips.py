"""Linearisation of dataspaces into *strips* and physical file enumeration.

A **strip** is an innermost attribute group of a leaf dataspace together
with its concrete, per-file loop geometry: for every enclosing loop, the
value range and the *byte stride* between consecutive iterations.  Strips
are the unit the alignment analysis (:mod:`repro.core.analysis`) reasons
about: record layouts ("tuples") put several attributes in one strip, while
"each variable stored as an array" layouts put several strips in one file.

The byte address of the record at loop ordinals ``(i_1, ..., i_k)``
(outermost first, 0-based) is::

    base_offset + sum(i_j * byte_stride_j)

which the code generator inlines as constant arithmetic.

A **physical file** is one concrete file enumerated from a leaf's DATA
clause: a binding environment, the resolved directory/path, the implicit
attribute values that environment induces, and the strips instantiated
under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MetadataValidationError
from ..metadata.descriptor import Descriptor
from ..metadata.layout import AttrGroup, DatasetNode, LoopNode, SpaceItem
from ..sql.ranges import Interval


@dataclass(frozen=True)
class LoopDim:
    """One concrete loop dimension of a strip (outermost first)."""

    var: str
    start: int
    stop: int  # inclusive
    step: int
    byte_stride: int

    @property
    def count(self) -> int:
        return (self.stop - self.start) // self.step + 1

    def values(self) -> range:
        return range(self.start, self.stop + 1, self.step)

    def ordinal(self, value: int) -> int:
        return (value - self.start) // self.step

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.stop)

    def geometry(self) -> Tuple[str, int, int, int]:
        """Identity for alignment: same var iterated identically."""
        return (self.var, self.start, self.stop, self.step)

    def __str__(self) -> str:
        return f"{self.var}[{self.start}:{self.stop}:{self.step}]@{self.byte_stride}B"


@dataclass(frozen=True)
class Strip:
    """A concrete attribute strip within one physical file."""

    leaf_name: str
    strip_index: int
    attrs: Tuple[str, ...]
    attr_offsets: Tuple[int, ...]
    attr_formats: Tuple[str, ...]  # numpy dtype strings, e.g. '<f4'
    record_size: int
    base_offset: int
    dims: Tuple[LoopDim, ...]

    @property
    def num_records(self) -> int:
        n = 1
        for dim in self.dims:
            n *= dim.count
        return n

    @property
    def total_bytes(self) -> int:
        return self.num_records * self.record_size

    def record_dtype(self, needed: Optional[Sequence[str]] = None) -> np.dtype:
        """Structured dtype decoding one record, optionally projecting.

        The dtype's itemsize always equals ``record_size`` (unselected
        attributes become padding) so a chunk buffer can be viewed
        without copying.
        """
        if needed is None:
            names = list(self.attrs)
        else:
            wanted = set(needed)
            names = [a for a in self.attrs if a in wanted]
        offsets = [self.attr_offsets[self.attrs.index(n)] for n in names]
        formats = [self.attr_formats[self.attrs.index(n)] for n in names]
        return np.dtype(
            {"names": names, "formats": formats, "offsets": offsets,
             "itemsize": self.record_size}
        )

    def dense_suffix_length(self) -> int:
        """Longest suffix of ``dims`` forming one contiguous record run.

        Contiguity requirement (innermost outward): the innermost dim's
        stride equals the record size, and each next dim's stride equals
        the inner dim's stride times its count.
        """
        expected = self.record_size
        length = 0
        for dim in reversed(self.dims):
            if dim.byte_stride != expected:
                break
            length += 1
            expected *= dim.count
        return length

    def offset_of(self, ordinals: Dict[str, int]) -> int:
        """Byte offset of the record at the given per-var ordinals.

        Vars absent from ``ordinals`` are taken at ordinal zero.
        """
        offset = self.base_offset
        for dim in self.dims:
            offset += ordinals.get(dim.var, 0) * dim.byte_stride
        return offset

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dims)
        return (
            f"Strip({self.leaf_name}#{self.strip_index} {'/'.join(self.attrs)} "
            f"base={self.base_offset} rec={self.record_size}B dims=[{dims}])"
        )


@dataclass
class PhysicalFile:
    """One enumerated data file of a leaf dataset."""

    leaf_name: str
    env: Dict[str, int]
    dir_index: int
    node: str
    relpath: str
    strips: Tuple[Strip, ...] = ()
    expected_size: int = 0
    _geometry: Optional[Dict[str, Tuple[int, int, int]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def implicit_values(self) -> Dict[str, int]:
        """Binding variables: exact per-file constants."""
        return self.env

    def implicit_intervals(self) -> Dict[str, Interval]:
        """All implicit attributes as intervals (constants are points,
        loop variables are their min..max hulls)."""
        out: Dict[str, Interval] = {
            name: Interval(value, value) for name, value in self.env.items()
        }
        for strip in self.strips:
            for dim in strip.dims:
                iv = dim.interval
                if dim.var in out:
                    out[dim.var] = out[dim.var].hull(iv)
                else:
                    out[dim.var] = iv
        return out

    def loop_geometry(self) -> Dict[str, Tuple[int, int, int]]:
        """var -> (start, stop, step); identical across strips by checking.

        Cached after the first call — group construction consults this
        repeatedly during the consistency join.
        """
        if self._geometry is not None:
            return self._geometry
        out: Dict[str, Tuple[int, int, int]] = {}
        for strip in self.strips:
            for dim in strip.dims:
                geo = (dim.start, dim.stop, dim.step)
                if dim.var in out and out[dim.var] != geo:
                    raise MetadataValidationError(
                        f"file {self.relpath!r}: loop {dim.var!r} has two "
                        f"different geometries {out[dim.var]} vs {geo}; "
                        "a variable must iterate identically everywhere "
                        "within one file"
                    )
                out[dim.var] = geo
        self._geometry = out
        return out

    def __str__(self) -> str:
        return f"{self.node}:DIR[{self.dir_index}]/{self.relpath}"


# ---------------------------------------------------------------------------
# Building strips from a dataspace
# ---------------------------------------------------------------------------


def attr_layouts(schema) -> Tuple[Dict[str, int], Dict[str, str]]:
    """(byte size, dtype format) maps of a schema's attributes: what
    :func:`build_strips` reads of the schema, built once per descriptor
    by :func:`enumerate_files`."""
    return (
        {a.name: a.size for a in schema},
        {a.name: a.dtype.str for a in schema},
    )


def build_strips(
    leaf: DatasetNode,
    schema,
    env: Dict[str, int],
    layouts: Optional[Tuple[Dict[str, int], Dict[str, str]]] = None,
) -> Tuple[Tuple[Strip, ...], int]:
    """Instantiate the strips of ``leaf`` under a binding environment.

    ``layouts`` is :func:`attr_layouts` of ``schema``, when the caller
    has it.  Returns (strips, total file size in bytes).
    """
    attr_size, attr_format = layouts or attr_layouts(schema)

    def item_size(item: SpaceItem) -> int:
        if isinstance(item, AttrGroup):
            return sum(attr_size[name] for name in item.names)
        assert isinstance(item, LoopNode)
        body = sum(item_size(child) for child in item.body)
        return body * item.range.count(env)

    strips: List[Strip] = []
    counter = [0]

    def walk(
        items: Sequence[SpaceItem],
        offset: int,
        loops: List[Tuple[str, range, int]],
    ) -> int:
        for item in items:
            if isinstance(item, AttrGroup):
                record_size = sum(attr_size[name] for name in item.names)
                offsets, acc = [], 0
                for name in item.names:
                    offsets.append(acc)
                    acc += attr_size[name]
                dims = tuple(
                    LoopDim(var, rng.start, rng[-1], rng.step, stride)
                    for var, rng, stride in loops
                )
                strips.append(
                    Strip(
                        leaf_name=leaf.name,
                        strip_index=counter[0],
                        attrs=item.names,
                        attr_offsets=tuple(offsets),
                        attr_formats=tuple(attr_format[n] for n in item.names),
                        record_size=record_size,
                        base_offset=offset,
                        dims=dims,
                    )
                )
                counter[0] += 1
                offset += record_size
            else:
                assert isinstance(item, LoopNode)
                values = item.range.evaluate(env)
                body_size = sum(item_size(child) for child in item.body)
                walk(item.body, offset, loops + [(item.var, values, body_size)])
                offset += body_size * len(values)
        return offset

    total = walk(leaf.dataspace, 0, [])
    return tuple(strips), total


def enumerate_files(descriptor: Descriptor) -> List[PhysicalFile]:
    """Enumerate every physical file of the dataset with its strips.

    This is the descriptor-load-time ("compile time") half of the paper's
    two-phase design: all per-file geometry is computed here, once, so that
    query-time planning only evaluates integer comparisons.
    """
    files: List[PhysicalFile] = []
    layouts = attr_layouts(descriptor.schema)
    for leaf in descriptor.leaves():
        for env in leaf.data.binding_env_iter():
            for pattern in leaf.data.patterns:
                dir_index, relpath = pattern.expand(env)
                entry = descriptor.storage.dir(dir_index)
                strips, size = build_strips(
                    leaf, descriptor.schema, env, layouts
                )
                files.append(
                    PhysicalFile(
                        leaf_name=leaf.name,
                        env=dict(env),
                        dir_index=dir_index,
                        node=entry.node,
                        relpath=(
                            f"{entry.path}/{relpath}" if entry.path else relpath
                        ),
                        strips=strips,
                        expected_size=size,
                    )
                )
    return files


def row_variable_order(descriptor: Descriptor) -> List[str]:
    """Canonical global ordering of loop variables across all leaves.

    Used to enumerate chunk (outer) variables deterministically so every
    implementation — interpreted, generated, hand-written — produces rows
    in the same order.
    """
    order: List[str] = []

    def walk(items: Sequence[SpaceItem]) -> None:
        for item in items:
            if isinstance(item, LoopNode):
                if item.var not in order:
                    order.append(item.var)
                walk(item.body)

    for leaf in descriptor.leaves():
        walk(leaf.dataspace)
    return order
