"""Shared fixtures: small on-disk datasets and comparison helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CompiledDataset, ExecOptions, GeneratedDataset, IOStats, Virtualizer,
    local_mount,
)
from repro.core.extractor import combine_parts
from repro.core.kernels import KernelCache, assemble_table
from repro.core.table import cut_blocks
from repro.datasets import IparsConfig, TitanConfig, ipars, titan
from repro.index import build_summaries
from repro.sql.functions import DEFAULT_REGISTRY

# ---------------------------------------------------------------------------
# The paper's running example (Figure 4), scaled down
# ---------------------------------------------------------------------------

from repro.datasets.paper_example import (
    PAPER_CELLS,
    PAPER_DESCRIPTOR,
    PAPER_DIRS,
    PAPER_RELS,
    PAPER_TIMES,
    paper_rows,
    paper_value_fn,
)

@pytest.fixture(scope="session")
def paper_dataset(tmp_path_factory):
    """(descriptor text, mount) with the Figure 4 dataset materialised."""
    from repro.datasets.writers import write_dataset

    root = tmp_path_factory.mktemp("paper")
    mount = local_mount(str(root))
    dataset = CompiledDataset(PAPER_DESCRIPTOR)
    write_dataset(dataset, mount, paper_value_fn)
    return PAPER_DESCRIPTOR, mount


# ---------------------------------------------------------------------------
# Small IPARS / Titan datasets
# ---------------------------------------------------------------------------

SMALL_IPARS = IparsConfig(num_rels=2, num_times=12, cells_per_node=40, num_nodes=2)
SMALL_TITAN = TitanConfig(
    chunks_x=4, chunks_y=4, chunks_z=2, chunks_t=2,
    elems_per_chunk=100, num_nodes=2,
)


@pytest.fixture(scope="session")
def ipars_l0(tmp_path_factory):
    root = tmp_path_factory.mktemp("ipars_l0")
    mount = local_mount(str(root))
    text, _ = ipars.generate(SMALL_IPARS, "L0", mount)
    return SMALL_IPARS, text, mount


@pytest.fixture(scope="session")
def titan_small(tmp_path_factory):
    root = tmp_path_factory.mktemp("titan")
    mount = local_mount(str(root))
    text, _ = titan.generate(SMALL_TITAN, mount)
    dataset = CompiledDataset(text)
    summaries = build_summaries(dataset, mount)
    return SMALL_TITAN, text, mount, summaries


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_tables_equal(a, b, approx=False):
    """Compare two VirtualTables as canonical (sorted) row multisets."""
    assert a.column_names == b.column_names, (a.column_names, b.column_names)
    assert a.num_rows == b.num_rows, (a.num_rows, b.num_rows)
    ca, cb = a.canonical(), b.canonical()
    for name in a.column_names:
        va, vb = ca[name], cb[name]
        if approx:
            np.testing.assert_allclose(
                va.astype(np.float64), vb.astype(np.float64), rtol=1e-6
            )
        else:
            np.testing.assert_array_equal(va, vb)


def run_plan(extractor, plan, stats=None, batch_rows=None, **options):
    """``plan`` through the node driver every front door runs:
    ``combine_parts`` of ``Extractor.execute_parts``, filtered by a
    fresh kernel cache of the default functions — or, given
    ``batch_rows``, the list of batches ``Virtualizer.query_iter`` cuts
    of the same parts.  ``options`` are ``ExecOptions`` fields; chunks
    are read one at a time and the interpreted oracle filters unless
    they say otherwise."""
    opts = ExecOptions(
        **{"coalesce_gap_bytes": 0, "vectorize": "off", **options}
    )
    stats = stats if stats is not None else IOStats()
    evaluator = KernelCache(DEFAULT_REGISTRY).evaluator(
        plan.where, opts.vectorize == "on", decided=plan.decided
    )
    parts = extractor.execute_parts(
        plan, plan.afcs, evaluator, stats, options=opts
    )
    if batch_rows is None:
        return combine_parts(plan, parts, stats)
    return [
        assemble_table(plan.output, plan.dtypes, piece)
        for piece in cut_blocks(plan.output, parts, batch_rows)
    ]


def cached_buffers(extractor):
    """Every buffer an extractor's segment cache holds: each payload
    cached as read, and the columns of each decoded entry's group."""
    buffers = []
    for entry in extractor._segments._segments.values():
        if isinstance(entry, bytes):
            buffers.append(np.frombuffer(entry, dtype=np.uint8))
        else:
            buffers.extend(entry.group.columns.values())
    return buffers
