"""A run of table rows decodes exactly like its rows, one at a time.

``AfcReader.columns`` decodes a run of adjacent rows of one group table
(one AFC each) as one table; ``Extractor.execute_blocks`` sizes its runs
to fill a kernel block under ``fuse=True`` and steps one row at a time
under ``fuse=False``.  A seeded generator draws plans over Titan records
(with and without ``chunk_row_cap``; ``ELEM`` declared a too-narrow
``char`` — lint RV124 — so an inner variable wraps), IPARS L0 and I-VI
(multi-member groups, single-field records), MRI (two inner variables),
a cross-node group (``remote_bytes_read``) and an IPARS layout whose
chunk-loop constant ``TIME`` wraps in a ``char``.  Block sizes are drawn
small enough that runs close mid-part and end at part boundaries, where
the pipeline concatenates.  Both ways through ``assemble_table`` must
give the same table bit for bit, every ``IOStats`` field and the meter's
totals equal.

Then the ownership rule: a run's columns are contiguous — writable
when decoded from chunks read one by one, as here (read-only slices of
the segment cache's decoded columns otherwise: test_decoded_segments)
— a lone row's stored columns are still read-only views of the chunk
read, and a scan whose WHERE the index decided never fuses, so it gains
no copy.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core import CompiledDataset, GeneratedDataset, local_mount
from repro.core import extractor as extractor_module
from repro.core.afc import group_by_home_node
from repro.core.extractor import Extractor
from repro.core.kernels import INDEX_DECIDED, KernelCache, assemble_table
from repro.core.stats import IOStats
from repro.datasets import IparsConfig, TitanConfig, ipars, mri, titan
from repro.datasets.mri import MriConfig
from repro.datasets.writers import write_dataset
from repro.sched import RunState
from repro.sql.functions import DEFAULT_REGISTRY
from tests.test_cross_node_groups import SPLIT_TEXT


@dataclasses.dataclass
class Spec:
    name: str
    table: str
    text: str
    mount: object
    implicit: tuple  # implicit attributes a query may select
    stored: dict  # stored attribute -> (lo, hi) of its values
    caps: tuple = (None,)


IPARS = IparsConfig(num_rels=2, num_times=6, cells_per_node=8, num_nodes=2)
#: One node, 200 two-row AFCs: TIME runs past 127, so a ``char`` wraps.
IPARS_NARROW = IparsConfig(num_rels=1, num_times=200, cells_per_node=2, num_nodes=1)
#: 160 elements per chunk: ELEM runs past 127, so a ``char`` ELEM wraps.
TITAN = TitanConfig(
    chunks_x=2, chunks_y=2, chunks_z=1, chunks_t=2,
    elems_per_chunk=160, num_nodes=2,
)
MRI = MriConfig(num_studies=4, slices=4, rows=6, cols=6, num_nodes=2)
IPARS_STORED = {"SOIL": (0.0, 1.0), "X": (0.0, 4.0), "SGAS": (0.0, 1.0)}


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    def mount(name):
        return local_mount(str(tmp_path_factory.mktemp(f"run_{name}")))

    out = []
    for layout in ipars.ALL_LAYOUTS:
        m = mount(f"ipars_{layout}")
        text, _ = ipars.generate(IPARS, layout, m)
        out.append(Spec(
            f"ipars-{layout}", "IparsData", text, m, ("REL", "TIME"),
            IPARS_STORED, (None, 3),
        ))
    m = mount("ipars_narrow")
    text, _ = ipars.generate(IPARS_NARROW, "L0", m)
    out.append(Spec(
        "ipars-narrow-time", "IparsData",
        text.replace("TIME = int\n", "TIME = char\n"), m, ("REL", "TIME"),
        IPARS_STORED,
    ))
    m = mount("titan")
    text, _ = titan.generate(TITAN, m)
    text = text.replace(
        "[TITAN]\n", "[TITAN]\nCHUNK = short int\nELEM = char\n"
    )
    out.append(Spec(
        "titan", "TitanData", text, m, ("CHUNK", "ELEM"),
        {"X": (0.0, 40000.0), "S1": (0.0, 1.0), "S2": (0.0, 1.0)},
        (None, 32, 100),
    ))
    m = mount("mri")
    text, _ = mri.generate(MRI, m)
    # T1/FLAIR are unsigned: a cut at lo - 1 = -1 would bind to a
    # constant and never reach the kernel, so lo is 1.
    out.append(Spec(
        "mri", "MriArchive", text, m, ("STUDY", "SLICE", "ROW", "COL"),
        {"T1": (1, 3000), "FLAIR": (1, 3000)}, (None, 6, 20),
    ))
    m = mount("crossnode")

    def split_value(attr, env, coords):
        if attr == "POS":
            return coords["G"] * 1.0
        return coords["T"] * 100.0 + coords["G"]

    write_dataset(CompiledDataset(SPLIT_TEXT), m, split_value)
    out.append(Spec(
        "cross-node", "D", SPLIT_TEXT, m, ("T",),
        {"POS": (1.0, 10.0), "VAL": (100.0, 811.0)},
    ))
    return {spec.name: spec for spec in out}


def draw_query(rng: random.Random, spec: Spec) -> str:
    """A projection with a residual over a stored attribute — so the
    kernel runs — that keeps all, some or none of the rows."""
    names = list(spec.implicit) + sorted(spec.stored)
    select = ", ".join(rng.sample(names, rng.randint(1, min(4, len(names)))))
    attr = rng.choice(sorted(spec.stored))
    lo, hi = spec.stored[attr]
    cut = rng.choice([lo - 1, hi + 1, rng.uniform(lo, hi)])
    where = f"{attr} {rng.choice(['>', '<='])} {cut:.3f}"
    if rng.random() < 0.3:
        other = rng.choice(sorted(spec.stored))
        where += f" AND {other} >= {spec.stored[other][0] - 1}"
    return f"SELECT {select} FROM {spec.table} WHERE {where}"


def execute(spec: Spec, plan, fuse: bool, gap: int):
    """``plan`` on a cold extractor through the block driver, node by
    node, metered: (tables, stats, meter)."""
    stats, meter = IOStats(), RunState()
    evaluator = KernelCache(DEFAULT_REGISTRY).evaluator(
        plan.where, True, decided=plan.decided
    )
    tables = []
    with Extractor(spec.mount) as extractor:
        for node, afcs in group_by_home_node(plan.afcs).items():
            reader = extractor.reader_for(plan, afcs, coalesce_gap_bytes=gap, node=node)
            blocks = extractor.execute_blocks(
                plan, afcs, evaluator, reader, stats, fuse=fuse, meter=meter
            )
            tables.append(assemble_table(plan.output, plan.dtypes, blocks))
    return tables, stats, meter


DRAWS = 90


def test_a_run_decodes_exactly_like_its_rows(specs, monkeypatch):
    rng = random.Random(20261015)
    block_rows = {}
    monkeypatch.setattr(
        extractor_module, "block_rows_for",
        lambda needed, dtypes: block_rows["now"],
    )
    drawn = list(specs.values())
    fused_runs = 0
    for draw in range(DRAWS):
        spec = drawn[draw % len(drawn)]
        cap = rng.choice(spec.caps)
        kind = rng.choice([CompiledDataset, GeneratedDataset])
        plan = kind(spec.text, chunk_row_cap=cap).plan(draw_query(rng, spec))
        assert plan.where is not None
        block_rows["now"] = rng.choice([1, 5, 37, 200, 10**6])
        gap = rng.choice([0, 4096])
        context = f"draw {draw} {spec.name} cap={cap} block={block_rows['now']}"
        fused, fused_stats, fused_meter = execute(spec, plan, True, gap)
        single, single_stats, single_meter = execute(spec, plan, False, gap)
        assert len(fused) == len(single), context
        for got, want in zip(fused, single):
            assert got.column_names == want.column_names, context
            for name in got.column_names:
                a, b = got.column(name), want.column(name)
                assert a.dtype == b.dtype, f"{context}: {name}"
                assert a.tobytes() == b.tobytes(), f"{context}: {name}"
                assert a.flags.c_contiguous and a.flags.writeable, name
        assert fused_stats == single_stats, context
        assert fused_stats.rows_vectorized == fused_stats.rows_extracted > 0
        for meter, stats in ((fused_meter, fused_stats), (single_meter, single_stats)):
            assert (meter.rows, meter.nbytes) == (
                stats.rows_output, stats.bytes_read
            ), context
        fused_runs += block_rows["now"] > max(
            int(part.rows.max()) for part in plan.afcs.parts
        )
    assert fused_runs > DRAWS // 4  # many draws fused several AFCs a block


@pytest.mark.parametrize(
    "name", ["ipars-L0", "ipars-I", "ipars-narrow-time", "titan", "mri", "cross-node"]
)
def test_run_columns_own_contiguous_memory_and_rows_stay_views(specs, name):
    spec = specs[name]
    stored = sorted(spec.stored)
    sql = f"SELECT {', '.join(list(spec.implicit) + stored)} FROM {spec.table}"
    plan = CompiledDataset(spec.text, chunk_row_cap=spec.caps[-1]).plan(sql)
    with Extractor(spec.mount) as extractor:
        reader = extractor.reader_for(plan, plan.afcs, node=plan.afcs[0].chunks[0].node)
        stats = IOStats()
        parts = [part for part in plan.afcs.parts if len(part) > 1]
        assert parts
        for part in parts:
            run = reader.columns(part, 0, len(part), stats)
            rows = [
                reader.columns(part, i, i + 1, stats)
                for i in range(len(part))
            ]
            for column in plan.extracted:
                whole = run[column]
                assert whole.flags.c_contiguous and whole.flags.writeable
                expected = np.concatenate([row[column] for row in rows])
                assert whole.dtype == expected.dtype, column
                assert whole.tobytes() == expected.tobytes(), column
            for column in stored:
                # A lone row's stored fields: views of the chunk read.
                assert not rows[0][column].flags.writeable, column
                assert rows[0][column].base is not None, column
        # Run and rows were counted alike: every AFC twice.
        assert stats.afcs_processed == 2 * sum(len(p) for p in parts)


def test_decided_scan_never_fuses_so_gains_no_copy(specs):
    spec = specs["ipars-L0"]
    plan = CompiledDataset(spec.text).plan(
        "SELECT X, SOIL FROM IparsData WHERE TIME >= 2 AND TIME <= 5"
    )
    assert plan.where is None and plan.decided
    with Extractor(spec.mount) as extractor:
        for node, afcs in group_by_home_node(plan.afcs).items():
            reader = extractor.reader_for(plan, afcs, node=node)
            blocks = list(extractor.execute_blocks(
                plan, afcs, INDEX_DECIDED, reader, IOStats(), fuse=True
            ))
            # One block per AFC, each column a read-only view of its chunk.
            assert len(blocks) == len(afcs)
            for columns, _ in blocks:
                assert not any(c.flags.writeable for c in columns.values())
