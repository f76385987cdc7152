"""The AFC table is the plan: generated columns == interpreted objects.

(a) The generated index function's :class:`~repro.core.afc.AfcTable`,
    row for row and in order, equals the AFC objects the interpreted
    ``enumerate_afcs`` builds (split by the pre-table recursive
    ``split_afc``, kept here as the oracle) — across layouts, ranges on
    every chunk loop, node restriction and ``chunk_row_cap``.
(b) ``Client.submit`` builds no per-AFC object on either transport.
(c) A revision-2 generated module or peer is never used.
"""

import contextlib
import os
import threading
from collections import Counter
from typing import List

import pytest

import repro
from repro.core import CompiledDataset, GeneratedDataset, codegen, local_mount
from repro.core.afc import (
    AfcTable,
    AlignedFileChunkSet,
    ChunkRef,
    InnerVar,
    group_by_home_node,
)
from repro.core.analysis import enumerate_afcs, match_file
from repro.datasets import ALL_LAYOUTS, IparsConfig, TitanConfig, ipars, mri, titan
from repro.datasets.mri import MriConfig
from repro.errors import TransportError
from repro.metadata import parse_descriptor
from repro.net.server import NodeServer
from repro.sql import parse_where
from repro.sql.ranges import extract_ranges
from tests.conftest import PAPER_DESCRIPTOR, assert_tables_equal
from tests.test_cross_node_groups import SPLIT_TEXT as CROSS_NODE_TEXT

TINY_IPARS = IparsConfig(num_rels=2, num_times=6, cells_per_node=4, num_nodes=2)

#: Two chunk loops with steps 4 and 5, a binding constant pinning a loop
#: of the other leaf (R), two inner variables (G, H) and groups whose
#: files sit on two nodes.
STRIDED_TEXT = """
[S]
R = int
T = int
K = int
G = int
H = int
A = float
B = float

[D]
DatasetDescription = S
DIR[0] = n0/d
DIR[1] = n1/d

DATASET "D" {
  DATAINDEX { T K }
  DATA { DATASET a DATASET b }
  DATASET "a" {
    DATASPACE {
      LOOP T 3:27:4 { LOOP K 0:10:5 { LOOP G 0:4:2 { LOOP H 1:3:1 { A } } } }
    }
    DATA { DIR[$R]/a$R R = 0:1:1 }
  }
  DATASET "b" {
    DATASPACE {
      LOOP R 0:1:1 {
        LOOP T 3:27:4 { LOOP K 0:10:5 { LOOP G 0:4:2 { LOOP H 1:3:1 { B } } } }
      }
    }
    DATA { DIR[0]/b }
  }
}
"""


def reference_split(
    afc: AlignedFileChunkSet, max_rows: int
) -> List[AlignedFileChunkSet]:
    """The object-level ``split_afc`` the table's split replaced."""
    if afc.num_rows <= max_rows or not afc.inner_vars:
        return [afc]
    outer, rest = afc.inner_vars[0], afc.inner_vars[1:]

    def shifted(rows_in: int) -> tuple:
        return tuple(
            ChunkRef(c.node, c.path, c.offset + rows_in * c.bytes_per_row,
                     c.bytes_per_row, c.strip)
            for c in afc.chunks
        )

    if outer.repeat > max_rows:
        out = []
        for ordinal in range(outer.count):
            sub = AlignedFileChunkSet(
                outer.repeat, shifted(ordinal * outer.repeat),
                afc.constants + ((outer.name, outer.start + outer.step * ordinal),),
                rest,
            )
            out.extend(reference_split(sub, max_rows))
        return out
    per_piece = max(1, max_rows // outer.repeat)
    return [
        AlignedFileChunkSet(
            min(per_piece, outer.count - first) * outer.repeat,
            shifted(first * outer.repeat),
            afc.constants,
            (InnerVar(outer.name, outer.start + outer.step * first, outer.step,
                      min(per_piece, outer.count - first), outer.repeat),)
            + rest,
        )
        for first in range(0, outer.count, per_piece)
    ]


def oracle(dataset: CompiledDataset, ranges, node=None, cap=None):
    """The interpreted enumeration: AFC objects, group by group."""
    out = []
    for group in dataset.groups:
        if node is not None and group.home_node != node:
            continue
        if not all(match_file(f, ranges) for f in group.files):
            continue
        out.extend(
            enumerate_afcs(
                group.files, group.env, group.alignment,
                dataset.row_var_order, ranges,
                summaries=dataset.summaries,
                summary_attrs=dataset.stored_index_attrs,
            )
        )
    if cap is not None:
        out = [piece for afc in out for piece in reference_split(afc, cap)]
    return out


def where_clauses(dataset: GeneratedDataset) -> List[str]:
    """Open, closed, point, empty and multi-interval ranges on every
    chunk loop, the binding constants, and all loops at once."""
    loops = {}
    for layout in dataset._module._GROUPS:
        for var, start, stop, step, _ in layout.outer:
            loops.setdefault(var, (start, stop, step))
        for name, value in layout.env:
            loops.setdefault(name, (value, value, 1))
    clauses, combined = [], []
    for var, (start, stop, step) in sorted(loops.items()):
        mid = start + step * (((stop - start) // step) // 2)
        clauses += [
            f"{var} > {mid}", f"{var} < {mid}", f"{var} >= {mid}",
            f"{var} <= {mid}", f"{var} BETWEEN {start + step} AND {stop}",
            f"{var} = {mid}", f"{var} = {mid + 0.5}", f"{var} > {stop}",
            f"{var} < {start}", f"{var} IN ({start}, {mid}, {stop + step})",
            f"({var} < {start + step} OR {var} > {stop - step})",
            f"{var} > {mid - 0.5} AND {var} < {mid + step + 0.5}",
            f"NOT {var} = {mid}",
        ]
        combined.append(f"{var} >= {mid}")
    clauses.append(" AND ".join(combined))
    return clauses


def titan_with_summaries(titan_small):
    _, text, _, summaries = titan_small
    return text, summaries


CASES = {
    **{
        f"ipars-{layout}": (
            lambda _, layout=layout: (ipars.descriptor_text(TINY_IPARS, layout), None)
        )
        for layout in ALL_LAYOUTS
    },
    "titan": lambda t: (t[1], None),
    "titan-summaries": titan_with_summaries,
    "mri": lambda _: (
        mri.descriptor_text(
            MriConfig(num_studies=3, slices=3, rows=4, cols=4, num_nodes=2)
        ),
        None,
    ),
    "cross-node": lambda _: (CROSS_NODE_TEXT, None),
    "strided-pinned": lambda _: (STRIDED_TEXT, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_rows_equal_interpreted_objects(case, titan_small):
    text, summaries = CASES[case](titan_small)
    generated = GeneratedDataset(text, summaries)
    interpreted = CompiledDataset(text, summaries)
    nodes = generated.descriptor.storage.nodes
    clauses = where_clauses(generated)
    some_rows = False
    for where in [None, *clauses]:
        ranges = extract_ranges(parse_where(where)) if where else {}
        table = generated.index(ranges)
        want = oracle(interpreted, ranges)
        assert list(table) == want, where
        assert list(interpreted.index(ranges)) == want, where
        some_rows |= bool(want)
    assert some_rows
    # Node restriction and splitting, unconstrained and on a range.
    num_rows = generated.groups[0].alignment.num_rows
    caps = sorted({2, max(1, num_rows // 3), num_rows + 1})
    for where in [None, clauses[-1]]:
        ranges = extract_ranges(parse_where(where)) if where else {}
        shapes = [(node, None) for node in nodes]
        shapes += [(None, cap) for cap in caps] + [(nodes[-1], caps[0])]
        for node, cap in shapes:
            want = oracle(interpreted, ranges, node, cap)
            got = generated.index(ranges, node=node).split(cap)
            assert list(got) == want, (where, node, cap)
            assert len(got) == len(want)


def test_table_round_trips_and_slices():
    dataset = GeneratedDataset(STRIDED_TEXT)
    table = dataset.index({}).split(2)
    objects = list(table)
    assert AfcTable.of(objects) == table == objects
    assert AfcTable.of(objects[4:] + objects[:4]) == objects[4:] + objects[:4]
    assert table[3:11] == objects[3:11]
    for step in (slice(None, None, 3), slice(None, None, -1), slice(-2, 1, -5)):
        assert table[step] == objects[step], step
    assert len(table[5:5:2]) == 0
    assert table[-1] == objects[-1]
    assert table.total_rows == sum(a.num_rows for a in objects)
    assert AfcTable.of(objects).split(1) == table.split(1)
    by_node = group_by_home_node(table)
    assert sum(map(len, by_node.values())) == len(table)
    for node, share in by_node.items():
        assert list(share) == [a for a in objects if a.chunks[0].node == node]


# ---------------------------------------------------------------------------
# (b) no per-AFC objects on the submit path
# ---------------------------------------------------------------------------

GUARD_IPARS = IparsConfig(num_rels=2, num_times=8, cells_per_node=32, num_nodes=2)
GUARD_TITAN = TitanConfig(4, 4, 2, 2, elems_per_chunk=50, num_nodes=1, seed=3)
SCAN_SQL = (
    "SELECT X, Y, Z, SOIL, SGAS, SWAT FROM IparsData WHERE TIME>=2 AND TIME<=7"
)
FILTER_SQL = (
    "SELECT X, Y, Z, S1 FROM TitanData WHERE X>=100 AND X<=9000 AND Y>=50 "
    "AND Y<=8000 AND S1<0.6 AND S2>0.1 AND DISTANCE(X, Y, Z)<9000"
)


@pytest.fixture(scope="module")
def guard_data(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("afc_guard"))
    scan_text, _ = ipars.generate(GUARD_IPARS, "L0", local_mount(root))
    filter_text, _ = titan.generate(GUARD_TITAN, local_mount(root))
    return root, {
        "IparsData": (scan_text, SCAN_SQL),
        "TitanData": (filter_text, FILTER_SQL),
    }


@contextlib.contextmanager
def serving_cluster(text, root):
    dataset = GeneratedDataset(text)
    servers = [
        NodeServer(node, root, dataset)
        for node in dataset.descriptor.storage.nodes
    ]
    threads = [threading.Thread(target=s.serve_forever) for s in servers]
    for thread in threads:
        thread.start()
    try:
        yield "tcp://" + ",".join("{}:{}".format(*s.address) for s in servers)
    finally:
        for server in servers:
            server.shutdown()
        for thread in threads:
            thread.join(timeout=10)


def counting_constructions(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (AlignedFileChunkSet, ChunkRef, InnerVar):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("table", ["IparsData", "TitanData"])
@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_submit_builds_no_afc_objects(guard_data, monkeypatch, table, transport):
    root, cases = guard_data
    text, sql = cases[table]
    with contextlib.ExitStack() as stack:
        url = f"local://{root}"
        if transport == "tcp":
            url = stack.enter_context(serving_cluster(text, root))
        db = stack.enter_context(repro.connect(url, descriptor=text))
        reference = db.submit(sql)
        assert reference.afc_count > 1 and reference.num_rows > 0
        counts = counting_constructions(monkeypatch)
        result = db.submit(sql)
        assert sum(counts.values()) == 0, dict(counts)
        assert_tables_equal(result.table, reference.table)
        # The counter works: the object view does construct.
        list(db.service.dataset.plan(sql).afcs[:1])
        assert counts["AlignedFileChunkSet"] == 1


# ---------------------------------------------------------------------------
# (c) revision-2 modules and peers
# ---------------------------------------------------------------------------


def test_stale_revision_2_module_regenerates(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    descriptor = parse_descriptor(PAPER_DESCRIPTOR)
    monkeypatch.setattr(codegen, "GENERATOR_REVISION", 2)
    stale = codegen._cache_path(cache, descriptor)
    monkeypatch.undo()
    with open(stale, "w") as handle:
        handle.write("def index(ranges, summaries=None, node=None):\n    return []\n")
    dataset = GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache)
    assert dataset.from_cache is False
    assert codegen._cache_path(cache, descriptor) != stale
    assert len(os.listdir(cache)) == 2
    want = list(CompiledDataset(PAPER_DESCRIPTOR).index({}))
    assert list(dataset.index({})) == want
    assert list(GeneratedDataset(PAPER_DESCRIPTOR, cache_dir=cache).index({})) == want


def test_revision_2_peer_is_refused_at_connect(guard_data, monkeypatch):
    root, cases = guard_data
    text, sql = cases["TitanData"]
    monkeypatch.setattr(codegen, "GENERATOR_REVISION", 2)
    old_dataset = GeneratedDataset(text)
    old_server = NodeServer("osu0", root, old_dataset)
    monkeypatch.undo()
    thread = threading.Thread(target=old_server.serve_forever)
    thread.start()
    try:
        url = "tcp://{}:{}".format(*old_server.address)
        with pytest.raises(TransportError, match="announces descriptor"):
            repro.connect(url, descriptor=text)
    finally:
        old_server.shutdown()
        thread.join(timeout=10)
    with serving_cluster(text, root) as url:
        with repro.connect(url, descriptor=text) as db:
            assert db.query(sql).num_rows > 0
