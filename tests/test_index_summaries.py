"""Per-chunk min/max summaries: the columnar zone map of stored attributes.

``MinMaxSummaries`` keeps, per summarised ``(node, path, attr)``, the
chunks' sorted offsets and each chunk's min and max in the field's own
dtype.  The generated index prunes with one vectorised interval test of
the gathered bounds (``codegen_runtime.summary_mask``); the interpreted
index tests chunk by chunk over ``bounds(key)`` (``chunk_pruned``); the
summary fast path of COUNT/MIN/MAX reduces the gathered columns.

Besides the pieces, the differential matrix at the end crosses Titan and
a two-strip layout over adversarial chunk values drawn from
``tests/matrix.py`` and checks three properties: pruning with summaries
never changes a result (vectorize on and off, generated and
interpreted); the generated index's table equals the interpreted one
row for row; and the summary answer of COUNT/MIN/MAX equals extraction,
dtype included.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import HandwrittenTitan
from repro.core import (
    CompiledDataset, ExecOptions, Extractor, GeneratedDataset, Virtualizer,
    local_mount, summary_answer,
)
from repro.core.afc import AfcTable
from repro.core.extractor import AfcReader
from repro.core.stats import IOStats
from repro.datasets.writers import write_dataset
from repro.errors import ReproError
from repro.index import MinMaxSummaries, build_summaries
from repro.sql import parse_where
from repro.sql.ranges import extract_ranges
from tests.conftest import run_plan
from tests.matrix import (
    BOUND_DTYPES, chunk_columns, chunk_literals, where_over, where_terms,
)

_BIG = 2**53
_TINY = np.float32(0.1)


def one_column_dataset(root, type_name, chunks, extra_strip=False):
    """Dataset ``D`` of one file: per chunk ``T = 1..``, its rows of
    ``V`` (type ``type_name``, DATAINDEX), every chunk as long as the
    longest (a chunk repeats its values, keeping its min, max and NaNs).
    ``extra_strip`` puts a big-endian float strip ``A`` before each
    chunk of ``V`` in the same file."""
    rows = max(len(chunk) for chunk in chunks)
    values = np.stack([np.resize(np.asarray(chunk), rows) for chunk in chunks])
    strips = "LOOP G 0:%d:1 { A }\n      " % (rows - 1) if extra_strip else ""
    other = "A = be float\n" if extra_strip else ""
    text = f"""
[S]
T = int
{other}V = {type_name}

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {{
  DATAINDEX {{ T V }}
  DATASPACE {{
    LOOP T 1:{len(chunks)}:1 {{
      {strips}LOOP G 0:{rows - 1}:1 {{ V }}
    }}
  }}
  DATA {{ DIR[0]/v.bin }}
}}
"""

    def value(attr, env, coords):
        if attr == "A":
            return coords["T"] * 10.0 + coords["G"]
        return values[coords["T"] - 1, coords["G"]]

    mount = local_mount(str(root))
    write_dataset(CompiledDataset(text), mount, value)
    return text, mount


def record_strip_dataset(root, type_name, chunks):
    """Dataset ``D`` like :func:`one_column_dataset`, but ``V`` shares
    a record strip with ``W`` (one more than ``V``, as a double): its
    chunks are cached decoded, so they teach the extractor their
    bounds."""
    rows = max(len(chunk) for chunk in chunks)
    values = np.stack([np.resize(np.asarray(chunk), rows) for chunk in chunks])
    text = f"""
[S]
T = int
V = {type_name}
W = double

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {{
  DATAINDEX {{ T }}
  DATASPACE {{
    LOOP T 1:{len(chunks)}:1 {{
      LOOP G 0:{rows - 1}:1 {{ V W }}
    }}
  }}
  DATA {{ DIR[0]/vw.bin }}
}}
"""

    def value(attr, env, coords):
        v = values[coords["T"] - 1, coords["G"]]
        return v if attr == "V" else v.astype(np.float64) + 1.0

    mount = local_mount(str(root))
    write_dataset(CompiledDataset(text), mount, value)
    return text, mount


def rows_of(text, mount, sql, summaries, codegen=True, vectorize="on"):
    with Virtualizer(
        text, mount, use_codegen=codegen, summaries=summaries
    ) as v:
        return v.query(sql, options=ExecOptions(vectorize=vectorize))


WAYS = [
    pytest.param(codegen, vectorize, id=f"{kind}-vectorize-{vectorize}")
    for codegen, kind in ((True, "generated"), (False, "interpreted"))
    for vectorize in ("on", "off")
]


class TestBuild:
    def test_one_summary_per_chunk(self, titan_small):
        config, _, _, summaries = titan_small
        assert len(summaries) == config.total_chunks
        assert set(summaries.attrs) == {"X", "Y", "Z", "TIME"}

    def test_bounds_are_correct(self, titan_small):
        # Exact, and in the field's dtype.
        config, text, mount, summaries = titan_small
        dataset = CompiledDataset(text)
        with Extractor(mount) as extractor:
            for afc in dataset.index({})[:5]:
                chunk = afc.chunks[0]
                cols = AfcReader(extractor, ["X", "Y", "TIME"]).columns(
                    AfcTable.of([afc]).parts[0], 0, 1, IOStats()
                )
                bounds = summaries.bounds(chunk.key)
                for attr in ("X", "TIME"):
                    lo, hi = bounds[attr]
                    assert lo.dtype == cols[attr].dtype.newbyteorder("=")
                    assert lo == cols[attr].min() and hi == cols[attr].max()

    def test_unknown_key(self, titan_small):
        _, _, _, summaries = titan_small
        assert summaries.bounds(("nope", "x", 0)) is None
        assert ("nope", "x", 0) not in summaries

    def test_requires_indexed_attrs(self, paper_dataset):
        # The IPARS example indexes only implicit attributes.
        text, mount = paper_dataset
        dataset = CompiledDataset(text)
        with pytest.raises(ReproError, match="no stored indexed"):
            build_summaries(dataset, mount)

    def test_explicit_attr_override(self, titan_small):
        _, text, mount, _ = titan_small
        dataset = CompiledDataset(text)
        summaries = build_summaries(dataset, mount, attrs=["S1"])
        assert set(summaries.attrs) == {"S1"}

    def test_unknown_attr_rejected(self, titan_small):
        _, text, mount, _ = titan_small
        dataset = CompiledDataset(text)
        with pytest.raises(ReproError, match="unknown"):
            build_summaries(dataset, mount, attrs=["GHOST"])

    def test_columns_share_one_offsets_array_per_file(self, titan_small):
        _, _, _, summaries = titan_small
        zones = [
            zone for (node, path, _), zone in summaries.zones.items()
            if node == "osu0"
        ]
        assert len(zones) == 4
        assert all(zone.offsets is zones[0].offsets for zone in zones)
        assert (np.diff(zones[0].offsets) > 0).all()


class TestPersistence:
    def test_save_load_roundtrip(self, titan_small, tmp_path):
        _, _, _, summaries = titan_small
        path = str(tmp_path / "summ.json")
        summaries.save(path)
        loaded = MinMaxSummaries.load(path)
        assert len(loaded) == len(summaries)
        assert loaded.digest() == summaries.digest()
        for key in summaries.keys():
            assert loaded.bounds(key) == summaries.bounds(key)
        assert loaded.dtypes == summaries.dtypes
        with open(path) as handle:
            assert json.load(handle)["dtypes"]["X"] == "<f4"

    def test_integers_round_trip_exactly(self, tmp_path):
        summaries = MinMaxSummaries.of(
            {("n", "f", 0): {"V": (_BIG + 1, _BIG + 3)}}, {"V": "<i8"}
        )
        path = str(tmp_path / "summ.json")
        summaries.save(path)
        with open(path) as handle:
            assert json.load(handle)["chunks"][0]["bounds"]["V"] == [
                _BIG + 1, _BIG + 3,
            ]
        lo, hi = MinMaxSummaries.load(path).bounds(("n", "f", 0))["V"]
        assert (int(lo), int(hi)) == (_BIG + 1, _BIG + 3)
        assert lo.dtype == np.int64

    def test_digest_follows_content(self):
        def make(hi, dtype="<f8"):
            return MinMaxSummaries.of(
                {("n", "f", 8): {"V": (0, hi)}, ("n", "f", 0): {"V": (0, 1)}},
                {"V": dtype},
            )

        assert make(2).digest() == make(2).digest()
        assert make(2).digest() != make(3).digest()
        assert make(2).digest() != make(2, "<f4").digest()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "chunks": []}')
        with pytest.raises(ReproError, match="version"):
            MinMaxSummaries.load(str(path))

    def test_a_file_without_dtypes_loads_as_float64(self, titan_small, tmp_path):
        # Files written before the dtypes map held every bound as a
        # float64: they load as those values and prune as they did.
        config, text, mount, summaries = titan_small
        path = str(tmp_path / "old.json")
        summaries.save(path)
        with open(path) as handle:
            payload = json.load(handle)
        del payload["dtypes"]
        for entry in payload["chunks"]:
            entry["bounds"] = {
                attr: [float(lo), float(hi)]
                for attr, (lo, hi) in entry["bounds"].items()
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        old = MinMaxSummaries.load(path)
        assert set(old.dtypes.values()) == {np.dtype(np.float64)}
        ranges = extract_ranges(parse_where(
            f"X >= 0 AND X <= {config.extent[0] / 4} AND TIME < 1000"
        ))
        for kind in (CompiledDataset, GeneratedDataset):
            got = kind(text, old).index(ranges)
            want = kind(text, summaries).index(ranges)
            assert list(got) == list(want)
            assert 0 < len(got) < len(kind(text).index(ranges))


class TestPruning:
    def test_spatial_query_reads_fewer_chunks(self, titan_small):
        config, text, mount, summaries = titan_small
        with Virtualizer(text, mount, summaries=summaries) as with_index:
            with Virtualizer(text, mount) as without_index:
                sql = (
                    "SELECT * FROM TitanData WHERE X >= 0 AND X <= "
                    f"{config.extent[0] / 4}"
                )
                plan_indexed = with_index.plan(sql)
                plan_plain = without_index.plan(sql)
                assert len(plan_indexed.afcs) < len(plan_plain.afcs)
                # and the results are identical
                a = with_index.query(sql).canonical()
                b = without_index.query(sql).canonical()
                assert a.num_rows == b.num_rows
                np.testing.assert_array_equal(a["X"], b["X"])

    def test_pruning_never_loses_rows(self, titan_small):
        config, text, mount, summaries = titan_small
        queries = [
            "SELECT * FROM TitanData WHERE X < 1000 AND Y < 1000",
            "SELECT * FROM TitanData WHERE TIME >= 5000",
            "SELECT X FROM TitanData WHERE Z > 350 AND S1 < 0.3",
        ]
        with Virtualizer(text, mount, summaries=summaries) as vi:
            with Virtualizer(text, mount) as vp:
                for sql in queries:
                    assert vi.query(sql).num_rows == vp.query(sql).num_rows


class TestBoundaries:
    """Bounds kept as floats used to drop rows and misreport MIN/MAX."""

    @pytest.mark.parametrize("codegen, vectorize", WAYS)
    def test_a_float32_boundary_keeps_its_row(self, tmp_path, codegen, vectorize):
        # float(float32(0.1)) > 0.1, yet the kernel compares in float32.
        text, mount = one_column_dataset(tmp_path, "float", [[_TINY]])
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = "SELECT V FROM D WHERE V <= 0.1"
        plain = rows_of(text, mount, sql, None, codegen, vectorize)
        pruned = rows_of(text, mount, sql, summaries, codegen, vectorize)
        assert plain.num_rows == pruned.num_rows == 1

    def test_handwritten_titan_keeps_a_float32_boundary(self, titan_small):
        config, text, mount, summaries = titan_small
        hand = HandwrittenTitan(config, summaries)
        # A literal below a chunk's float32 min that rounds to it.
        low = np.float32(min(
            summaries.bounds(afc.chunks[0].key)["X"][0]
            for afc in CompiledDataset(text).index({})
        ))
        literal = float(low) - float(np.spacing(low)) / 4
        assert np.float32(literal) == low and literal < float(low)
        sql = (
            "SELECT X FROM TitanData WHERE X <= "
            + np.format_float_positional(literal)
        )
        with Extractor(mount) as extractor:
            got = run_plan(extractor, hand.plan(sql))
            everything = run_plan(
                extractor, HandwrittenTitan(config, None).plan(sql)
            )
        assert got.num_rows == everything.num_rows >= 1

    CHUNKS = [[_BIG + 1, _BIG + 2], [_BIG + 3, _BIG + 5], [_BIG + 7, _BIG + 9]]

    @pytest.mark.parametrize("codegen, vectorize", WAYS)
    def test_int64_beyond_2_53_keeps_its_rows(self, tmp_path, codegen, vectorize):
        text, mount = one_column_dataset(tmp_path, "long", self.CHUNKS)
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = f"SELECT V FROM D WHERE V <= {_BIG + 3}"
        plain = rows_of(text, mount, sql, None, codegen, vectorize)
        pruned = rows_of(text, mount, sql, summaries, codegen, vectorize)
        assert plain.num_rows == pruned.num_rows == 3

    @pytest.mark.parametrize("codegen, vectorize", WAYS)
    def test_an_in_list_with_a_float_compares_as_floats(
        self, tmp_path, codegen, vectorize
    ):
        # Each value compares as its own ``=`` would: a float in
        # float64, where 2**53 + 1 is 2**53, and an int exactly.  The
        # chunk holding 2**53 keeps its row for the float alone.
        text, mount = one_column_dataset(tmp_path, "long", [[_BIG], [7]])
        summaries = build_summaries(CompiledDataset(text), mount)
        for values, rows in (
            (f"{_BIG + 1}, 0.5", 0), (f"{_BIG + 1}.0, 0.5", 1),
        ):
            sql = f"SELECT V FROM D WHERE V IN ({values})"
            plain = rows_of(text, mount, sql, None, codegen, vectorize)
            pruned = rows_of(text, mount, sql, summaries, codegen, vectorize)
            assert plain.num_rows == pruned.num_rows == rows, values

    #: An OR of two ends the interval algebra once merged as one value,
    #: over a chunk holding rows only one of them keeps, and a chunk no
    #: row of which either keeps.
    TIED_ENDS = [
        # An int end and an equal float end past 2**53: the kernel
        # compares an int64 column with the int exactly, with the float
        # in float64, where 2**53 + 1 is 2**53.
        pytest.param(
            "long", [[_BIG + 1, _BIG + 1], [7, 7]],
            f"V > {_BIG} OR V > {_BIG}.0", id="int64-past-2**53",
        ),
        # Ends apart in float64 that a float32 column compares as one:
        # the closed one keeps float32(0.1).
        pytest.param(
            "float", [[_TINY, _TINY], [-7, -7]],
            "V > 0.1 OR V >= 0.10000000149011612", id="float32",
        ),
    ]

    @pytest.mark.parametrize("type_name, chunks, where", TIED_ENDS)
    def test_an_or_of_tied_ends_keeps_its_rows_with_a_sidecar(
        self, tmp_path, type_name, chunks, where
    ):
        text, mount = one_column_dataset(tmp_path, type_name, chunks)
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = f"SELECT V FROM D WHERE {where}"
        plain = rows_of(text, mount, sql, None)
        pruned = rows_of(text, mount, sql, summaries)
        assert plain.num_rows == pruned.num_rows == 2

    @pytest.mark.parametrize("type_name, chunks, where", TIED_ENDS)
    def test_an_or_of_tied_ends_keeps_its_rows_with_learned_bounds(
        self, tmp_path, type_name, chunks, where
    ):
        text, mount = record_strip_dataset(tmp_path, type_name, chunks)
        sql = f"SELECT V, W FROM D WHERE {where}"
        runs = []
        with Virtualizer(text, mount) as v:
            for _ in range(3):
                stats = IOStats()
                runs.append((v.query(sql, stats).num_rows, stats.afcs_processed))
        # Cold, both chunks are read; warm, the learned bounds refute
        # the second and keep the first.
        assert runs == [(2, 2), (2, 1), (2, 1)]

    #: An AND whose ends cross in Python yet tie as the kernel compares
    #: them, at the top level and under an OR the rewrite does not
    #: fold, over the same two chunks as :attr:`TIED_ENDS`.
    TIED_INTERSECTIONS = [
        pytest.param(
            "long", [[_BIG + 1, _BIG + 1], [7, 7]], where,
            id=f"int64-past-2**53-{shape}",
        )
        for shape, where in (
            ("and", f"V > {_BIG} AND V <= {_BIG}.0"),
            ("or-and", f"(V > {_BIG} OR V < 0) AND V <= {_BIG}.0"),
        )
    ] + [
        pytest.param(
            "float", [[_TINY, _TINY], [-3, -3]], where,
            id=f"float32-{shape}",
        )
        for shape, where in (
            ("and", "V >= 0.10000000149011612 AND V <= 0.1"),
            ("or-and", "(V >= 0.10000000149011612 OR V < -5) AND V <= 0.1"),
        )
    ]

    @pytest.mark.parametrize("type_name, chunks, where", TIED_INTERSECTIONS)
    def test_an_and_of_tied_ends_keeps_its_rows_with_a_sidecar(
        self, tmp_path, type_name, chunks, where
    ):
        self.test_an_or_of_tied_ends_keeps_its_rows_with_a_sidecar(
            tmp_path, type_name, chunks, where
        )

    @pytest.mark.parametrize("type_name, chunks, where", TIED_INTERSECTIONS)
    def test_an_and_of_tied_ends_keeps_its_rows_with_learned_bounds(
        self, tmp_path, type_name, chunks, where
    ):
        self.test_an_or_of_tied_ends_keeps_its_rows_with_learned_bounds(
            tmp_path, type_name, chunks, where
        )

    #: An AND of two ends on one side that a column orders unlike
    #: Python, over values only one of the ends keeps.  Merged to the end
    #: Python orders tightest, the AND kept more rows than either
    #: conjunct's intersection: float32(0.1) for the float32 ends, and
    #: 2**53 + 1, which is 2**53 in float64, for the int64 ones.
    MERGED_ENDS = [
        pytest.param(
            "float", [[_TINY, np.float32(0.2)]],
            ("V > 0.1", "V >= 0.10000000149011612"), 1, id="float32",
        ),
        pytest.param(
            "long", [[_BIG + 1, 7]], (f"V >= {_BIG + 1}", f"V > {_BIG}.0"),
            0, id="int64-past-2**53",
        ),
    ]

    @pytest.mark.parametrize("type_name, chunks, conjuncts, rows", MERGED_ENDS)
    def test_an_and_of_tied_ends_is_the_intersection_of_its_conjuncts(
        self, tmp_path, type_name, chunks, conjuncts, rows
    ):
        text, mount = one_column_dataset(tmp_path, type_name, chunks)
        wheres = (*conjuncts, " AND ".join(conjuncts))
        with Virtualizer(text, mount) as v, repro.connect(
            f"local://{tmp_path}", descriptor=text
        ) as db:
            for door in (v.query, db.query):
                *alone, both = [
                    sorted(door(f"SELECT V FROM D WHERE {where}")["V"].tolist())
                    for where in wheres
                ]
                assert both == [x for x in alone[0] if x in alone[1]]
                assert len(both) == rows

    @pytest.mark.parametrize("codegen", [True, False])
    def test_int64_beyond_2_53_min_max_are_exact(self, tmp_path, codegen):
        text, mount = one_column_dataset(tmp_path, "long", self.CHUNKS)
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = "SELECT MIN(V), MAX(V), COUNT(*) FROM D"
        kind = GeneratedDataset if codegen else CompiledDataset
        answer = summary_answer(kind(text, summaries).plan(sql), summaries)
        extracted = rows_of(text, mount, sql, None, codegen)
        want = [int(extracted.column(n)[0]) for n in extracted.column_names]
        assert want == [_BIG + 1, _BIG + 9, 6]
        assert [int(answer.column(n)[0]) for n in answer.column_names] == want

    @pytest.mark.parametrize("nan_chunk", [0, 1, 3])
    def test_a_nan_chunk_makes_min_and_max_nan(self, tmp_path, nan_chunk):
        chunks = [[k, k + 0.25] for k in range(4)]
        chunks[nan_chunk] = [np.nan, nan_chunk + 0.25]
        text, mount = one_column_dataset(tmp_path, "float", chunks)
        summaries = build_summaries(CompiledDataset(text), mount)
        sql = "SELECT MIN(V), MAX(V) FROM D"
        answer = summary_answer(GeneratedDataset(text, summaries).plan(sql), summaries)
        extracted = rows_of(text, mount, sql, None)
        for name in extracted.column_names:
            assert answer.column(name).dtype == extracted.column(name).dtype
            assert np.isnan(answer.column(name)[0])
            assert np.isnan(extracted.column(name)[0])


class TestShortTailChunk:
    """Regression: a truncated final chunk used to crash build_summaries
    (np.frombuffer raises when the buffer is not a multiple of the record
    size); now partial trailing records are clamped away."""

    @pytest.fixture()
    def truncated(self, tmp_path):
        from repro.datasets import TitanConfig, titan

        config = TitanConfig(
            chunks_x=2, chunks_y=2, chunks_z=1, chunks_t=1,
            elems_per_chunk=50, num_nodes=1,
        )
        mount = local_mount(str(tmp_path))
        text, _ = titan.generate(config, mount)
        dataset = CompiledDataset(text)
        # Chop the last file mid-record: drop half a record's bytes.
        afcs = dataset.index({})
        chunk = afcs[-1].chunks[-1]
        path = mount(chunk.node, chunk.path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - chunk.bytes_per_row // 2)
        return config, dataset, mount

    def test_build_does_not_crash_on_partial_record(self, truncated):
        config, dataset, mount = truncated
        summaries = build_summaries(dataset, mount)
        assert len(summaries) == config.total_chunks

    def test_whole_records_of_short_chunk_still_summarised(self, truncated):
        _, dataset, mount = truncated
        summaries = build_summaries(dataset, mount)
        chunk = dataset.index({})[-1].chunks[-1]
        bounds = summaries.bounds(chunk.key)
        assert bounds is not None and "X" in bounds
        assert bounds["X"][0] <= bounds["X"][1]


class TestAttrsAcrossLayouts:
    """Regression: ``attrs`` used to report an arbitrary first chunk's
    keys."""

    def make(self):
        return MinMaxSummaries.of({
            ("n0", "a.dat", 0): {"X": (0.0, 1.0), "Y": (0.0, 2.0)},
            ("n0", "b.dat", 0): {"Y": (1.0, 3.0), "Z": (5.0, 9.0)},
        })

    def test_attrs_is_sorted_union(self):
        assert self.make().attrs == ("X", "Y", "Z")
        # Insertion order of the bounds dict must not matter.
        flipped = MinMaxSummaries.of({
            ("n0", "b.dat", 0): {"Z": (5.0, 9.0)},
            ("n0", "a.dat", 0): {"X": (0.0, 1.0)},
        })
        assert flipped.attrs == ("X", "Z")

    def test_each_chunk_reports_its_own_attrs(self):
        summaries = self.make()
        assert set(summaries.bounds(("n0", "a.dat", 0))) == {"X", "Y"}
        assert set(summaries.bounds(("n0", "b.dat", 0))) == {"Y", "Z"}
        assert len(summaries) == 2


# ---------------------------------------------------------------------------
# The differential matrix
# ---------------------------------------------------------------------------

#: Descriptor type names of :data:`tests.matrix.BOUND_DTYPES`.
TYPE_NAMES = {
    np.dtype(code): name for code, name in [
        ("<f4", "float"), (">f4", "be float"), ("<f8", "double"),
        (">f8", "be double"), ("<i8", "long int"), (">i8", "be long int"),
        ("<i4", "int"), ("u1", "unsigned char"),
    ]
}
assert set(TYPE_NAMES) == {np.dtype(code) for code in BOUND_DTYPES}

FAST_PATH = "SELECT COUNT(*), MIN({0}), MAX({0}) FROM {1}"


def check_properties(text, mount, summaries, table, where, attr):
    """Soundness, generated-equals-interpreted pruning, and the fast
    path against extraction, for one WHERE over one dataset."""
    sql = f"SELECT * FROM {table} WHERE {where}"
    ranges = extract_ranges(parse_where(where))
    unpruned = len(GeneratedDataset(text).index(ranges))
    tables = {
        kind: kind(text, summaries).index(ranges)
        for kind in (GeneratedDataset, CompiledDataset)
    }
    assert list(tables[GeneratedDataset]) == list(tables[CompiledDataset]), where
    assert len(tables[GeneratedDataset]) <= unpruned, where
    event(f"pruned: {len(tables[GeneratedDataset]) < unpruned}")
    want = rows_of(text, mount, sql, None, True, "off").canonical()
    for codegen in (True, False):
        for vectorize in ("on", "off"):
            got = rows_of(text, mount, sql, summaries, codegen, vectorize)
            got = got.canonical()
            for name in want.column_names:
                np.testing.assert_array_equal(
                    got[name], want[name], err_msg=f"{where} {name}"
                )
    fast = FAST_PATH.format(attr, table)
    answer = summary_answer(GeneratedDataset(text, summaries).plan(fast), summaries)
    assert answer is not None, fast
    extracted = rows_of(text, mount, fast, None)
    for name in extracted.column_names:
        assert answer.column(name).dtype == extracted.column(name).dtype, name
        np.testing.assert_array_equal(
            answer.column(name), extracted.column(name), err_msg=name
        )


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_matrix_over_adversarial_chunks(data):
    dtype, chunks = data.draw(chunk_columns(), label="chunks")
    extra_strip = data.draw(st.booleans(), label="extra strip")
    where = data.draw(where_over(["V"], {"V": chunk_literals(dtype)}), label="where")
    with tempfile.TemporaryDirectory() as root:
        text, mount = one_column_dataset(
            root, TYPE_NAMES[dtype], chunks, extra_strip
        )
        summaries = build_summaries(CompiledDataset(text), mount)
        assert summaries.dtypes["V"] == dtype.newbyteorder("=")
        check_properties(text, mount, summaries, "D", where, "V")


TITAN_SPANS = {
    "X": (0.0, 40000.0), "Y": (0.0, 40000.0), "Z": (0.0, 400.0),
    "TIME": (0.0, 10000.0),
}


@settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_matrix_over_titan(titan_small, data):
    _, text, mount, summaries = titan_small
    where = data.draw(where_terms(TITAN_SPANS), label="where")
    attr = data.draw(st.sampled_from(["X", "Z"]), label="attr")
    check_properties(text, mount, summaries, "TitanData", where, attr)
