"""Wire-protocol unit tests: framing and serialization, no processes."""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core import ExecOptions, GeneratedDataset
from repro.core.stats import IOStats
from repro.errors import (
    ExtractionError,
    InjectedFault,
    PlanMismatchError,
    RemoteError,
    TransportError,
)
from repro.net import framing, wire
from repro.sql import parse_query
from tests.conftest import assert_tables_equal


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            framing.write_frame(a, framing.BATCH, b"hello bytes")
            kind, payload = framing.read_frame(b)
            assert kind == framing.BATCH
            assert payload == b"hello bytes"
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = socket.socketpair()
        try:
            framing.write_frame(a, framing.PING)
            kind, payload = framing.read_frame(b)
            assert kind == framing.PING
            assert payload == b""
        finally:
            a.close()
            b.close()

    def test_json_frame(self):
        a, b = socket.socketpair()
        try:
            framing.write_json(a, framing.DONE, {"rows": 7, "batches": 2})
            kind, payload = framing.read_frame(b)
            assert kind == framing.DONE
            assert framing.decode_json(payload) == {"rows": 7, "batches": 2}
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x04\x00\x00")  # half a header, then hang up
            a.close()
            with pytest.raises(ConnectionError):
                framing.read_frame(b)
        finally:
            b.close()

    def test_cut_mid_payload_names_bytes_read_and_expected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(framing._HEADER.pack(framing.BATCH, 1000) + b"x" * 400)
            a.close()
            with pytest.raises(ConnectionError, match=r"400/1000 bytes"):
                framing.read_frame(b)
        finally:
            b.close()

    def test_20_mib_batch_roundtrips_bit_identically(self):
        """Far past any socket buffer: many partial receives into the
        one buffer the header's length calls for."""
        payload = np.random.default_rng(3).bytes(20 << 20)
        a, b = socket.socketpair()
        writer = threading.Thread(
            target=framing.write_frame, args=(a, framing.BATCH, payload)
        )
        writer.start()
        try:
            kind, received = framing.read_frame(b)
        finally:
            writer.join(timeout=10)
            a.close()
            b.close()
        assert not writer.is_alive()
        assert kind == framing.BATCH
        assert len(received) == len(payload)
        assert received == payload

    @staticmethod
    def _send_and_read(sender, receiver, buffers):
        writer = threading.Thread(
            target=framing.write_frame,
            args=(sender, framing.BATCH, *buffers),
        )
        writer.start()
        receiver.settimeout(10)  # a writer that failed sends nothing
        try:
            return framing.read_frame(receiver)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_more_buffers_than_one_sendmsg_carries(self):
        pieces = [
            bytes([i % 251]) * (i % 7) for i in range(3 * framing.IOV_MAX + 5)
        ]
        a, b = socket.socketpair()
        with a, b:
            kind, payload = self._send_and_read(a, b, pieces)
        assert kind == framing.BATCH
        assert payload == b"".join(pieces)

    def test_partial_sends_resume_inside_a_buffer(self):
        """A socket with a timeout sends what fits its tiny buffer and
        returns; the writer resumes mid-buffer until all is out."""

        class Counting:
            def __init__(self, sock):
                self.sock, self.partial = sock, 0

            def sendmsg(self, buffers):
                sent = self.sock.sendmsg(buffers)
                self.partial += sent < sum(len(b) for b in buffers)
                return sent

        rng = np.random.default_rng(5)
        pieces = [rng.integers(0, 256, 50_000, dtype=np.uint8) for _ in range(8)]
        a, b = socket.socketpair()
        with a, b:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            a.settimeout(10)
            counting = Counting(a)
            _, payload = self._send_and_read(counting, b, pieces)
        assert counting.partial > 0
        assert payload == b"".join(p.tobytes() for p in pieces)

    def test_oversized_length_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(
                framing._HEADER.pack(
                    framing.BATCH, framing.MAX_FRAME_BYTES + 1
                )
            )
            with pytest.raises(TransportError, match="frame"):
                framing.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_malformed_json_is_transport_error(self):
        with pytest.raises(TransportError):
            framing.decode_json(b"{nope")

    def test_kind_names(self):
        assert framing.kind_name(framing.EXECUTE) == "EXECUTE"
        assert framing.kind_name(250) == "kind#250"


# ---------------------------------------------------------------------------
# WHERE AST
# ---------------------------------------------------------------------------


WHERE_QUERIES = [
    "SELECT X FROM D WHERE TIME > 3",
    "SELECT X FROM D WHERE REL in (0, 2) AND TIME <= 9",
    "SELECT X FROM D WHERE TIME BETWEEN 2 AND 8 OR NOT (X < 1.5)",
    "SELECT X FROM D WHERE SPEED(SPEED1, SPEED2) > 0.5 AND REL = 1",
]


class TestWhereRoundtrip:
    @pytest.mark.parametrize("sql", WHERE_QUERIES)
    def test_roundtrip(self, sql):
        where = parse_query(sql).where
        assert where is not None
        decoded = wire.decode_where(wire.encode_where(where))
        # AST nodes are (frozen) dataclasses: equality is structural.
        assert decoded == where

    def test_none_passes_through(self):
        assert wire.encode_where(None) is None
        assert wire.decode_where(None) is None

    def test_unknown_tag_rejected(self):
        with pytest.raises(TransportError, match="unknown AST tag"):
            wire.decode_where({"t": "mystery"})


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ipars_plan(ipars_l0):
    _, text, _ = ipars_l0
    dataset = GeneratedDataset(text)
    plan = dataset.plan(
        "SELECT X, Y, SOIL FROM IparsData WHERE TIME > 2 AND TIME <= 9"
    )
    assert plan.afcs, "test needs a non-empty plan"
    return plan


class TestPlanRoundtrip:
    def test_structural_roundtrip(self, ipars_plan):
        encoded = wire.encode_plan(ipars_plan, ipars_plan.afcs)
        decoded = wire.decode_plan(encoded)
        assert decoded.needed == list(ipars_plan.needed)
        assert decoded.output == list(ipars_plan.output)
        assert decoded.where == ipars_plan.where
        assert decoded.dtypes == {
            n: np.dtype(d) for n, d in ipars_plan.dtypes.items()
        }
        assert len(decoded.afcs) == len(ipars_plan.afcs)
        for mine, theirs in zip(decoded.afcs, ipars_plan.afcs):
            assert mine == theirs  # frozen dataclasses: deep equality

    def test_reencode_is_identical(self, ipars_plan):
        """encode -> decode -> encode is a fixed point (incl. strip dedup)."""
        import json

        once = wire.encode_plan(ipars_plan, ipars_plan.afcs)
        decoded = wire.decode_plan(once)
        twice = wire.encode_plan(decoded, decoded.afcs)
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )

    def test_strips_are_deduplicated(self, ipars_plan):
        encoded = wire.encode_plan(ipars_plan, ipars_plan.afcs)
        total_chunks = sum(len(a["chunks"]) for a in encoded["afcs"])
        assert len(encoded["strips"]) < total_chunks

    def test_json_serializable(self, ipars_plan):
        import json

        blob = json.dumps(wire.encode_plan(ipars_plan, ipars_plan.afcs))
        decoded = wire.decode_plan(json.loads(blob))
        assert decoded.afcs == list(ipars_plan.afcs)


# ---------------------------------------------------------------------------
# EXECUTE requests: the query travels, the plan does not
# ---------------------------------------------------------------------------


def _request(**overrides):
    payload = {
        "query": "SELECT X FROM IparsData WHERE TIME > 2",
        "needed": ["X", "TIME"],
        "output": ["X"],
        "agg": None,
        "chunk_row_cap": None,
        "afcs": 4,
        "options": {},
    }
    payload.update(overrides)
    return payload


class TestExecuteRequest:
    def test_carries_query_text_not_afcs(self, ipars_plan):
        import dataclasses
        import json

        payload = wire.encode_execute(ipars_plan, 7, ExecOptions())
        assert payload["query"] == str(ipars_plan.query)
        assert payload["afcs"] == 7
        assert "strips" not in payload and "plan" not in payload
        # Size depends on the text and column lists, never on AFC count.
        doubled = dataclasses.replace(ipars_plan, afcs=list(ipars_plan.afcs) * 2)
        assert len(json.dumps(payload)) == len(
            json.dumps(wire.encode_execute(doubled, 7, ExecOptions()))
        )
        assert len(json.dumps(payload)) < 1024

    def test_roundtrip(self, ipars_l0):
        import json

        _, text, _ = ipars_l0
        dataset = GeneratedDataset(text, chunk_row_cap=16)
        plan = dataset.plan(
            "SELECT REL, SUM(SOIL), COUNT(*) FROM IparsData "
            "WHERE TIME in (3, 5) GROUP BY REL"
        )
        opts = ExecOptions(batch_rows=99, vectorize="off")
        blob = json.dumps(wire.encode_execute(plan, len(plan.afcs), opts))
        request = wire.decode_execute(json.loads(blob))
        assert request.query == str(plan.query)
        assert request.needed == list(plan.needed)
        assert request.output == list(plan.output)
        assert request.aggregate == plan.aggregate
        assert request.chunk_row_cap == 16
        assert request.afcs == len(plan.afcs)
        assert request.options.batch_rows == 99
        assert request.options.vectorize == "off"
        # The shipped text re-plans to the same query on the node.
        assert dataset.plan(request.query).query == plan.query

    def test_replace_variants_keep_provenance(self, ipars_plan):
        import dataclasses

        from repro.cache import widen_plan

        widened = widen_plan(ipars_plan)
        assert widened.output == list(ipars_plan.needed)
        assert widened.query is ipars_plan.query
        stripped = dataclasses.replace(ipars_plan, aggregate=None)
        assert wire.encode_execute(stripped, 1, ExecOptions())["query"] == str(
            ipars_plan.query
        )

    def test_plan_without_provenance_is_refused(self, ipars_plan):
        import dataclasses

        bare = dataclasses.replace(ipars_plan, query=None)
        with pytest.raises(TransportError, match="ExtractionPlan.query"):
            wire.encode_execute(bare, 1, ExecOptions())

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "SELECT 1",
            _request(query=None),
            _request(query=17),
            _request(needed="X"),
            _request(output=[1, 2]),
            _request(afcs=-1),
            _request(afcs="4"),
            _request(afcs=True),
            _request(chunk_row_cap=0),
            _request(chunk_row_cap="8"),
            _request(options=[1]),
            _request(agg={"group_by": []}),
            _request(agg={"group_by": [], "items": [["median", "X"]],
                          "output": []}),
            _request(agg=7),
        ],
    )
    def test_malformed_payloads_are_transport_errors(self, payload):
        with pytest.raises(TransportError, match="malformed EXECUTE"):
            wire.decode_execute(payload)

    @pytest.mark.parametrize(
        "options",
        [
            {"batch_rows": "x"},
            {"batch_rows": 0},
            {"batch_rows": -3},
            {"batch_rows": 2.0},
            {"batch_rows": True},
            {"intra_node_workers": 0},
            {"intra_node_workers": "2"},
            {"intra_node_workers": False},
            {"coalesce_gap_bytes": -5},
            {"coalesce_gap_bytes": 1.5},
            {"coalesce_gap_bytes": None},
            {"coalesce_gap_bytes": True},
            {"vectorize": "maybe"},
            {"vectorize": True},
            {"vectorize": None},
        ],
    )
    def test_malformed_node_options_are_refused_before_planning(self, options):
        with pytest.raises(TransportError, match="malformed EXECUTE"):
            wire.decode_options(options)
        with pytest.raises(TransportError, match="malformed EXECUTE"):
            wire.decode_execute(_request(options=options))

    def test_plan_mismatch_keeps_its_type_across_the_wire(self):
        err = wire.decode_error(
            wire.encode_error(PlanMismatchError("planned 3, expected 4")),
            "osu1",
        )
        assert isinstance(err, PlanMismatchError)
        assert "osu1" in str(err)
        assert not wire.encode_error(err)["retryable"]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _table(rows=100):
    from repro.core.table import VirtualTable

    rng = np.random.default_rng(7)
    return VirtualTable(
        {
            "REL": rng.integers(0, 4, rows).astype(np.int16),
            "TIME": np.arange(rows, dtype=np.int32),
            "X": rng.random(rows).astype(np.float32),
            "SOIL": rng.random(rows).astype(np.float64),
        },
        order=["REL", "TIME", "X", "SOIL"],
    )


def batch_payload(header, body=b""):
    """A BATCH payload from a header (JSON-encoded unless bytes)."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack("!I", len(blob)) + blob + body


def _columns(rows, *specs):
    """A header over ``(name, dtype[, nbytes])`` specs; ``nbytes``
    defaults to what ``rows`` rows of the dtype take."""
    return {
        "rows": rows,
        "columns": [
            {
                "name": name,
                "dtype": dtype,
                "nbytes": nbytes[0] if nbytes
                else rows * np.dtype(dtype).itemsize,
            }
            for name, dtype, *nbytes in specs
        ],
    }


GOOD_BATCH = batch_payload(
    _columns(2, ("X", "<f4"), ("SOIL", "<f4")), bytes(16)
)

#: Payloads no table encodes to; each must be a TransportError, never a
#: ValueError/KeyError/TypeError or a silently different table.
HOSTILE_TABLES = {
    "odd-nbytes": batch_payload(
        _columns(2, ("X", "<f4", 7), ("SOIL", "<f4")), bytes(15)
    ),
    "object-dtype": batch_payload(
        _columns(2, ("X", "|O"), ("SOIL", "<f4")), bytes(24)
    ),
    "missing-rows": batch_payload(
        {"columns": _columns(2, ("X", "<f4"))["columns"]}, bytes(8)
    ),
    "unknown-dtype": batch_payload(_columns(2, ("X", "zz", 8)), bytes(8)),
    "subarray-dtype": batch_payload(_columns(2, ("X", "(2,)<f4")), bytes(16)),
    "rows-without-columns": batch_payload({"rows": 3, "columns": []}),
    "not-an-object": batch_payload(b"[1, 2]"),
    "not-json": batch_payload(b"{nope"),
    "trailing-bytes": GOOD_BATCH + b"\x00\x00",
    "short-body": GOOD_BATCH[:-4],
    "header-past-payload": b"\x00\x00\x03\xe8" + GOOD_BATCH[4:],
    "duplicate-names": batch_payload(
        _columns(2, ("X", "<f4"), ("X", "<f4")), bytes(16)
    ),
}


class TestTableRoundtrip:
    def test_roundtrip_preserves_dtypes_and_values(self):
        table = _table()
        decoded = wire.decode_table(wire.encode_table(table))
        assert decoded.column_names == table.column_names
        for name in table.column_names:
            assert decoded[name].dtype == table[name].dtype
            np.testing.assert_array_equal(decoded[name], table[name])

    def test_zero_rows(self):
        table = _table(rows=0)
        decoded = wire.decode_table(wire.encode_table(table))
        assert decoded.num_rows == 0
        assert decoded.column_names == table.column_names

    def test_non_contiguous_columns(self):
        from repro.core.table import VirtualTable

        backing = np.arange(40, dtype=np.float64).reshape(2, 20)
        table = VirtualTable({"A": backing[:, 3]}, order=["A"])
        decoded = wire.decode_table(wire.encode_table(table))
        np.testing.assert_array_equal(decoded["A"], backing[:, 3])

    def test_truncated_payload_rejected(self):
        payload = wire.encode_table(_table())
        with pytest.raises(TransportError, match="truncated"):
            wire.decode_table(payload[:-5])
        with pytest.raises(TransportError):
            wire.decode_table(b"\x00")

    def test_assert_tables_equal_through_wire(self):
        table = _table()
        assert_tables_equal(
            table, wire.decode_table(wire.encode_table(table))
        )

    @pytest.mark.parametrize("case", sorted(HOSTILE_TABLES))
    def test_hostile_payloads_are_transport_errors(self, case):
        with pytest.raises(TransportError):
            wire.decode_table(HOSTILE_TABLES[case])




# ---------------------------------------------------------------------------
# Wire bytes: pinned to what encode_table wrote for an assembled table
# before replies were sent from the blocks' own columns
# ---------------------------------------------------------------------------


def _strided_blocks():
    """L0-like blocks: X/Y are strided fields of COORDS-style records,
    SOIL a contiguous column; blocks of 7, 20 and 13 rows."""
    records = np.zeros(
        40, dtype=[("X", "<f4"), ("Y", "<f4"), ("Z", "<f4"), ("ID", "<i4")]
    )
    records["X"] = np.arange(40) * 0.5
    records["Y"] = np.arange(40) * -1.25
    soil = np.linspace(0.0, 1.0, 40)
    cuts = [(0, 7), (7, 27), (27, 40)]
    return ["X", "Y", "SOIL"], [
        ({"X": records["X"][a:b], "Y": records["Y"][a:b], "SOIL": soil[a:b]},
         b - a)
        for a, b in cuts
    ]


def _bytes_blocks():
    """One block: an ``S`` column, a big-endian column (sent native,
    as every result column is) and a short."""
    names = np.array([b"ab", b"cdef", b"", b"ghijk", b"l"] * 5, dtype="S5")
    return ["NAME", "BE", "REL"], [(
        {
            "NAME": names,
            "BE": (np.arange(25) * 1000).astype(">i4"),
            "REL": (np.arange(25) % 3).astype(np.int16),
        },
        25,
    )]


def _mixed_blocks():
    """Two blocks of every fixed-width kind, a big-endian double among
    them (several blocks are concatenated in native byte order)."""
    columns = {
        "I1": (np.arange(30) - 15).astype(np.int8),
        "U2": (np.arange(30) * 1000).astype(np.uint16),
        "I4": (np.arange(30) * -70000).astype(np.int32),
        "I8": (np.arange(30) * 3 ** 30).astype(np.int64),
        "F4": (np.arange(30) / 7).astype(np.float32),
        "F8": (np.arange(30) / 9).astype(">f8"),
        "S3": np.array([b"x", b"yy", b"zzz"] * 10, dtype="S3"),
        "B": np.arange(30) % 2 == 0,
    }
    names = list(columns)
    return names, [
        ({n: c[:11] for n, c in columns.items()}, 11),
        ({n: c[11:] for n, c in columns.items()}, 19),
    ]


def _digest(frames):
    """One hash over a list of payloads, their boundaries included."""
    import hashlib

    digest = hashlib.sha256()
    for frame in frames:
        digest.update(len(frame).to_bytes(4, "big"))
        digest.update(frame)
    return digest.hexdigest()


GOLDEN_BLOCKS = {
    "strided": _strided_blocks,
    "bytes": _bytes_blocks,
    "mixed": _mixed_blocks,
}

#: sha256 (see ``_digest``) of ``encode_table`` of ``assemble_table`` of
#: each case's blocks — whole, then ``batched`` by 8 rows — captured
#: from the encoder that joined an assembled table; ``bytes`` recaptured
#: once every result column became native byte order.
GOLDEN = {
    "strided": (
        "4fcbacd555be9b4af7dd56737c479d17b13346780d64f8ad3eb86b6df73efa5d",
        "f45b5e2a6b1071ca6a9e0d57f1a3073b131c19c77c754e683ca3d5247c04dd4c",
    ),
    "bytes": (
        "a28cd4488830eff6bc61f8039ca0c22df37e11e2fdf7cc83f04280e086f539bd",
        "6596e782f9d014a15a784a8ac0683671863e9430fbc6645c6bff0772c3821006",
    ),
    "mixed": (
        "d0e2b90e385a5494ba7a8310657dadfb426e7cc8b2b043f8ab0241ed39dcb608",
        "77debe431707123d1d509d09863cd90c45baff9c426df15bd5264561ca94b1d7",
    ),
}

#: ``_digest([encode_table(_table(rows=0))])`` from the same encoder.
GOLDEN_ZERO_ROWS = (
    "947811f8c32e700acaee5388ed17c2808467e0ea9b251b986c53519cfdce86c6"
)


class TestWireBytesUnchanged:
    @pytest.mark.parametrize("case", sorted(GOLDEN_BLOCKS))
    def test_frames_from_blocks_are_the_assembled_tables_bytes(self, case):
        names, blocks = GOLDEN_BLOCKS[case]()
        whole, by_8 = GOLDEN[case]
        ((rows, buffers),) = wire.table_frames(names, blocks, 1 << 20)
        assert rows == sum(count for _, count in blocks)
        assert _digest([b"".join(buffers)]) == whole
        frames = list(wire.table_frames(names, blocks, 8))
        assert [count for count, _ in frames[:-1]] == [8] * (len(frames) - 1)
        assert 0 < frames[-1][0] <= 8
        assert _digest([b"".join(b) for _, b in frames]) == by_8

    @pytest.mark.parametrize("case", sorted(GOLDEN_BLOCKS))
    def test_encode_table_of_the_assembled_table(self, case):
        from repro.core.kernels import assemble_table

        names, blocks = GOLDEN_BLOCKS[case]()
        dtypes = {n: blocks[0][0][n].dtype for n in names}
        table = assemble_table(names, dtypes, blocks)
        payload = wire.encode_table(table)
        assert _digest([payload]) == GOLDEN[case][0]
        decoded = wire.decode_table(payload)
        assert decoded.column_names == table.column_names
        for name in names:
            assert decoded[name].dtype == table[name].dtype
            np.testing.assert_array_equal(decoded[name], table[name])

    def test_zero_rows(self):
        payload = wire.encode_table(_table(rows=0))
        assert _digest([payload]) == GOLDEN_ZERO_ROWS
        assert list(wire.table_frames(["X"], [], 8)) == []
        # A block with no surviving rows sends no frame either.
        assert list(wire.table_frames(
            ["X"], [({"X": np.empty(0, np.float32)}, 0)], 8
        )) == []

    def test_only_strided_pieces_are_copied(self):
        names, blocks = _strided_blocks()
        ((_, buffers),) = wire.table_frames(names, blocks, 1 << 20)
        # The header, then each column's three pieces.
        assert len(buffers) == 1 + 3 * len(names)
        x, soil = buffers[1:4], buffers[7:10]
        for (columns, _), x_piece, soil_piece in zip(blocks, x, soil):
            assert np.shares_memory(soil_piece, columns["SOIL"])
            assert not np.shares_memory(x_piece, columns["X"])


# ---------------------------------------------------------------------------
# Options, stats, errors
# ---------------------------------------------------------------------------


class TestOptionsStatsErrors:
    def test_options_only_node_fields_travel(self):
        opts = ExecOptions(
            batch_rows=123,
            coalesce_gap_bytes=0,
            intra_node_workers=3,
            retries=9,
            cache_mode="subsume",
        )
        decoded = wire.decode_options(wire.encode_options(opts))
        assert decoded.batch_rows == 123
        assert decoded.coalesce_gap_bytes == 0
        assert decoded.intra_node_workers == 3
        # Coordinator-only business never reaches the node server.
        assert decoded.retries == 0
        assert decoded.cache_mode == "off"
        assert decoded.remote is False

    def test_unknown_option_keys_ignored(self):
        decoded = wire.decode_options({"batch_rows": 5, "hacked": True})
        assert decoded.batch_rows == 5

    def test_stats_roundtrip(self):
        stats = IOStats()
        stats.bytes_read = 1234
        stats.read_calls = 7
        decoded = wire.decode_stats(wire.encode_stats(stats))
        assert decoded.bytes_read == 1234
        assert decoded.read_calls == 7

    def test_injected_fault_keeps_type(self):
        err = wire.decode_error(
            wire.encode_error(InjectedFault("injected node-down")), "osu1"
        )
        assert isinstance(err, InjectedFault)
        assert "osu1" in str(err)

    def test_retryable_collapses_to_extraction_error(self):
        err = wire.decode_error(
            wire.encode_error(ExtractionError("short read")), "osu0"
        )
        assert isinstance(err, ExtractionError)
        assert not isinstance(err, InjectedFault)

    def test_oserror_is_retryable(self):
        payload = wire.encode_error(OSError("disk on fire"))
        assert payload["retryable"]

    def test_programming_error_is_remote_error(self):
        err = wire.decode_error(
            wire.encode_error(KeyError("oops")), "osu2"
        )
        assert isinstance(err, RemoteError)
        assert "KeyError" in str(err)
