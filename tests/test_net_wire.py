"""Wire-protocol unit tests: framing and serialization, no processes."""

import socket
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
