"""The traced run: per-layer time, measured from outside the program.

The benchmark answers each query itself, by calling every layer's public
functions in the order ``QueryService.submit`` does — resolve, (cache
key/serve,) plan, one ``execute`` per node in parallel, merge,
(aggregate merge/finalize, cache store,) deliver — and wraps each call
in a span of its own: name, start, end, parent, query id, kept in memory
and written out when the run ends.  The hand-assembled pipeline returns
the same table as the program (checked per query), so the spans on its
blocking path add up to a real end-to-end latency: the ledger closes when
the root span's self time (``client.ledger_gap_frac``) is small.

Stages that run *inside* one of those calls — rewrite and index lookup
inside ``plan``; read/decode, filter and partial aggregation inside a
node's ``execute``; wire encode/decode inside an RPC — are timed a second
time on their own, on the same plan, as ``path=False`` detail spans
under the same query.  No span comes from the program's tracer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro import GeneratedDataset, parse_descriptor
from repro.cache import QueryCache, project, widen_plan
from repro.core.aggregate import finalize, merge_partials, partial_aggregate
from repro.core.stats import IOStats
from repro.core.table import concat_tables
from repro.diag import Collector
from repro.net.wire import decode_plan, decode_table, encode_plan, encode_table
from repro.sql import extract_ranges, rewrite_query
from repro.sql.typecheck import typecheck_query
from repro.storm import FilteringService, RoundRobinPartitioner

import probes

#: Queries per traced round that also get the off-path detail spans.
DETAIL_QUERIES = 20
#: Repeats of each set-up stage (parse, codegen) and of ping.
STAGE_REPEATS = 5


class SpanLog:
    """In-memory span store; append-only, written out at exit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(
        self, name: str, qid: str, parent: Optional[int] = None,
        path: bool = True, **tags,
    ) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": next(self._ids), "name": name, "qid": qid,
            "parent": parent, "path": path, **tags,
        }
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)  # list.append is atomic

    def ms(self, name: str, **where) -> List[float]:
        """Durations (ms) of every span with this name and these tags."""
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in where.items())
        ]

    def per_query(self, name: str, reduce) -> List[float]:
        """One number per query id: ``reduce`` over its spans' ms."""
        grouped: Dict[str, List[float]] = {}
        for s in self.spans:
            if s["name"] == name:
                grouped.setdefault(s["qid"], []).append(
                    (s["end"] - s["start"]) * 1e3
                )
        return [reduce(values) for values in grouped.values()]


def _med(values: List[float]) -> float:
    return probes.median(values) if values else 0.0


def _by_node(plan) -> Dict[str, list]:
    out: Dict[str, list] = {}
    for afc in plan.afcs:
        out.setdefault(afc.chunks[0].node, []).append(afc)
    return out


class Pipeline:
    """``QueryService.submit``, re-assembled from public layer calls."""

    def __init__(self, client, log: SpanLog, local_client=None):
        """``client`` is the endpoint under test; ``local_client`` (tcp
        only) is a ``local://`` client over the same files whose
        in-process data-source services time the node-side stages."""
        self.log = log
        self.service = client.service
        self.dataset = self.service.dataset
        self.options = client.options
        self.remote = self.service.transport.scheme == "tcp"
        self.node_span = "net.rpc" if self.remote else "data_source.execute"
        local = (local_client or client).service
        self.local_transport = local.transport
        self.cache = None
        if self.options.cache_mode != "off":
            self.cache = QueryCache.for_dataset(
                self.dataset,
                self.options.result_cache_bytes,
                self.options.plan_cache_entries,
            )
        self.pool = ThreadPoolExecutor(
            max_workers=len(self.dataset.descriptor.storage.nodes),
            thread_name_prefix="ledger-node",
        )

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    # -- the blocking path ---------------------------------------------------

    def run(self, qid: str, sql: str, detail: bool = False):
        """Answer one query through spans; returns its table."""
        log, service = self.log, self.service
        with log.span("query", qid) as root:
            rid = root["id"]
            with log.span("sql.parse", qid, rid):
                query = self.dataset.resolve_query(sql)
            served = key = plan = exec_plan = None
            if self.cache is not None:
                with log.span("cache.key", qid, rid):
                    key, needed = self.cache.key_and_needed(query)
                with log.span("cache.serve", qid, rid) as span:
                    served = self.cache.serve(
                        key, query, needed, service.filtering, IOStats(),
                        mode=self.options.cache_mode,
                        vectorize=self.options.vectorize == "on",
                    )
                    span["kind"] = served.kind if served else "miss"
            if served is not None:
                table = served.table
            else:
                with log.span("planner.plan", qid, rid):
                    if self.cache is not None:
                        plan = self.cache.plan_for(query, key)
                        exec_plan = (
                            plan if plan.aggregate is not None
                            else widen_plan(plan)
                        )
                    else:
                        plan = exec_plan = self.dataset.plan(query)
                partials, bytes_read = self._fan_out(qid, rid, exec_plan)
                with log.span("query_service.merge", qid, rid):
                    table = concat_tables(partials)
                spec = exec_plan.aggregate
                if spec is not None:
                    with log.span("aggregate.merge", qid, rid):
                        state = merge_partials(spec, [table], exec_plan.dtypes)
                    with log.span("aggregate.finalize", qid, rid):
                        table = finalize(spec, state, exec_plan.dtypes)
                if self.cache is not None:
                    with log.span("cache.store", qid, rid):
                        self.cache.store(
                            key, table, bytes_read, len(plan.afcs)
                        )
                    table = project(table, plan.output)
            if self.options.remote:
                with log.span("mover.deliver", qid, rid):
                    service.mover.move(
                        table, RoundRobinPartitioner(),
                        self.options.num_clients, IOStats(),
                    )
        if detail:
            self._details(qid, rid, query, exec_plan)
        return table

    def _fan_out(self, qid: str, rid: int, plan):
        by_node = _by_node(plan)
        stats = {node: IOStats() for node in by_node}

        with self.log.span("query_service.fanout", qid, rid) as fan:

            def one(node: str):
                with self.log.span(self.node_span, qid, fan["id"], node=node):
                    return self.service.transport.execute_node(
                        node, plan, by_node[node], stats[node],
                        options=self.options,
                    )

            if self.options.parallel and len(by_node) > 1:
                partials = list(self.pool.map(one, by_node))
            else:
                partials = [one(node) for node in by_node]
        return partials, sum(s.bytes_read for s in stats.values())

    # -- stages inside those calls, timed on their own -----------------------

    def _details(self, qid: str, rid: int, query, plan) -> None:
        log, service = self.log, self.service

        def off(name: str, **tags):
            return log.span(name, qid, rid, path=False, **tags)

        with off("sql.typecheck"):
            typecheck_query(
                self.dataset.descriptor, query,
                service.filtering.functions, Collector(),
            )
        with off("sql.rewrite"):
            rewritten, _ = rewrite_query(query)
        with off("index.lookup"):
            self.dataset.index(extract_ranges(rewritten.where))
        if plan is None:  # served from the result cache: no node work
            return
        if plan.where is not None:
            with off("kernels.compile"):
                FilteringService(service.filtering.functions).kernel_for(
                    plan.where
                )
        # The unfiltered block: same chunks, every needed column, no WHERE.
        bare = dataclasses.replace(
            plan, where=None, output=list(plan.needed), aggregate=None
        )
        for node, afcs in _by_node(plan).items():
            source = self.local_transport.source(node)
            if self.remote:
                with off("data_source.execute", node=node):
                    partial = source.execute(
                        plan, afcs, IOStats(), options=self.options
                    )
            with off("extractor.extract", node=node):
                block = source.execute(
                    bare, afcs, IOStats(), options=self.options
                )
            columns = {n: block.column(n) for n in block.column_names}
            filtered = IOStats()
            with off("kernels.filter", node=node):
                selected = service.filtering.apply(
                    plan.where, columns, plan.output, block.num_rows,
                    filtered, vectorize=self.options.vectorize == "on",
                )
            if plan.aggregate is not None:
                with off("aggregate.partial", node=node):
                    partial_aggregate(
                        plan.aggregate, selected or {},
                        filtered.rows_output, plan.dtypes,
                    )
            if not self.remote:
                partial = source.execute(
                    plan, afcs, IOStats(), options=self.options
                )
            with off("wire.plan_encode", node=node) as span:
                request = json.dumps(encode_plan(plan, afcs)).encode()
                span["bytes"] = len(request)
            with off("wire.plan_decode", node=node):
                decode_plan(json.loads(request))
            with off("wire.table_encode", node=node) as span:
                payload = encode_table(partial)
                span["bytes"] = len(payload)
            with off("wire.table_decode", node=node):
                decode_table(payload)


def trace_rounds(
    pipeline: Pipeline, workload, seed: int, smoke: bool,
    first_round: int, rounds: int, warm: int = 0, check=None,
) -> None:
    """``warm`` unrecorded rounds (filling the pipeline's own result
    cache), then ``rounds`` traced ones.  ``check(sql, table)`` sees the
    first traced round's tables, after their spans closed."""
    for offset in range(warm + rounds):
        rnd = first_round + offset
        if offset == warm:
            pipeline.log.spans.clear()  # spans of warm rounds are dropped
        for i, sql in enumerate(workload.queries(seed, rnd, smoke)):
            table = pipeline.run(
                f"r{rnd}q{i}", sql,
                detail=offset == warm and i < DETAIL_QUERIES,
            )
            if check is not None and offset == warm:
                check(sql, table)


def blocking_path(log: SpanLog) -> Dict[str, List[float]]:
    """Per query, from its on-path spans: ``root`` duration, ``layers``
    (every stage call on the blocking path — the slowest node stands for
    the fan-out) and ``gap`` (the share of the root that no child span
    covers: glue in the benchmark's own pipeline).  All times in ms."""
    children: Dict[int, List[Dict[str, object]]] = {}
    for s in log.spans:
        if s["path"] and s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def ms(span) -> float:
        return (span["end"] - span["start"]) * 1e3

    out: Dict[str, List[float]] = {"root": [], "layers": [], "gap": []}
    for root in log.spans:
        if root["name"] != "query":
            continue
        stages = children.get(root["id"], [])
        covered = sum(ms(s) for s in stages)
        layer_ms = 0.0
        for stage in stages:
            nodes = children.get(stage["id"])
            layer_ms += max(map(ms, nodes)) if nodes else ms(stage)
        out["root"].append(ms(root))
        out["layers"].append(layer_ms)
        out["gap"].append(1.0 - covered / ms(root))
    return out


def setup_stages(descriptor: str, scratch_dir: str) -> Dict[str, float]:
    """What ``connect`` pays before the first query, stage by stage (ms)."""

    def timed(fn) -> float:
        samples = []
        for _ in range(STAGE_REPEATS):
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1e3)
        return probes.median(samples)

    cache_dir = tempfile.mkdtemp(prefix="codegen-", dir=scratch_dir)
    try:
        GeneratedDataset(descriptor, cache_dir=cache_dir)  # populate
        return {
            "metadata.parse_ms": timed(lambda: parse_descriptor(descriptor)),
            "codegen.compile_ms": timed(lambda: GeneratedDataset(descriptor)),
            "codegen.cached_load_ms": timed(
                lambda: GeneratedDataset(descriptor, cache_dir=cache_dir)
            ),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def ping_ms(client) -> float:
    """Median PING round trip over the cluster's nodes (0 for local)."""
    transport = client.service.transport
    if transport.scheme != "tcp":
        return 0.0
    samples = []
    for node in transport.node_names:
        for _ in range(STAGE_REPEATS):
            start = time.perf_counter()
            transport.ping(node)
            samples.append((time.perf_counter() - start) * 1e3)
    return probes.median(samples)


def layer_metrics(
    log: SpanLog, remote: bool, submit_p50: float
) -> Dict[str, float]:
    """Per-query medians of the span log, under the catalogue's names.
    ``submit_p50`` is the untraced ``QueryService.submit`` median (ms)
    the traced pipeline is compared with."""

    def node_stat(name: str, reduce) -> float:
        return _med(log.per_query(name, reduce))

    def tag_sum(name: str, tag: str) -> float:
        grouped: Dict[str, int] = {}
        for s in log.spans:
            if s["name"] == name:
                grouped[s["qid"]] = grouped.get(s["qid"], 0) + s[tag]
        return _med(list(grouped.values()))

    m = {
        "sql.parse_ms": _med(log.ms("sql.parse")),
        "sql.typecheck_ms": _med(log.ms("sql.typecheck")),
        "sql.rewrite_ms": _med(log.ms("sql.rewrite")),
        "planner.plan_ms": _med(log.ms("planner.plan")),
        "index.lookup_ms": _med(log.ms("index.lookup")),
        "query_service.merge_ms": _med(log.ms("query_service.merge")),
        "data_source.execute_max_ms": node_stat("data_source.execute", max),
        "data_source.execute_sum_ms": node_stat("data_source.execute", sum),
        "extractor.extract_ms": node_stat("extractor.extract", sum),
        "kernels.filter_ms": node_stat("kernels.filter", sum),
        "kernels.compile_ms": _med(log.ms("kernels.compile")),
        "aggregate.partial_ms": node_stat("aggregate.partial", sum),
        "aggregate.merge_ms": _med(log.ms("aggregate.merge")),
        "aggregate.finalize_ms": _med(log.ms("aggregate.finalize")),
        "cache.key_ms": _med(log.ms("cache.key")),
        "cache.serve_exact_ms": _med(log.ms("cache.serve", kind="exact")),
        "cache.serve_subsume_ms": _med(log.ms("cache.serve", kind="subsume")),
        "cache.store_ms": _med(log.ms("cache.store")),
        "mover.deliver_ms": _med(log.ms("mover.deliver")),
        "wire.plan_encode_ms": node_stat("wire.plan_encode", sum),
        "wire.plan_decode_ms": node_stat("wire.plan_decode", sum),
        "wire.plan_bytes": tag_sum("wire.plan_encode", "bytes"),
        "wire.table_encode_ms": node_stat("wire.table_encode", sum),
        "wire.table_decode_ms": node_stat("wire.table_decode", sum),
        "wire.table_bytes": tag_sum("wire.table_encode", "bytes"),
        "net.rpc_ms": node_stat("net.rpc", max),
    }
    path = blocking_path(log)
    m["client.traced_p50_ms"] = _med(path["root"])
    m["client.ledger_gap_frac"] = _med(path["gap"])
    m["client.tracing_overhead_frac"] = (
        m["client.traced_p50_ms"] / submit_p50 - 1.0
    )
    # What submit spends outside the stage calls on its blocking path
    # (resolve, plan, slowest node, merge, deliver, cache, aggregate).
    m["query_service.overhead_ms"] = submit_p50 - _med(path["layers"])
    m["net.rpc_overhead_ms"] = (
        m["net.rpc_ms"] - m["data_source.execute_max_ms"] if remote else 0.0
    )
    return m
