"""Names, units and directions of every metric the ledger reports.

``BENCHMARK.json`` is generated from (and self-tested against) these
tables; later issues cite the names verbatim.  A gated end-to-end metric
carries the bound by which it may worsen before a change is a regression;
per-layer metrics are reported, never gated.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, default bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.15),
    ("query_p50_ms", "ms", "lower", 0.10),
    ("queries_per_s", "1/s", "higher", 0.10),
    ("cpu_ms_per_query", "ms", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    # sql
    ("sql.parse_ms", "ms", "lower"),
    ("sql.typecheck_ms", "ms", "lower"),
    ("sql.rewrite_ms", "ms", "lower"),
    # core.planner / index
    ("planner.plan_ms", "ms", "lower"),
    ("index.lookup_ms", "ms", "lower"),
    ("planner.afcs_per_query", "count", "lower"),
    ("index.afcs_pruned_frac", "ratio", "higher"),
    # sched
    ("sched.overhead_ms", "ms", "lower"),
    ("sched.wait_ms", "ms", "lower"),
    # storm.query_service
    ("query_service.submit_ms", "ms", "lower"),
    ("query_service.overhead_ms", "ms", "lower"),
    ("query_service.merge_ms", "ms", "lower"),
    # storm.data_source / core.extractor
    ("data_source.execute_max_ms", "ms", "lower"),
    ("data_source.execute_sum_ms", "ms", "lower"),
    ("extractor.extract_ms", "ms", "lower"),
    ("extractor.bytes_read", "bytes", "lower"),
    ("extractor.read_calls", "count", "lower"),
    ("extractor.reads_coalesced", "count", "higher"),
    ("extractor.readahead_waste_frac", "ratio", "lower"),
    ("extractor.segment_hit_ratio", "ratio", "higher"),
    ("extractor.rows_extracted", "count", "lower"),
    # core.kernels / storm.filtering
    ("kernels.filter_ms", "ms", "lower"),
    ("kernels.compile_ms", "ms", "lower"),
    ("kernels.rows_in", "count", "lower"),
    ("kernels.selectivity", "ratio", "lower"),
    ("kernels.rows_vectorized", "count", "higher"),
    # core.aggregate
    ("aggregate.partial_ms", "ms", "lower"),
    ("aggregate.merge_ms", "ms", "lower"),
    ("aggregate.finalize_ms", "ms", "lower"),
    ("aggregate.groups", "count", "lower"),
    ("aggregate.rows_aggregated", "count", "lower"),
    # cache
    ("cache.key_ms", "ms", "lower"),
    ("cache.serve_exact_ms", "ms", "lower"),
    ("cache.serve_subsume_ms", "ms", "lower"),
    ("cache.store_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.subsume_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.rows_refiltered", "count", "lower"),
    ("cache.saved_bytes", "bytes", "higher"),
    # storm.mover / storm.partition
    ("mover.deliver_ms", "ms", "lower"),
    ("mover.bytes_sent", "bytes", "lower"),
    # net.wire / net.framing
    ("wire.plan_encode_ms", "ms", "lower"),
    ("wire.plan_decode_ms", "ms", "lower"),
    ("wire.plan_bytes", "bytes", "lower"),
    ("wire.table_encode_ms", "ms", "lower"),
    ("wire.table_decode_ms", "ms", "lower"),
    ("wire.table_bytes", "bytes", "lower"),
    # net.client / net.server
    ("net.rpc_ms", "ms", "lower"),
    ("net.rpc_overhead_ms", "ms", "lower"),
    ("net.ping_ms", "ms", "lower"),
    ("net.server_cpu_ms_per_query", "ms", "lower"),
    ("net.client_cpu_ms_per_query", "ms", "lower"),
    # set-up: metadata, core.codegen, net.procs
    ("metadata.parse_ms", "ms", "lower"),
    ("codegen.compile_ms", "ms", "lower"),
    ("codegen.cached_load_ms", "ms", "lower"),
    ("net.launch_s", "s", "lower"),
    ("net.connect_ms", "ms", "lower"),
    ("client.first_query_ms", "ms", "lower"),
    # client / audit
    ("client.query_p50_all_ms", "ms", "lower"),
    ("client.query_p90_ms", "ms", "lower"),
    ("client.query_p99_ms", "ms", "lower"),
    ("client.rows_per_s", "1/s", "higher"),
    ("client.result_mb_per_s", "MB/s", "higher"),
    ("client.traced_p50_ms", "ms", "lower"),
    ("client.tracing_overhead_frac", "ratio", "lower"),
    ("client.ledger_gap_frac", "ratio", "lower"),
    ("cost.sim_over_wall", "ratio", "lower"),
    ("datagen_s", "s", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
UNITS["samples"] = "count"
