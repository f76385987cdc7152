"""Command-line interface: the administrator's side of data virtualization.

The paper's workflow has a data-repository administrator writing a
descriptor and standing up data services from it.  This CLI covers that
workflow end to end::

    python -m repro validate  DESC.txt            # parse + semantic checks
    python -m repro check     DESC.txt --query "SELECT ..." --strict  # linter
    python -m repro inventory DESC.txt --root D --check   # files vs disk
    python -m repro codegen   DESC.txt -o gen.py  # inspect generated code
    python -m repro index-build DESC.txt --root D # build chunk summaries
    python -m repro query     DESC.txt "SELECT ..." --root D --format csv
    python -m repro cache stats DESC.txt --root D --query "SELECT ..." --repeat 3
    python -m repro sched stats DESC.txt --root D --query "bulk=SELECT ..." \
        --query "web:2=SELECT ..." --workers 2
    python -m repro trace     DESC.txt "SELECT ..." --root D -o trace.json
    python -m repro chaos     DESC.txt "SELECT ..." --root D --profile node-down
    python -m repro serve     DESC.txt --root D --node osu0 --port 7301
    python -m repro cluster   DESC.txt "SELECT ..." --root D
    python -m repro explain   DESC.txt "SELECT ..."
    python -m repro to-xml    DESC.txt            # XML embedding
    python -m repro from-xml  DESC.xml            # ...and back

``serve`` runs one data-source node as a standalone TCP server;
``cluster`` spawns one server per storage node, runs the query through
``repro.connect`` over real sockets, and tears the processes down.
Every command reads the descriptor from a file (or ``-`` for stdin).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .core.codegen import (
    GeneratedDataset,
    compile_descriptor,
    generate_index_source,
)
from .core.extractor import local_mount
from .core.planner import CompiledDataset
from .core.virtualizer import Virtualizer
from .errors import ReproError
from .index.summaries import (
    MinMaxSummaries,
    build_summaries,
    load_sidecar_summaries,
    summaries_path,
)
from .metadata import parse_descriptor, read_descriptor
from .metadata.xml_io import descriptor_to_xml, xml_to_descriptor


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _load_descriptor(path: str, dataset: Optional[str]):
    return read_descriptor(_read_text(path), dataset)


class _UsageError(Exception):
    """A command-line value no command can run with (exit 2)."""


#: ``ExecOptions`` fields the execution flags set: each flag's ``dest``.
_EXEC_FIELDS = (
    "num_clients", "remote", "retries", "retry_backoff", "node_timeout",
    "allow_partial", "connect_timeout", "agg_pushdown", "vectorize",
)


def _add_exec_flags(p, resilience: bool = False, ablations: bool = False):
    """The execution flags ``trace``, ``chaos`` and ``cluster`` share;
    each flag's ``dest`` is the ExecOptions field it sets."""
    p.add_argument("--clients", dest="num_clients", type=int, default=1,
                   help="number of destination clients for partitioning")
    p.add_argument("--local", dest="remote", action="store_false",
                   help="co-located client: skip partition/mover stages")
    if resilience:
        p.add_argument("--retries", type=int, default=2,
                       help="retries per failed node (default 2)")
        p.add_argument("--backoff", dest="retry_backoff", type=float,
                       default=0.01,
                       help="base retry backoff seconds, doubling per "
                            "retry (default 0.01)")
        p.add_argument("--node-timeout", type=float,
                       help="seconds before one extraction attempt is "
                            "abandoned as hung")
        p.add_argument("--no-partial", dest="allow_partial",
                       action="store_false",
                       help="fail the query instead of returning a "
                            "degraded result when a node is lost")
    if ablations:
        p.add_argument("--no-agg-pushdown", dest="agg_pushdown",
                       action="store_false",
                       help="aggregate at the coordinator instead of per "
                            "node (ablation; ships every filtered row)")
        p.add_argument("--no-vectorize", dest="vectorize",
                       action="store_const", const="off", default="on",
                       help="interpret the WHERE per block instead of the "
                            "compiled batch kernel (ablation; identical "
                            "rows)")


def _exec_options(args, **extra):
    """The ExecOptions the execution flags ask for, plus ``extra``; a
    value ExecOptions refuses is a usage error."""
    from .core.options import ExecOptions

    fields = {name: getattr(args, name) for name in _EXEC_FIELDS
              if hasattr(args, name)}
    try:
        return ExecOptions(**fields, **extra)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_validate(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = CompiledDataset(descriptor)
    print(f"descriptor OK: dataset {descriptor.name!r}")
    print(f"  schema {descriptor.schema.name!r}: "
          f"{len(descriptor.schema)} attributes "
          f"({', '.join(descriptor.schema.names)})")
    print(f"  storage: {len(descriptor.storage)} directories on nodes "
          f"{', '.join(descriptor.storage.nodes)}")
    print(f"  leaves: {', '.join(l.name for l in descriptor.leaves())}")
    print(f"  physical files: {len(dataset.files)}; "
          f"consistent groups: {len(dataset.groups)}")
    print(f"  index attributes: {', '.join(dataset.index_attrs) or '(none)'}"
          + (f" (stored: {', '.join(dataset.stored_index_attrs)})"
             if dataset.stored_index_attrs else ""))
    print(f"  expected data size: {dataset.total_data_bytes:,} bytes")
    for warning in dataset.warnings:
        print(f"  warning: {warning}")
    return 0


def cmd_check(args) -> int:
    """Static analysis: every descriptor (and query) finding at once.

    Exit codes: 0 clean, 1 any error, 3 warnings-only under ``--strict``
    (without ``--strict`` a warnings-only run still exits 0).
    """
    from .diag import Collector, analyze_query, lint_descriptor, lint_text
    from .metadata.xml_io import xml_to_descriptor as _from_xml

    text = _read_text(args.descriptor)
    source = args.descriptor if args.descriptor != "-" else "<stdin>"
    if text.lstrip().startswith("<"):
        # XML embedding: no source spans, but all semantic analyzers run.
        descriptor = _from_xml(text, args.dataset)
        collector = lint_descriptor(descriptor, Collector(source=source))
    else:
        collector = lint_text(text, args.dataset, source=source)
        descriptor = None
        if not collector.has_errors:
            descriptor = parse_descriptor(text, args.dataset, validate=False)

    for sql in args.query or []:
        if descriptor is None:
            print(
                f"note: skipping query analysis of {sql!r} "
                "(descriptor has errors)",
                file=sys.stderr,
            )
            continue
        query_collector = analyze_query(
            descriptor, sql, explain=getattr(args, "explain", False)
        )
        collector.extend(query_collector)

    if args.format == "json":
        print(collector.to_json())
    elif args.format == "sarif":
        print(collector.to_sarif())
    else:
        for diag in collector.sorted():
            print(diag.format())
        print(collector.summary())

    if collector.has_errors:
        return 1
    if args.strict and collector.warnings:
        return 3
    return 0


def cmd_inventory(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = CompiledDataset(descriptor)
    mount = local_mount(args.root) if args.root else None
    problems = 0
    for file in dataset.files:
        implicit = ", ".join(
            f"{k}={v}" for k, v in sorted(file.env.items())
        )
        line = (f"{file.node}:{file.relpath}  {file.expected_size:>12,} B"
                f"  [{implicit}]")
        if args.check:
            if mount is None:
                print("error: --check requires --root", file=sys.stderr)
                return 2
            path = mount(file.node, file.relpath)
            if not os.path.exists(path):
                line += "  MISSING"
                problems += 1
            else:
                actual = os.path.getsize(path)
                if actual != file.expected_size:
                    line += f"  SIZE MISMATCH (actual {actual:,} B)"
                    problems += 1
                else:
                    line += "  ok"
        print(line)
    if args.check:
        total = len(dataset.files)
        print(f"\n{total - problems}/{total} files match the descriptor")
        return 1 if problems else 0
    return 0


def cmd_codegen(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    source = generate_index_source(CompiledDataset(descriptor))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"wrote {len(source.splitlines())} lines to {args.output}")
    else:
        sys.stdout.write(source)
    return 0


def cmd_index_build(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = CompiledDataset(descriptor)
    mount = local_mount(args.root)
    summaries = build_summaries(dataset, mount)
    output = args.output or summaries_path(args.root, descriptor.name)
    summaries.save(output)
    print(f"built {len(summaries)} chunk summaries over attributes "
          f"{', '.join(summaries.attrs)} -> {output}")
    return 0


def _make_virtualizer(args) -> Virtualizer:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    return Virtualizer(
        descriptor,
        local_mount(args.root),
        use_codegen=not getattr(args, "interpreted", False),
        summaries=_load_summaries(args, descriptor),
    )


def _load_summaries(args, descriptor):
    """``--summaries FILE``, else the root's sidecar file, else None."""
    if getattr(args, "summaries", None):
        return MinMaxSummaries.load(args.summaries)
    return load_sidecar_summaries(args.root, descriptor.name)


def cmd_verify_data(args) -> int:
    """Recompute chunk summaries and diff them against the persisted file.

    A mismatch means the data changed (or was corrupted) after the index
    was built — the summaries would then prune incorrectly.
    """
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = CompiledDataset(descriptor)
    mount = local_mount(args.root)
    path = args.summaries or summaries_path(args.root, descriptor.name)
    if not os.path.exists(path):
        print(f"error: no summary file at {path}; run index-build first",
              file=sys.stderr)
        return 2
    persisted = MinMaxSummaries.load(path)
    fresh = build_summaries(dataset, mount)
    mismatches = 0
    checked = 0
    for key in fresh.keys():
        checked += 1
        old = persisted.bounds(key)
        if old is None:
            print(f"MISSING summary for chunk {key}")
            mismatches += 1
            continue
        for attr, (lo, hi) in fresh.bounds(key).items():
            if attr not in old or not (
                _same_bound(old[attr][0], lo) and _same_bound(old[attr][1], hi)
            ):
                print(f"STALE  {key} {attr}: stored {old.get(attr)} "
                      f"!= actual ({lo}, {hi})")
                mismatches += 1
    # Orphans are keys persisted but not recomputed; counting by length
    # alone lets a missing chunk and a stale key cancel out.
    orphans = sum(1 for key in persisted.keys() if key not in fresh)
    print(f"checked {checked} chunks: {mismatches} mismatch(es)"
          + (f", {orphans} orphaned summaries" if orphans else ""))
    return 1 if mismatches or orphans else 0


def _same_bound(stored, actual) -> bool:
    """Whether a persisted bound, cast to the fresh bound's dtype, is
    that bound exactly (NaN equal to NaN): any other difference prunes
    some query differently."""
    with np.errstate(invalid="ignore", over="ignore"):
        cast = np.array(stored).astype(actual.dtype)
    return bool(cast == actual or (cast != cast and actual != actual))


def cmd_query(args) -> int:
    with _make_virtualizer(args) as v:
        table = v.query(args.sql)
        if args.format == "csv":
            table.to_csv(sys.stdout, limit=args.limit)
        elif args.format == "npz":
            if not args.output:
                print("error: --format npz requires -o", file=sys.stderr)
                return 2
            table.save_npz(args.output)
            print(f"wrote {table.num_rows} rows to {args.output}")
        else:
            widths = [max(len(n), 12) for n in table.column_names]
            print("  ".join(n.rjust(w) for n, w in
                            zip(table.column_names, widths)))
            shown = 0
            for row in table.rows():
                if args.limit is not None and shown >= args.limit:
                    print(f"... {table.num_rows - shown} more rows")
                    break
                print("  ".join(str(v)[:w].rjust(w)
                                for v, w in zip(row, widths)))
                shown += 1
            print(f"({table.num_rows} rows)")
    return 0


def cmd_cache(args) -> int:
    """Exercise the result/plan caches and report their counters.

    ``stats`` runs the given queries (each ``--repeat`` times) with
    caching enabled and prints the cache counters plus the bytes of disk
    I/O the warm runs avoided.  ``clear`` additionally drops the caches
    afterwards and prints the reset counters — the ``drop_caches``
    invalidation path, observable from the shell.
    """
    from .core.options import ExecOptions
    from .core.stats import IOStats

    if not args.query:
        print("error: pass at least one --query to exercise the cache",
              file=sys.stderr)
        return 2
    options = ExecOptions(
        cache_mode=args.mode,
        result_cache_bytes=args.cache_bytes,
        trace=False,
    )
    with _make_virtualizer(args) as v:
        stats = IOStats()
        for round_no in range(args.repeat):
            for sql in args.query:
                table = v.query(sql, stats=stats, options=options)
                print(f"round {round_no + 1}: {table.num_rows:>9} rows  {sql}")
        cache_stats = v.cache_stats() or {}
        result = cache_stats.get("result", {})
        plan = cache_stats.get("plan", {})
        print(f"\nresult cache: {result.get('entries', 0)} entries, "
              f"{result.get('bytes', 0):,} / {result.get('max_bytes', 0):,} B; "
              f"{result.get('hits', 0)} exact + "
              f"{result.get('subsumption_hits', 0)} subsumption hit(s), "
              f"{result.get('misses', 0)} miss(es), "
              f"{result.get('evictions', 0)} eviction(s)")
        print(f"plan cache:   {plan.get('entries', 0)} entries, "
              f"{plan.get('hits', 0)} hit(s), {plan.get('misses', 0)} miss(es)")
        print(f"disk I/O avoided: {stats.cache_saved_bytes:,} B "
              f"(read {stats.bytes_read:,} B cold)")
        if args.action == "clear":
            v.drop_caches()
            cleared = (v.cache_stats() or {}).get("result", {})
            print(f"caches cleared: {cleared.get('entries', 0)} entries, "
                  f"{cleared.get('hits', 0)} hits, "
                  f"{cleared.get('misses', 0)} misses")
    return 0


def cmd_sched(args) -> int:
    """Run a workload through the scheduler and print its statistics.

    Each ``--query`` is ``[TENANT[:PRIORITY]=]SQL`` (default tenant
    ``"default"``, priority 0); the whole mix is submitted up front
    (``--repeat`` times), so queue waits reflect real contention on
    ``--workers`` dispatch lanes.  Prints one line per query (rows,
    queue wait) and then the scheduler's counters, per-tenant lanes,
    and abandoned-thread ledger.
    """
    import re

    from .core.options import ExecOptions
    from .errors import AdmissionError
    from .sched import Scheduler
    from .storm.cluster import VirtualCluster
    from .storm.query_service import QueryService

    if not args.query:
        print("error: pass at least one --query to schedule",
              file=sys.stderr)
        return 2
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = GeneratedDataset(descriptor)
    cluster = VirtualCluster.for_storage(args.root, descriptor.storage)
    spec_re = re.compile(
        r"^(?P<tenant>[A-Za-z_][\w.-]*)(?::(?P<prio>\d+))?=(?P<sql>.+)$"
    )
    jobs = []
    for raw in args.query:
        match = spec_re.match(raw)
        if match:
            jobs.append((match.group("tenant"),
                         int(match.group("prio") or 0),
                         match.group("sql")))
        else:
            jobs.append(("default", 0, raw))
    base = ExecOptions(remote=False, admission=args.admission,
                       admission_budget=args.budget)
    failed = 0
    with QueryService(dataset, cluster) as service:
        with Scheduler(service, workers=args.workers) as sched:
            handles = []
            for _ in range(args.repeat):
                for tenant, prio, sql in jobs:
                    opts = base.replace(tenant=tenant, priority=prio)
                    try:
                        handles.append(
                            (tenant, prio, sql, sched.submit(sql, opts))
                        )
                    except AdmissionError as exc:
                        failed += 1
                        print(f"{tenant:>10}/{prio} REJECTED  {exc}")
            for tenant, prio, sql, handle in handles:
                try:
                    result = handle.result()
                except ReproError as exc:
                    failed += 1
                    print(f"{tenant:>10}/{prio} FAILED    "
                          f"{type(exc).__name__}: {exc}")
                else:
                    wait_ms = (handle.wait_seconds or 0.0) * 1000
                    print(f"{tenant:>10}/{prio} {result.num_rows:>9} rows  "
                          f"wait {wait_ms:8.1f} ms  {sql[:60]}")
            stats = sched.stats()
    print(f"\nworkers: {stats['workers']} "
          f"({stats['reserved_priority_workers']} reserved for priority)")
    for name, value in sorted(stats["counters"].items()):
        print(f"  {name:<28} {value}")
    for tenant, lane in stats["tenants"].items():
        print(f"  lane {tenant:<12} weight {lane['weight']:g}  "
              f"vtime {lane['vtime']:.3f}")
    for tenant, hist in sorted(stats["wait_seconds"].items()):
        print(f"  wait[{tenant}]: n={hist['count']} "
              f"mean={hist['mean'] * 1000:.1f}ms "
              f"max={(hist['max'] or 0) * 1000:.1f}ms")
    print(f"  threads abandoned: {stats['threads_abandoned']}")
    return 1 if failed else 0


def cmd_trace(args) -> int:
    """Run a query with span tracing on and export the timeline.

    Writes a chrome://tracing / Perfetto-loadable JSON file and prints
    the span tree with wall/CPU time per pipeline stage.
    """
    from .obs import Tracer, tree_summary, write_chrome_trace
    from .storm.cluster import VirtualCluster
    from .storm.query_service import QueryService

    tracer = Tracer()
    options = _exec_options(args, trace=tracer)
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    summaries = _load_summaries(args, descriptor)
    if args.interpreted:
        dataset: CompiledDataset = CompiledDataset(descriptor, summaries)
    else:
        dataset = GeneratedDataset(descriptor, summaries)
    cluster = VirtualCluster.for_storage(args.root, descriptor.storage)
    with QueryService(dataset, cluster) as service:
        result = service.submit(args.sql, options)
    write_chrome_trace(tracer, args.output)
    print(tree_summary(tracer, min_fraction=args.min_percent / 100.0))
    print(result.summary())
    print(f"trace written to {args.output} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_chaos(args) -> int:
    """Run a query under a named fault profile and report the degradation.

    Exit codes: 0 = full result despite faults, 3 = degraded result
    (some nodes lost), 1 = query failed outright, 2 = no fault rules or
    an option value ExecOptions refuses.
    """
    from .errors import NodeFailureError
    from .faults import FaultInjector
    from .obs import Tracer
    from .storm.cluster import VirtualCluster
    from .storm.query_service import QueryService

    tracer = Tracer("chaos")
    options = _exec_options(args, trace=tracer)
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    if args.interpreted:
        dataset: CompiledDataset = CompiledDataset(descriptor)
    else:
        dataset = GeneratedDataset(descriptor)
    cluster = VirtualCluster.for_storage(args.root, descriptor.storage)
    rules = _chaos_rules(args, cluster.node_names)
    if not rules:
        print("error: no fault rules; pass --profile and/or --rule",
              file=sys.stderr)
        return 2
    injector = FaultInjector(rules, seed=args.seed)
    named = f" profile {args.profile!r}" if args.profile else ""
    print(f"chaos:{named} {len(rules)} rule(s), seed {args.seed}, "
          f"retries {options.retries}, backoff {options.retry_backoff:g}s"
          + (f", node timeout {options.node_timeout:g}s"
             if options.node_timeout else ""))
    try:
        with QueryService(dataset, cluster, fault_injector=injector) as service:
            result = service.submit(args.sql, options)
    except NodeFailureError as exc:
        print(injector.report())
        print(f"query FAILED: {exc}", file=sys.stderr)
        return 1
    counters = tracer.metrics.as_dict()["counters"]
    print(injector.report())
    print(f"retries attempted: {counters.get('retries.attempted', 0)}; "
          f"nodes failed: {counters.get('nodes.failed', 0)}")
    if result.degraded:
        print(f"DEGRADED result: lost {', '.join(result.failed_nodes)}; "
              f"{result.num_rows} rows from the surviving nodes")
    else:
        print(f"full result survived the fault profile: "
              f"{result.num_rows} rows")
    print(result.summary())
    return 3 if result.degraded else 0


def _chaos_rules(args, node_names):
    """Shared --profile/--rule parsing (chaos, serve, cluster)."""
    from .faults import parse_rule, profile_rules

    rules = []
    if args.profile:
        rules.extend(profile_rules(args.profile, node_names))
    for spec in args.rule or []:
        rules.append(parse_rule(spec))
    return rules


def cmd_serve(args) -> int:
    """Run one data-source node as a standalone TCP server.

    This is the out-of-process deployment of the paper's per-node data
    source service: the coordinator (``repro.connect("tcp://...")`` or
    ``repro cluster``) ships queries here over the wire protocol; the
    server compiles the descriptor, plans its own node's share with the
    generated index function (pruning by ``--summaries`` or the root's
    sidecar file, like ``repro query``) and sends columnar row batches
    back.  ``--port 0`` binds an
    ephemeral port; ``--port-file`` publishes the bound address for
    whoever spawned us.  Fault rules (``--profile`` / ``--rule``) are
    injected server-side — disk chaos and ``conn-reset`` live with the
    process that owns the data.

    SIGTERM calls :meth:`~repro.net.server.NodeServer.shutdown`, which
    wakes the blocked ``accept`` at once: the server closes its socket
    and the process exits 0 without waiting on any timeout.  A request
    in flight is not waited for; its connection dies with the process.
    """
    import signal

    from .faults import FaultInjector
    from .net.server import NodeServer

    dataset = compile_descriptor(_read_text(args.descriptor), args.dataset)
    descriptor = dataset.descriptor
    if args.node not in descriptor.storage.nodes:
        print(f"error: node {args.node!r} is not in the descriptor's "
              f"storage nodes {list(descriptor.storage.nodes)}",
              file=sys.stderr)
        return 2
    dataset.summaries = _load_summaries(args, descriptor)
    rules = _chaos_rules(args, [args.node])
    injector = FaultInjector(rules, seed=args.seed) if rules else None
    server = NodeServer(
        args.node,
        args.root,
        dataset=dataset,
        fault_injector=injector,
        host=args.host,
        port=args.port,
    )
    # Before the port file: whoever reads it may SIGTERM at once, and
    # a shutdown that lands before serve_forever still stops it.
    signal.signal(signal.SIGTERM, lambda *_: server.shutdown())
    if args.port_file:
        server.write_port_file(args.port_file)
    host, port = server.address
    print(f"node {args.node!r} of dataset {descriptor.name!r} serving on "
          f"{host}:{port}" + (f" with {len(rules)} fault rule(s)"
                              if rules else ""),
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def cmd_cluster(args) -> int:
    """Spawn a real node-server process per storage node and query it.

    The full out-of-process STORM path: ``repro serve`` subprocesses,
    discovery over port files, ``repro.connect("tcp://...")``, one query
    through the failure-aware pipeline, teardown.  Exit codes match
    ``chaos``: 0 full result, 3 degraded result, 1 failed query.
    """
    from .client import connect
    from .errors import NodeFailureError
    from .net.procs import ProcessCluster
    from .obs import Tracer, write_chrome_trace

    tracer = Tracer("cluster")
    options = _exec_options(args, trace=tracer)
    cluster = ProcessCluster(
        args.descriptor if args.descriptor != "-" else _read_text("-"),
        args.root,
        rules=args.rule or [],
        profile=args.profile,
        seed=args.seed,
        startup_timeout=args.startup_timeout,
    )
    with cluster:
        addresses = ", ".join(
            f"{node}={host}:{port}"
            for node, (host, port) in sorted(cluster.addresses.items())
        )
        print(f"cluster up: {len(cluster.nodes)} node process(es) "
              f"({addresses})")
        try:
            with connect(cluster, options=options) as client:
                result = client.submit(args.sql)
        except NodeFailureError as exc:
            print(f"query FAILED: {exc}", file=sys.stderr)
            return 1
    if args.trace_out:
        write_chrome_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out}")
    if result.degraded:
        print(f"DEGRADED result: lost {', '.join(result.failed_nodes)}; "
              f"{result.num_rows} rows from the surviving nodes")
    else:
        print(f"full result: {result.num_rows} rows over real sockets")
    print(result.summary())
    return 3 if result.degraded else 0


def cmd_explain(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    dataset = GeneratedDataset(descriptor)
    print(dataset.explain(args.sql))
    return 0


def cmd_to_xml(args) -> int:
    descriptor = _load_descriptor(args.descriptor, args.dataset)
    sys.stdout.write(descriptor_to_xml(descriptor))
    sys.stdout.write("\n")
    return 0


def cmd_from_xml(args) -> int:
    descriptor = xml_to_descriptor(_read_text(args.descriptor), args.dataset)
    print(descriptor.schema.to_text())
    print(descriptor.storage.to_text())
    print(f"// layout: {len(descriptor.leaves())} leaf dataset(s); "
          "re-serialise with to-xml")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic data virtualization for flat-file datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, root=False):
        p.add_argument("descriptor", help="descriptor file (text or XML, - for stdin)")
        p.add_argument("--dataset", help="dataset name when several are declared")
        if root:
            p.add_argument("--root", required=True,
                           help="virtual cluster root directory")

    p = sub.add_parser("validate", help="parse and validate a descriptor")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "check",
        help="lint a descriptor (and optionally queries) with the "
        "static analyzers",
    )
    common(p)
    p.add_argument("--query", action="append", metavar="SQL",
                   help="also analyze this query against the descriptor; "
                        "repeatable")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when there are warnings (errors always "
                        "exit 1)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="diagnostic output format (default text); sarif "
                        "emits a SARIF 2.1.0 log for CI annotations")
    p.add_argument("--explain", action="store_true",
                   help="also report each equivalence-preserving rewrite "
                        "the normalizer applies to --query predicates "
                        "(RW4xx audit entries)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("inventory", help="list the descriptor's physical files")
    common(p)
    p.add_argument("--root", help="cluster root (for --check)")
    p.add_argument("--check", action="store_true",
                   help="verify files exist with the expected sizes")
    p.set_defaults(func=cmd_inventory)

    p = sub.add_parser("codegen", help="emit the generated index module")
    common(p)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_codegen)

    p = sub.add_parser("index-build", help="build and persist chunk summaries")
    common(p, root=True)
    p.add_argument("-o", "--output", help="summary file path")
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser(
        "verify-data",
        help="recompute chunk summaries and diff against the stored index",
    )
    common(p, root=True)
    p.add_argument("--summaries", help="summary file (default: sidecar)")
    p.set_defaults(func=cmd_verify_data)

    p = sub.add_parser("query", help="run a SQL query")
    common(p, root=True)
    p.add_argument("sql", help="SELECT ... FROM ... [WHERE ...]")
    p.add_argument("--limit", type=int, help="print at most N rows")
    p.add_argument("--format", choices=["table", "csv", "npz"],
                   default="table")
    p.add_argument("-o", "--output", help="output file for --format npz")
    p.add_argument("--summaries", help="chunk summary file to prune with")
    p.add_argument("--interpreted", action="store_true",
                   help="use the interpreted planner instead of codegen")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "cache",
        help="run queries against the result/plan caches and report counters",
    )
    p.add_argument("action", choices=["stats", "clear"],
                   help="stats: run the workload and print cache counters; "
                        "clear: also drop the caches and show the reset")
    common(p, root=True)
    p.add_argument("--query", action="append", metavar="SQL",
                   help="query to run; repeatable (the workload)")
    p.add_argument("--repeat", type=int, default=2,
                   help="how many times to run the whole workload "
                        "(default 2: one cold round, one warm)")
    p.add_argument("--mode", choices=["exact", "subsume"], default="subsume",
                   help="cache mode (default subsume)")
    p.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                   help="result cache budget in bytes (default 64 MiB)")
    p.add_argument("--summaries", help="chunk summary file to prune with")
    p.add_argument("--interpreted", action="store_true",
                   help="use the interpreted planner instead of codegen")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "sched",
        help="run a workload through the scheduler and print its stats",
    )
    p.add_argument("action", choices=["stats"],
                   help="stats: submit the workload and print queue/"
                        "admission/wait statistics")
    common(p, root=True)
    p.add_argument("--query", action="append",
                   metavar="[TENANT[:PRIO]=]SQL",
                   help="query to schedule, optionally tagged with a "
                        "tenant and priority; repeatable (the workload)")
    p.add_argument("--repeat", type=int, default=1,
                   help="submit the whole workload N times (default 1)")
    p.add_argument("--workers", type=int, default=2,
                   help="scheduler dispatch workers (default 2)")
    p.add_argument("--budget", type=float, default=None,
                   help="admission budget in simulated seconds "
                        "(default: no admission control)")
    p.add_argument("--admission", choices=["reject", "queue"],
                   default="reject",
                   help="over-budget handling (default reject)")
    p.set_defaults(func=cmd_sched)

    p = sub.add_parser(
        "trace", help="run a query with tracing and export the timeline"
    )
    common(p, root=True)
    p.add_argument("sql", help="SELECT ... FROM ... [WHERE ...]")
    p.add_argument("-o", "--output", default="trace.json",
                   help="chrome-trace JSON output path (default trace.json)")
    _add_exec_flags(p, ablations=True)
    p.add_argument("--min-percent", type=float, default=1.0,
                   help="hide spans below this %% of total time in the "
                        "printed tree (0 shows everything; the JSON always "
                        "has all spans)")
    p.add_argument("--summaries", help="chunk summary file to prune with")
    p.add_argument("--interpreted", action="store_true",
                   help="use the interpreted planner instead of codegen")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="run a query under a fault profile and report the degradation",
    )
    common(p, root=True)
    p.add_argument("sql", help="SELECT ... FROM ... [WHERE ...]")
    p.add_argument("--profile",
                   help="named fault profile (node-down, flaky-open, "
                        "flaky-reads, slow-node, tail-failure)")
    p.add_argument("--rule", action="append",
                   help="extra fault rule kind[:node[:path[:key=val,...]]]; "
                        "repeatable")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection RNG seed (default 0)")
    _add_exec_flags(p, resilience=True)
    p.add_argument("--interpreted", action="store_true",
                   help="use the interpreted planner instead of codegen")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run one data-source node as a standalone TCP server",
    )
    common(p, root=True)
    p.add_argument("--node", required=True,
                   help="storage node this server owns (e.g. osu0)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port; 0 picks an ephemeral port (default)")
    p.add_argument("--port-file",
                   help="write the bound 'host port' here for discovery")
    p.add_argument("--summaries",
                   help="chunk summary file to prune with (default: the "
                        "root's sidecar file, if present)")
    p.add_argument("--profile",
                   help="server-side fault profile (node-down, flaky-open, "
                        "flaky-reads, slow-node, tail-failure)")
    p.add_argument("--rule", action="append",
                   help="server-side fault rule "
                        "kind[:node[:path[:key=val,...]]]; repeatable "
                        "(conn-reset:osu0 drops connections mid-response)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection RNG seed (default 0)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="spawn a node-server process per storage node and run a "
        "query over real sockets",
    )
    common(p, root=True)
    p.add_argument("sql", help="SELECT ... FROM ... [WHERE ...]")
    p.add_argument("--profile",
                   help="fault profile injected into every node server")
    p.add_argument("--rule", action="append",
                   help="fault rule forwarded to every node server; "
                        "repeatable")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection RNG seed (default 0)")
    _add_exec_flags(p, resilience=True, ablations=True)
    p.add_argument("--connect-timeout", type=float, default=5.0,
                   help="seconds one TCP dial may take (default 5)")
    p.add_argument("--startup-timeout", type=float, default=30.0,
                   help="seconds to wait for all node servers to bind "
                        "(default 30)")
    p.add_argument("--trace-out",
                   help="also write a chrome-trace JSON of the run here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("explain", help="show the plan for a query")
    common(p)
    p.add_argument("sql")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("to-xml", help="serialise a descriptor to XML")
    common(p)
    p.set_defaults(func=cmd_to_xml)

    p = sub.add_parser("from-xml", help="summarise an XML descriptor")
    common(p)
    p.set_defaults(func=cmd_from_xml)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
