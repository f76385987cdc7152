"""``repro.connect``: one client API over both STORM deployments.

The query pipeline is identical whether the data-source services run in
this process (the original simulation) or as real node-server processes
reached over TCP (:mod:`repro.net`); only the transport differs.
:func:`connect` hides that choice behind a URL::

    import repro

    # In-process: node directories under one root.
    with repro.connect("local:///data/ipars", descriptor=desc) as db:
        table = db.query("SELECT X, Y FROM IparsData WHERE TIME > 100")

    # Real processes: node servers started with `repro serve` (or
    # `repro cluster`, or net.ProcessCluster).
    with repro.connect("tcp://127.0.0.1:7301,127.0.0.1:7302",
                       descriptor=desc) as db:
        table = db.query("SELECT X, Y FROM IparsData WHERE TIME > 100")

A :class:`Client` answers ``query`` (a table), ``submit`` (the full
:class:`~repro.storm.query_service.QueryResult`), and ``query_iter``
(batches), all through the same failure-aware
:class:`~repro.storm.query_service.QueryService` — retries, timeouts,
degraded results, tracing, and the result cache apply unchanged on both
transports.  ``connect`` is the preferred front door.  The two others
run the same staged pipeline (:mod:`repro.core.pipeline`) over the same
node driver (``Extractor.execute_parts``) and differ only in how a plan
is executed: ``QueryService.submit`` is what a ``Client`` calls (node
fan-out over a transport, node-grouped rows, the full
``QueryResult``), ``Virtualizer.query`` is the embedded single-process
form (one extractor over a mount, plan-order rows, ``query_iter`` that
truly streams).  Every stream is cut by one rule
(:func:`~repro.core.table.cut_blocks`): batches of exactly
``batch_rows`` rows, the last one shorter — a ``Client``'s slices of
the merged table, a ``Virtualizer``'s cut from the blocks as they are
produced.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Tuple

from .core.codegen import compile_descriptor, plan_identity
from .core.options import ExecOptions
from .core.table import VirtualTable, batched
from .errors import StormError
from .index.summaries import MinMaxSummaries, load_sidecar_summaries
from .sql.functions import FunctionRegistry
from .storm.cluster import VirtualCluster
from .storm.query_service import QueryResult, QueryService

__all__ = ["Client", "connect", "parse_url"]


def parse_url(url: str) -> Tuple[str, str]:
    """Split a transport URL into ``(scheme, rest)``.

    ``local://<root>`` and ``tcp://host:port[,host:port...]`` are the
    two supported schemes; a bare path is shorthand for ``local://``.
    """
    if "://" not in url:
        return ("local", url)
    scheme, _, rest = url.partition("://")
    if scheme not in ("local", "tcp"):
        raise StormError(
            f"unsupported transport scheme {scheme!r} in {url!r} "
            "(expected local:// or tcp://)"
        )
    return (scheme, rest)


def _parse_addresses(rest: str) -> List[Tuple[str, int]]:
    out = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        if not host or not port.isdigit():
            raise StormError(
                f"bad tcp:// address {part!r} (expected host:port)"
            )
        out.append((host, int(port)))
    if not out:
        raise StormError("tcp:// URL lists no addresses")
    return out


def _load_descriptor(descriptor: str) -> str:
    """Descriptor text, from text or a path to a descriptor file."""
    if "\n" not in descriptor and os.path.exists(descriptor):
        with open(descriptor) as handle:
            return handle.read()
    return descriptor


class Client:
    """A connected STORM endpoint; build with :func:`connect`."""

    def __init__(self, service: QueryService, options: ExecOptions, url: str):
        #: The underlying query service; benchmarks and tooling may use
        #: it directly (e.g. ``measure_storm(client.service, ...)``).
        self.service = service
        #: Base options from connect(); per-call options override them.
        self.options = options
        self.url = url
        self._closed = False
        self._scheduler = None
        self._scheduler_lock = threading.Lock()

    # -- querying ------------------------------------------------------------

    def _opts(self, options: Optional[ExecOptions]) -> ExecOptions:
        return options if options is not None else self.options

    @property
    def scheduler(self):
        """The client's :class:`~repro.sched.Scheduler`, built lazily.

        Every ``submit``/``query`` routes through it, so tenants,
        priorities, quotas, and cancellation work identically on the
        ``local://`` and ``tcp://`` transports — over TCP the client is
        the coordinator, so a process cluster gets the same fairness.
        Dispatch workers only start once a query actually queues: a
        ``submit`` with nothing queued ahead of it runs on the calling
        thread, and ``scheduler="off"`` queries run inline.
        """
        with self._scheduler_lock:
            if self._scheduler is None:
                from .sched import Scheduler

                self._scheduler = Scheduler(
                    self.service,
                    workers=self.options.scheduler_workers,
                )
            return self._scheduler

    def submit(
        self, sql, options: Optional[ExecOptions] = None
    ) -> QueryResult:
        """Run a query end-to-end; the full result with stats and trace."""
        return self.scheduler.run(sql, self._opts(options))

    def schedule(self, sql, options: Optional[ExecOptions] = None):
        """Queue a query without blocking; returns its
        :class:`~repro.sched.QueryHandle` (``.result()``, ``.cancel()``)."""
        return self.scheduler.submit(sql, self._opts(options))

    def query(
        self, sql, options: Optional[ExecOptions] = None
    ) -> VirtualTable:
        """Run a query; just the virtual table."""
        return self.submit(sql, options).table

    def query_iter(self, sql, options: Optional[ExecOptions] = None):
        """Run a query; yield the merged result in batches of exactly
        ``batch_rows`` rows, the last one shorter
        (:func:`~repro.core.table.batched`)."""
        opts = self._opts(options)
        return batched(self.submit(sql, opts).table, opts.batch_rows)

    # -- management ----------------------------------------------------------

    @property
    def transport(self):
        return self.service.transport

    @property
    def node_names(self) -> List[str]:
        transport = self.service.transport
        names = getattr(transport, "node_names", None)
        if names is not None:
            return list(names)
        return list(self.service.cluster.node_names)

    def drop_caches(self) -> None:
        """Cold-start every cache, including remote node servers'."""
        self.service.drop_caches()

    def cache_stats(self):
        return self.service.cache_stats()

    def sched_stats(self):
        """Scheduler queue/admission/wait metrics (``repro sched stats``)."""
        return self.scheduler.stats()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            with self._scheduler_lock:
                scheduler, self._scheduler = self._scheduler, None
            if scheduler is not None:
                scheduler.close()
            self.service.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Client {self.url!r} [{state}]>"


def connect(
    target,
    descriptor: Optional[str] = None,
    *,
    options: Optional[ExecOptions] = None,
    functions: Optional[FunctionRegistry] = None,
    fault_injector=None,
    summaries: Optional[MinMaxSummaries] = None,
    **exec_options,
) -> Client:
    """Open a :class:`Client` for a ``local://`` or ``tcp://`` endpoint.

    ``target`` is a URL (``local://<root>``, ``tcp://host:port,...``), a
    bare directory path (treated as ``local://``), or a running
    :class:`~repro.net.procs.ProcessCluster`.  ``descriptor`` (text or a
    file path) is required for URLs — the coordinator plans from it; a
    ProcessCluster carries its own.  It is compiled once per process
    (:func:`~repro.core.codegen.compile_descriptor`): connects of one
    text share that compile, and each client gets a dataset of its own
    over it.  Remaining keyword arguments are
    :class:`~repro.core.options.ExecOptions` fields forming the
    client-wide defaults, e.g. ``connect(url, desc, retries=2,
    allow_partial=True)``; pass ``options=`` to supply a prebuilt
    ExecOptions instead (the two are mutually exclusive).

    ``summaries`` are the chunk summaries the coordinator prunes by
    (``MinMaxSummaries.load(path)``).  Over ``tcp://`` every node server
    plans its own share of each query, so both sides must prune alike:
    pass the summaries the servers load (``repro serve`` picks up the
    root's sidecar file) or connect is refused.  A ProcessCluster
    target defaults to its root's sidecar file, as its servers do.

    ``fault_injector`` applies coordinator-side on both transports
    (mounts and mover locally; connection dialing over tcp).  Node
    servers own their disk/response chaos via ``repro serve``'s
    ``--rule`` flags.
    """
    if options is not None and exec_options:
        raise StormError(
            "pass either options=ExecOptions(...) or individual "
            "ExecOptions fields, not both"
        )
    opts = options if options is not None else ExecOptions(**exec_options)

    # A ProcessCluster (duck-typed: url + descriptor_text) brings its
    # own descriptor and addresses.
    cluster_descriptor = getattr(target, "descriptor_text", None)
    if cluster_descriptor is not None:
        url = target.url
        if descriptor is None:
            descriptor = cluster_descriptor
    else:
        url = str(target)
    if descriptor is None:
        raise StormError(
            "connect() needs the dataset descriptor (text or path) to plan"
        )
    dataset = compile_descriptor(_load_descriptor(descriptor), summaries=summaries)
    if summaries is None and cluster_descriptor is not None:
        dataset.summaries = load_sidecar_summaries(
            target.root, dataset.descriptor.name
        )

    scheme, rest = parse_url(url)
    if scheme == "local":
        if not rest:
            raise StormError("local:// URL names no root directory")
        cluster = VirtualCluster.for_storage(
            rest, dataset.descriptor.storage
        )
        service = QueryService(
            dataset,
            cluster,
            functions=functions,
            fault_injector=fault_injector,
        )
        return Client(service, opts, url)

    from .net.client import TcpTransport

    transport = TcpTransport(
        _parse_addresses(rest),
        options=opts,
        fault_injector=fault_injector,
        expected=plan_identity(dataset),
    )
    missing = set(dataset.descriptor.storage.nodes) - set(
        transport.node_names
    )
    if missing:
        transport.close()
        raise StormError(
            f"cluster at {url!r} serves no node(s) {sorted(missing)} "
            f"required by dataset {dataset.descriptor.name!r}"
        )
    service = QueryService(
        dataset,
        functions=functions,
        fault_injector=fault_injector,
        transport=transport,
    )
    return Client(service, opts, url)
