"""Out-of-process STORM: the wire protocol and network transports.

The paper's STORM middleware is a client/server system — "the query
service is the entry point for clients ... data source services provide a
view of a dataset" (Section 2.3) — with the services on different
machines.  This package makes that split real: data-source nodes run as
separate OS processes (:class:`NodeServer`, the ``repro serve`` CLI)
speaking a small length-prefixed protocol (:mod:`~repro.net.framing`),
queries travel out as text — each node server plans its own share with
the generated index function — and result batches come back as raw
columnar buffers (:mod:`~repro.net.wire`), and the coordinator's worker
threads speak the same protocol over pooled blocking sockets
(:class:`TcpTransport`).

:class:`ProcessCluster` spawns and tears down an N-process cluster for
tests, benchmarks, and the ``repro cluster`` CLI.  The unified client
entry point over both the in-process and out-of-process paths is
:func:`repro.connect`.
"""

from .client import TcpTransport
from .procs import ProcessCluster
from .server import NodeServer

__all__ = ["NodeServer", "ProcessCluster", "TcpTransport"]
