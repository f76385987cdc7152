"""Spawn and tear down an N-process node cluster on this machine.

``repro cluster``, the real-process benchmarks, and the e2e tests all
need the same choreography: one ``repro serve`` subprocess per storage
node, port discovery, readiness waiting, and reliable teardown.
:class:`ProcessCluster` owns it.

Servers bind port 0 and publish their concrete address through a *port
file* (written atomically, see ``NodeServer.write_port_file``), so N
servers can start in parallel with no port races.  Each server's stderr
goes to ``<root>/_cluster/<node>.log`` for post-mortems.  Teardown sends
SIGTERM and escalates to SIGKILL; :meth:`kill_node` takes one node down
mid-run for chaos tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError


def _repro_src_dir() -> str:
    """The directory to put on PYTHONPATH so children import this repro."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class ProcessCluster:
    """An N-process STORM cluster: one ``repro serve`` per storage node."""

    def __init__(
        self,
        descriptor: str,
        root: str,
        nodes: Optional[Sequence[str]] = None,
        host: str = "127.0.0.1",
        rules: Sequence[str] = (),
        profile: Optional[str] = None,
        seed: int = 0,
        startup_timeout: float = 30.0,
        python: Optional[str] = None,
    ):
        """``descriptor`` is a path to a descriptor file, or descriptor
        text (written to ``<root>/_cluster/descriptor.desc``).  ``nodes``
        defaults to the storage nodes the descriptor names.  ``rules`` /
        ``profile`` / ``seed`` forward fault injection to every server
        (`repro serve --rule/--profile/--seed`): chaos lives with the
        process that owns the disk.
        """
        self.root = os.path.abspath(root)
        self.host = host
        self.rules = list(rules)
        self.profile = profile
        self.seed = seed
        self.startup_timeout = startup_timeout
        self.python = python or sys.executable
        self._dir = os.path.join(self.root, "_cluster")
        os.makedirs(self._dir, exist_ok=True)

        if os.path.exists(descriptor) and "\n" not in descriptor:
            self.descriptor_path = os.path.abspath(descriptor)
            with open(self.descriptor_path) as handle:
                self.descriptor_text = handle.read()
        else:
            self.descriptor_text = descriptor
            self.descriptor_path = os.path.join(self._dir, "descriptor.desc")
            with open(self.descriptor_path, "w") as handle:
                handle.write(descriptor)

        if nodes is None:
            # The compile a connect to this cluster reuses.
            from ..core.codegen import compile_descriptor

            nodes = compile_descriptor(self.descriptor_text).descriptor.storage.nodes
        self.nodes: List[str] = list(nodes)
        self._procs: Dict[str, subprocess.Popen] = {}
        self._logs: Dict[str, str] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}

    # -- lifecycle -----------------------------------------------------------

    def launch(self) -> "ProcessCluster":
        """Start every node server and wait until all are reachable."""
        if self._procs:
            raise ClusterError("cluster already launched")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_repro_src_dir(), env.get("PYTHONPATH")) if p
        )
        port_files = {}
        for node in self.nodes:
            port_file = os.path.join(self._dir, f"{node}.port")
            if os.path.exists(port_file):
                os.remove(port_file)
            port_files[node] = port_file
            log_path = os.path.join(self._dir, f"{node}.log")
            self._logs[node] = log_path
            command = [
                self.python, "-m", "repro", "serve", self.descriptor_path,
                "--root", self.root, "--node", node,
                "--host", self.host, "--port", "0",
                "--port-file", port_file,
                "--seed", str(self.seed),
            ]
            if self.profile:
                command += ["--profile", self.profile]
            for rule in self.rules:
                command += ["--rule", rule]
            log = open(log_path, "w")
            self._procs[node] = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
            log.close()
        try:
            self._await_ports(port_files)
        except BaseException:
            self.terminate()
            raise
        return self

    def _await_ports(self, port_files: Dict[str, str]) -> None:
        deadline = time.monotonic() + self.startup_timeout
        pending = dict(port_files)
        while pending:
            for node, path in list(pending.items()):
                proc = self._procs[node]
                if proc.poll() is not None:
                    raise ClusterError(
                        f"node server {node!r} exited with status "
                        f"{proc.returncode} before binding; see "
                        f"{self._logs[node]}:\n{self._tail(node)}"
                    )
                if os.path.exists(path):
                    with open(path) as handle:
                        text = handle.read().split()
                    if len(text) == 2:
                        pending.pop(node)
                        self.addresses[node] = (text[0], int(text[1]))
            if pending and time.monotonic() > deadline:
                raise ClusterError(
                    f"node server(s) {sorted(pending)} not up after "
                    f"{self.startup_timeout:g}s"
                )
            if pending:
                time.sleep(0.02)

    def _tail(self, node: str, lines: int = 15) -> str:
        try:
            with open(self._logs[node]) as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return "<no log>"

    @property
    def url(self) -> str:
        """The ``tcp://host:port,host:port`` URL of the running cluster."""
        if not self.addresses:
            raise ClusterError("cluster not launched")
        return "tcp://" + ",".join(
            f"{host}:{port}"
            for node, (host, port) in sorted(self.addresses.items())
        )

    def connect(self, **options):
        """A :class:`repro.client.Client` over this cluster."""
        from ..client import connect

        return connect(self, **options)

    # -- chaos / teardown ----------------------------------------------------

    def kill_node(self, node: str) -> None:
        """SIGKILL one node server mid-run (a machine dropping off)."""
        proc = self._procs.get(node)
        if proc is None:
            raise ClusterError(f"unknown or never-launched node {node!r}")
        proc.kill()
        proc.wait(timeout=10)

    def alive(self) -> Dict[str, bool]:
        return {
            node: proc.poll() is None for node, proc in self._procs.items()
        }

    def terminate(self) -> None:
        """Stop every server: SIGTERM, then SIGKILL after a grace period."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self._procs.clear()
        self.addresses.clear()

    def __enter__(self) -> "ProcessCluster":
        if not self._procs:
            self.launch()
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()

    def __repr__(self) -> str:
        state = "up" if self.addresses else "down"
        return (
            f"<ProcessCluster {len(self.nodes)} node(s) at {self.root!r} "
            f"[{state}]>"
        )
