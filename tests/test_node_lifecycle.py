"""A node server stops the moment it is told, whoever tells it.

Each case serves a request just before it stops the server, so a
server that only looks at its stop flag between timed-out ``accept``
calls (every accepted connection restarts such a clock) misses the
bound: in-thread :class:`~repro.net.server.NodeServer` stopped by
``shutdown()`` from another thread, by a SHUTDOWN frame, and by a
``shutdown()`` that lands before ``serve_forever`` runs; a
:class:`~repro.net.ProcessCluster` torn down after a query; and a
``repro serve`` process sent SIGTERM.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core import CompiledDataset, local_mount
from repro.datasets import IparsConfig, ipars
from repro.datasets.paper_example import PAPER_DESCRIPTOR
from repro.net import ProcessCluster, framing
from repro.net.server import NodeServer
from tests.conftest import assert_tables_equal

#: How long an in-thread server may take to stop, and a node process.
THREAD_STOP_S = 0.25
PROCESS_STOP_S = 0.3

TWO_NODES = IparsConfig(num_rels=2, num_times=6, cells_per_node=16, num_nodes=2)
SQL = "SELECT REL, TIME, X, SOIL FROM IparsData WHERE TIME > 2"


def ping(address) -> None:
    """One PING answered by PONG on a fresh connection."""
    with socket.create_connection(address, timeout=10) as sock:
        framing.write_frame(sock, framing.PING)
        kind, _ = framing.read_frame(sock)
    assert kind == framing.PONG


def refused(address) -> bool:
    try:
        socket.create_connection(address, timeout=10).close()
    except ConnectionRefusedError:
        return True
    return False


@pytest.fixture
def server(tmp_path):
    """A NodeServer of the paper's dataset, not yet serving (no request
    here reads data, so its root stays empty)."""
    node = NodeServer("osu0", str(tmp_path), CompiledDataset(PAPER_DESCRIPTOR))
    yield node
    node.close()


def start(server: NodeServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def assert_stops(thread: threading.Thread, since: float, address) -> None:
    thread.join(timeout=THREAD_STOP_S - (time.perf_counter() - since))
    assert not thread.is_alive(), f"serve_forever outlived {THREAD_STOP_S}s"
    assert refused(address)


class TestInThreadServer:
    def test_shutdown_from_another_thread(self, server):
        address = server.address
        thread = start(server)
        ping(address)
        since = time.perf_counter()
        server.shutdown()
        assert_stops(thread, since, address)

    def test_shutdown_frame(self, server):
        address = server.address
        thread = start(server)
        ping(address)
        with socket.create_connection(address, timeout=10) as sock:
            since = time.perf_counter()
            framing.write_frame(sock, framing.SHUTDOWN)
            kind, _ = framing.read_frame(sock)
        assert kind == framing.OK
        assert_stops(thread, since, address)

    def test_shutdown_before_serve_forever_starts(self, server):
        address = server.address
        since = time.perf_counter()
        server.shutdown()
        assert_stops(start(server), since, address)

    def test_shutdown_twice_and_after_close(self, server):
        thread = start(server)
        ping(server.address)
        server.shutdown()
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.shutdown()  # the socket is closed: nothing to wake


@pytest.fixture(scope="module")
def two_nodes(tmp_path_factory):
    root = tmp_path_factory.mktemp("lifecycle_two_nodes")
    text, _ = ipars.generate(TWO_NODES, "L0", local_mount(str(root)))
    return text, str(root)


def test_cluster_terminates_right_after_a_query(two_nodes):
    text, root = two_nodes
    with repro.connect(f"local://{root}", descriptor=text) as db:
        expected = db.query(SQL)
    cluster = ProcessCluster(text, root).launch()
    try:
        with cluster.connect() as db:
            assert_tables_equal(db.query(SQL), expected)
        procs = list(cluster._procs.values())
        addresses = list(cluster.addresses.values())
        since = time.perf_counter()
        cluster.terminate()
        took = time.perf_counter() - since
    finally:
        cluster.terminate()
    assert took < PROCESS_STOP_S, f"terminate() took {took:.3f}s"
    assert [proc.returncode for proc in procs] == [0, 0]
    assert all(refused(address) for address in addresses)


def test_serve_exits_0_on_sigterm_and_stops_listening(two_nodes, tmp_path):
    text, root = two_nodes
    descriptor = tmp_path / "ipars.desc"
    descriptor.write_text(text)
    port_file = tmp_path / "osu0.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(repro.__file__)),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(descriptor),
         "--root", root, "--node", "osu0", "--port", "0",
         "--port-file", str(port_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no port file after 30s"
            time.sleep(0.02)
        host, port = port_file.read_text().split()
        address = (host, int(port))
        ping(address)
        since = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        status = proc.wait(timeout=10)
        took = time.perf_counter() - since
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert status == 0
    assert took < PROCESS_STOP_S, f"SIGTERM to exit took {took:.3f}s"
    assert refused(address)
