"""End-to-end tests of the asyncio front door (``svc-repro serve``).

The async front door is the only one, so these tests pin its specific
contracts: the full line-JSON op surface, one stalled
connection never blocking the event loop, typed sheds under failpoints,
and kill -9 recovery equal to the oracle replay of the surviving journal.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.service.client import OverloadedError, ServiceClient
from repro.service.codec import network_state_to_dict
from repro.service.journal import DurabilityStore
from repro.service.recovery import oracle_replay, recover_manager
from repro.topology import TINY_SPEC, build_datacenter

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def spawn_async_server(extra_args=(), journal_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--scale",
        "tiny",
        "--workers",
        "2",
    ]
    if journal_dir is not None:
        argv += ["--journal-dir", str(journal_dir)]
    argv += list(extra_args)
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )


def read_ready(proc, timeout=30.0):
    result = {}

    def reader():
        line = proc.stdout.readline()
        if line:
            result.update(json.loads(line))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if not result:
        proc.kill()
        pytest.fail("async server did not print a ready line in time")
    return result


def reap(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(30)


class TestAsyncProtocol:
    def test_full_op_surface_over_one_connection(self):
        proc = spawn_async_server(
            ["--batch-max", "8", "--tenant-quota", "64", "--tenant-weight", "gold=3"]
        )
        try:
            ready = read_ready(proc)
            assert ready["frontend"] == "async"
            with ServiceClient(port=ready["port"], timeout=15) as client:
                assert client.ping()
                reply = client.submit(
                    HomogeneousSVC(n_vms=3, mean=60.0, std=20.0), tenant="gold"
                )
                assert reply["outcome"] == "admitted"
                assert client.status(reply["ticket"])["outcome"] == "admitted"
                stats = client.stats()
                assert stats["batching"]["batch_max"] == 8
                assert stats["tenants"]["quota"] == 64
                assert stats["tenants"]["weights"]["gold"] == 3
                metrics = client.metrics()
                assert "repro_service_batch_size" in metrics["prometheus"]
                assert client.release(reply["request_id"])["released"] == (
                    reply["request_id"]
                )
                client.shutdown()
            assert proc.wait(30) == 0
        finally:
            reap(proc)

    def test_malformed_lines_do_not_kill_the_connection(self):
        proc = spawn_async_server()
        try:
            ready = read_ready(proc)
            import socket

            with socket.create_connection(("127.0.0.1", ready["port"]), 10) as sock:
                handle = sock.makefile("rw")
                handle.write("{not json\n")
                handle.flush()
                assert json.loads(handle.readline())["ok"] is False
                handle.write(json.dumps({"op": "nope"}) + "\n")
                handle.flush()
                assert "unknown op" in json.loads(handle.readline())["error"]
                handle.write(json.dumps({"op": "ping"}) + "\n")
                handle.flush()
                assert json.loads(handle.readline())["pong"] is True
                handle.write(json.dumps({"op": "shutdown"}) + "\n")
                handle.flush()
                assert json.loads(handle.readline())["bye"] is True
            assert proc.wait(30) == 0
        finally:
            reap(proc)


class TestAsyncFailpoints:
    def test_stalled_connection_does_not_block_the_loop(self):
        # One response stalls for 2s; a second connection's ping must still
        # answer immediately, proving the stall pins that connection only.
        proc = spawn_async_server(
            ["--failpoints", "server.response_stall=delay:delay_s=2.0:max_hits=1"]
        )
        try:
            port = read_ready(proc)["port"]
            stalled = ServiceClient(port=port, timeout=15)
            stall_done = []

            def stalled_ping():
                stalled.ping()  # consumes the one delayed hit
                stall_done.append(time.monotonic())

            thread = threading.Thread(target=stalled_ping)
            started = time.monotonic()
            thread.start()
            time.sleep(0.3)  # let the stalled response enter the failpoint
            with ServiceClient(port=port, timeout=15) as other:
                assert other.ping()
                unstalled_elapsed = time.monotonic() - started
            thread.join(30)
            stalled.close()
            assert stall_done, "stalled ping never completed"
            assert stall_done[0] - started >= 1.5, "failpoint never stalled"
            assert unstalled_elapsed < 1.5, (
                "second connection waited out the stall: event loop blocked"
            )
            with ServiceClient(port=port, timeout=15) as client:
                client.shutdown()
            assert proc.wait(30) == 0
        finally:
            reap(proc)

    def test_queue_shed_failpoint_surfaces_typed_error(self):
        proc = spawn_async_server(
            ["--failpoints", "queue.accept=shed:max_hits=1"]
        )
        try:
            port = read_ready(proc)["port"]
            with ServiceClient(port=port, timeout=15) as client:
                with pytest.raises(OverloadedError) as excinfo:
                    client.submit(HomogeneousSVC(n_vms=2, mean=40.0, std=10.0))
                assert excinfo.value.retry_after is not None
                # The shed was injected once; the service itself is healthy.
                reply = client.submit(HomogeneousSVC(n_vms=2, mean=40.0, std=10.0))
                assert reply["outcome"] == "admitted"
                client.shutdown()
            assert proc.wait(30) == 0
        finally:
            reap(proc)


class TestAsyncKillRecovery:
    def test_kill_nine_then_oracle_recovery(self, tmp_path):
        journal_dir = tmp_path / "journal"
        proc = spawn_async_server(["--batch-max", "8"], journal_dir=journal_dir)
        try:
            port = read_ready(proc)["port"]
            admitted = []
            with ServiceClient(port=port, timeout=15) as client:
                for index in range(40):
                    request = (
                        HomogeneousSVC(n_vms=2 + index % 3, mean=70.0, std=25.0)
                        if index % 2
                        else DeterministicVC(n_vms=2, bandwidth=80.0)
                    )
                    reply = client.submit(request, tenant=f"t{index % 3}")
                    if reply.get("outcome") == "admitted":
                        admitted.append(reply["request_id"])
                    if len(admitted) > 5 and index % 4 == 0:
                        client.release(admitted.pop(0))
            proc.send_signal(signal.SIGKILL)
            proc.wait(30)
        finally:
            reap(proc)

        tree = build_datacenter(TINY_SPEC)
        store = DurabilityStore(journal_dir)
        recovered, report = recover_manager(store, tree)
        store.close()
        oracle_state, oracle_active = oracle_replay(journal_dir / "wal.jsonl", tree)
        assert network_state_to_dict(recovered.state) == (
            network_state_to_dict(oracle_state)
        )
        assert sorted(t.request_id for t in recovered.tenancies()) == (
            sorted(oracle_active)
        )
        assert report.last_seq > 0
