"""Asyncio daemon under concurrency: stress, dedup, client robustness.

PR-6 satellites, all against :class:`AsyncServiceServer` (the asyncio
front end) over real sockets:

* 500+ interleaved submit/poll/fetch client conversations against one
  daemon instance, checking the 202/404/409 API contract holds under
  load and every submission completes;
* bounded-queue backpressure (429) under concurrent submission bursts,
  with the daemon staying healthy throughout;
* thundering herd: many clients concurrently submitting *identical*
  bytes cause exactly one pipeline execution — everyone else is served
  from the content-addressed artifact store;
* two threads spooling identical inline bytes, both temp files written
  before either rename, both succeed and leave no temp file behind;
* ``FleetReport.merge()`` of partitioned runs equals the
  single-run report modulo runtime fields;
* the :class:`ServiceClient` robustness contract — a daemon that
  accepts connections but never answers raises after ``read_timeout``
  instead of blocking forever, and 429s are retried with bounded
  backoff.
"""

import base64
import os
import socket
import threading
import time

import pytest

from repro.core.fleet import FleetAnalyzer, FleetReport
from repro.core.pipeline import pipeline_runs
from repro.corpus import ProgramBuilder, make_debian_corpus
from repro.service import (
    AnalysisService,
    AsyncServiceServer,
    ServiceClient,
    ServiceError,
)
from repro.service.client import MAX_BACKOFF_SECONDS
from repro.x86 import EAX, RDI


def _program_bytes(nr: int) -> bytes:
    p = ProgramBuilder(f"async-{nr}")
    with p.function("_start"):
        p.asm.mov(EAX, nr)
        p.asm.syscall()
        p.asm.mov(EAX, 60)
        p.asm.xor(RDI, RDI)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build().elf_bytes


@pytest.fixture(scope="module")
def payloads():
    # distinct first syscalls -> distinct bytes -> distinct cache keys
    return {nr: _program_bytes(nr) for nr in (0, 1, 2, 3, 9, 12, 21, 39)}


class TestStress:
    N_THREADS = 25
    CONVERSATIONS_EACH = 20  # 25 x 20 = 500 client conversations

    def test_500_interleaved_conversations(self, tmp_path, payloads):
        service = AnalysisService(
            str(tmp_path / "state"), workers=2, queue_size=64,
        )
        server = AsyncServiceServer(service, port=0)
        server.start()
        numbers = sorted(payloads)
        outcomes = {"done": 0, "not_found": 0, "not_ready": 0}
        errors: list[str] = []
        lock = threading.Lock()

        def conversation(thread_index: int, turn: int) -> None:
            client = ServiceClient(server.url, timeout=60.0)
            nr = numbers[(thread_index + turn) % len(numbers)]
            job = client.submit_bytes(f"stress-{nr}", payloads[nr])
            assert job["status"] in ("queued", "running", "done")
            if turn % 5 == 0:
                # a result fetched before completion must 409, never
                # block or 500; after completion it must serve
                try:
                    client.report(job["id"])
                except ServiceError as error:
                    assert error.status == 409, error
                    with lock:
                        outcomes["not_ready"] += 1
            if turn % 7 == 0:
                try:
                    client.job("job-does-not-exist")
                except ServiceError as error:
                    assert error.status == 404, error
                    with lock:
                        outcomes["not_found"] += 1
            done = client.wait(job["id"], timeout=60.0, poll=0.02)
            assert done["status"] == "done", done.get("error", "")
            report = client.report(job["id"])
            assert nr in report["syscalls"] and 60 in report["syscalls"]
            with lock:
                outcomes["done"] += 1

        def client_main(thread_index: int) -> None:
            for turn in range(self.CONVERSATIONS_EACH):
                try:
                    conversation(thread_index, turn)
                except Exception as error:  # surfaced collectively below
                    with lock:
                        errors.append(f"t{thread_index}/{turn}: {error!r}")

        threads = [
            threading.Thread(target=client_main, args=(i,), daemon=True)
            for i in range(self.N_THREADS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(240.0)
        finally:
            server.stop()

        assert not errors, errors[:10]
        assert outcomes["done"] == self.N_THREADS * self.CONVERSATIONS_EACH
        assert outcomes["not_found"] > 0
        # the daemon survived 500 conversations; stats still coherent
        assert outcomes["done"] >= 500

    def test_backpressure_429_under_burst(self, tmp_path, payloads):
        """A full queue answers 429 (with Retry-After) under a
        concurrent burst, and the daemon keeps serving afterwards."""
        service = AnalysisService(
            str(tmp_path / "state"),
            queue_size=2,
            shared=True, dispatcher=False,  # nothing drains the queue
        )
        server = AsyncServiceServer(service, port=0)
        server.start(executor=False)
        rejected = []
        accepted = []
        lock = threading.Lock()

        def submit_one(index: int) -> None:
            client = ServiceClient(server.url, timeout=10.0, retries=0)
            blob = payloads[sorted(payloads)[index % len(payloads)]]
            try:
                job = client.submit_bytes(f"burst-{index}", blob)
                with lock:
                    accepted.append(job["id"])
            except ServiceError as error:
                assert error.status == 429, error
                with lock:
                    rejected.append(index)

        threads = [
            threading.Thread(target=submit_one, args=(i,), daemon=True)
            for i in range(12)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert len(accepted) == 2, "queue admitted more than capacity"
            assert len(rejected) == 10
            # the daemon is still alive and coherent after the burst
            client = ServiceClient(server.url, timeout=10.0)
            assert client.health()["status"] == "ok"
            assert client.stats()["queue"]["rejected"] >= 10
        finally:
            server.stop()


class TestThunderingHerd:
    def test_identical_bytes_analyzed_once(self, tmp_path, payloads):
        """20 concurrent submissions of the same binary: one pipeline
        execution, nineteen cache-served results, all identical."""
        service = AnalysisService(
            str(tmp_path / "state"), workers=2, queue_size=64,
        )
        server = AsyncServiceServer(service, port=0)
        server.start()
        blob = payloads[39]
        results: list[dict] = []
        errors: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(20)

        def herd_member(index: int) -> None:
            client = ServiceClient(server.url, timeout=60.0)
            barrier.wait()
            try:
                job = client.submit_bytes("herd-app", blob)
                done = client.wait(job["id"], timeout=60.0, poll=0.02)
                assert done["status"] == "done"
                with lock:
                    results.append(client.report(job["id"]))
            except Exception as error:
                with lock:
                    errors.append(repr(error))

        runs_before = pipeline_runs()
        threads = [
            threading.Thread(target=herd_member, args=(i,), daemon=True)
            for i in range(20)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            server.stop()

        assert not errors, errors[:5]
        assert len(results) == 20
        assert pipeline_runs() - runs_before == 1, (
            "identical bytes must be analyzed exactly once"
        )
        first = results[0]
        assert all(r["syscalls"] == first["syscalls"] for r in results)


class TestSpoolRace:
    def test_concurrent_identical_spools_both_succeed(
        self, tmp_path, monkeypatch,
    ):
        """Front-end handler threads spool identical uploads at once;
        each writer needs its own temp name, or the second rename finds
        the shared temp file already consumed."""
        from repro.service import executor

        service = AnalysisService(str(tmp_path / "state"))
        payload = b"\x7fELF-spool-race" * 64
        # Both writers reach the rename only after both temp files exist.
        barrier = threading.Barrier(2, timeout=10.0)
        real_replace = os.replace

        def gated_replace(src, dst):
            barrier.wait()
            return real_replace(src, dst)

        monkeypatch.setattr(executor.os, "replace", gated_replace)
        paths: list[str] = []
        errors: list[str] = []

        def writer() -> None:
            spec = {
                "binary_b64": base64.b64encode(payload).decode(),
                "name": "race.bin",
            }
            try:
                paths.append(service._spool(spec))
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        monkeypatch.undo()

        assert not errors, errors
        assert len(paths) == 2 and paths[0] == paths[1]
        with open(paths[0], "rb") as f:
            assert f.read() == payload
        assert [n for n in os.listdir(service.spool_dir) if ".tmp." in n] \
            == []


class TestFleetReportMerge:
    def test_merged_partitions_equal_single_run(self, tmp_path):
        corpus = make_debian_corpus(scale=0.04, seed=23)
        images = [b.image for b in corpus.binaries]
        assert len(images) >= 3

        single = FleetAnalyzer(
            resolver=corpus.make_resolver(),
            cache_dir=str(tmp_path / "cache-single"),
        ).analyze_images(images)

        # partition into three "workers", each with its own cache
        parts = [images[0::3], images[1::3], images[2::3]]
        shards = [
            FleetAnalyzer(
                resolver=corpus.make_resolver(),
                cache_dir=str(tmp_path / f"cache-{i}"),
            ).analyze_images(part)
            for i, part in enumerate(parts) if part
        ]
        merged = FleetReport.merge(shards)

        # merge() canonicalizes entry order by name; put the single run
        # through the same canonicalization before comparing
        assert merged.to_json(include_runtime=False) == \
            FleetReport.merge([single]).to_json(include_runtime=False)
        # runtime fields (timings, per-run cache counters) may differ —
        # that is exactly why they are excluded from the canonical form
        assert len(merged.entries) == len(single.entries)


class _HungServer:
    """Accepts TCP connections and never sends a byte."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self._accepted: list[socket.socket] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        self.sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
                self._accepted.append(conn)  # hold open, stay silent
            except socket.timeout:
                continue
            except OSError:
                return

    def close(self):
        self._stop.set()
        self._thread.join(2.0)
        for conn in self._accepted:
            conn.close()
        self.sock.close()


class _FlakyServer:
    """Answers 429 (with Retry-After) n times, then 200."""

    def __init__(self, reject_first: int):
        self.reject_first = reject_first
        self.requests = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                try:
                    conn.recv(65536)
                except OSError:
                    continue
                self.requests += 1
                if self.requests <= self.reject_first:
                    body = b'{"error": "queue full"}'
                    head = (
                        "HTTP/1.1 429 Too Many Requests\r\n"
                        "Content-Type: application/json\r\n"
                        "Retry-After: 1\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: close\r\n\r\n"
                    )
                else:
                    body = b'{"ok": true}'
                    head = (
                        "HTTP/1.1 200 OK\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: close\r\n\r\n"
                    )
                try:
                    conn.sendall(head.encode() + body)
                except OSError:
                    continue

    def close(self):
        self.sock.close()


class TestClientRobustness:
    def test_hung_socket_raises_after_read_timeout(self):
        """The satellite fix: a daemon that accepts but never answers
        must raise, not block the caller forever."""
        hung = _HungServer()
        client = ServiceClient(
            f"http://127.0.0.1:{hung.port}", read_timeout=0.3,
            connect_timeout=2.0, retries=0,
        )
        try:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            elapsed = time.monotonic() - t0
        finally:
            hung.close()
        assert excinfo.value.status == 0
        assert "timed out" in str(excinfo.value)
        assert elapsed < 5.0, "read timeout did not bound the wait"

    def test_unreachable_daemon_raises_transport_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=2.0, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "cannot reach" in str(excinfo.value)

    def test_429_retried_with_backoff_until_success(self):
        flaky = _FlakyServer(reject_first=2)
        client = ServiceClient(
            f"http://127.0.0.1:{flaky.port}",
            timeout=5.0, retries=3, backoff=0.01,
        )
        try:
            assert client.request("GET", "/v1/healthz") == {"ok": True}
            assert flaky.requests == 3  # 2 rejections + 1 success
        finally:
            flaky.close()

    def test_429_raises_once_retries_exhausted(self):
        flaky = _FlakyServer(reject_first=100)
        client = ServiceClient(
            f"http://127.0.0.1:{flaky.port}",
            timeout=5.0, retries=2, backoff=0.01,
        )
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/v1/healthz")
            assert excinfo.value.status == 429
            assert flaky.requests == 3  # initial try + 2 retries
        finally:
            flaky.close()

    def test_retry_delay_is_bounded(self):
        client = ServiceClient("http://127.0.0.1:1", backoff=0.1)
        # exponential growth and huge Retry-After are both capped
        assert client._retry_delay(0, None) == pytest.approx(0.1)
        assert client._retry_delay(1, None) == pytest.approx(0.2)
        assert client._retry_delay(30, None) == MAX_BACKOFF_SECONDS
        assert client._retry_delay(0, "99999") == MAX_BACKOFF_SECONDS
        assert client._retry_delay(0, "not-a-number") == pytest.approx(0.1)
