"""Fault-injection suite: the distributed service tier under failure.

PR-6 satellite — proves the lease-based multi-worker queue's crash
story end to end:

* a worker killed mid-batch loses nothing: its leases expire, a
  survivor re-claims the jobs, and every submission completes;
* corrupt state (a damaged job record, a damaged cache shard entry) is
  quarantined-and-continued, never a daemon crash, and surfaced via
  ``/v1/stats``;
* the expired-lease double-claim race resolves to exactly-one
  execution: the claim-file ``O_EXCL`` arbitration plus the
  ``owns_lease`` persistence guard mean zero lost and zero
  double-executed jobs;
* a long-poll on the front end sees a job that a worker process
  finishes, though no finish is announced across processes.

Worker crashes use real ``spawn`` processes and ``SIGKILL`` — no
cooperative shutdown — so the recovery path exercised here is the one
a production deployment would hit.
"""

import json
import os
import signal
import time

import threading

from repro.corpus import ProgramBuilder
from repro.service import (
    AnalysisService,
    AsyncServiceServer,
    JobQueue,
    ServiceClient,
    ServiceWorker,
    spawn_workers,
)
from repro.service.jobs import STATUS_DONE
from repro.service.worker import EXEC_LOG
from repro.x86 import EAX, RDI


def _build_binary(path: str, numbers=(39, 60)) -> str:
    p = ProgramBuilder(os.path.basename(path))
    with p.function("_start"):
        for nr in numbers:
            p.asm.mov(EAX, nr)
            p.asm.syscall()
        p.asm.mov(EAX, 60)
        p.asm.xor(RDI, RDI)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    p.build().save(path)
    return path


def _build_binaries(outdir, count):
    # distinct syscall slices -> distinct bytes -> no content-hash dedup
    pool = (0, 1, 2, 3, 4, 5, 9, 12, 21, 39, 41, 42, 57, 59, 79, 89)
    os.makedirs(str(outdir), exist_ok=True)
    return [
        _build_binary(
            os.path.join(str(outdir), f"fault-{i:02d}"),
            numbers=(pool[i % len(pool)], pool[(i + 3) % len(pool)]),
        )
        for i in range(count)
    ]


def _wait(predicate, timeout=60.0, poll=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {message}")


def _journal_events(state_dir):
    path = os.path.join(str(state_dir), "jobs", EXEC_LOG)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _front_end(state_dir, **kwargs):
    service = AnalysisService(
        str(state_dir),
        shared=True,
        dispatcher=False,
        lease_ttl=kwargs.pop("lease_ttl", 2.0),
        **kwargs,
    )
    service.write_config()
    return service


class TestWorkerCrash:
    def test_killed_worker_jobs_are_reclaimed_and_complete(self, tmp_path):
        """SIGKILL a worker mid-batch: its leased jobs must be re-leased
        by a replacement and *every* submission must finish — zero lost
        jobs."""
        binaries = _build_binaries(tmp_path / "bin", 10)
        service = _front_end(tmp_path / "state", queue_size=32)
        jobs = [
            service.submit("analyze", {"path": path}) for path in binaries
        ]

        # batch_factor 1: the victim claims one job at a time, so there
        # is always undone work left to prove recovery with
        (victim,) = spawn_workers(
            str(tmp_path / "state"), 1,
            overrides={"poll": 0.05, "batch_factor": 1},
        )
        try:
            # freeze the victim the moment it holds a lease (SIGSTOP is
            # immediate, so it is caught mid-batch), then kill it
            _wait(
                lambda: any(
                    ev["event"] == "claim"
                    for ev in _journal_events(tmp_path / "state")
                ),
                timeout=60.0, poll=0.01, message="first lease claim",
            )
            os.kill(victim.pid, signal.SIGSTOP)
            undone = [
                job for job in jobs
                if service.queue.get(job.id).status != STATUS_DONE
            ]
            assert undone, "victim drained the queue before the fault"
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            assert not victim.is_alive()
        finally:
            if victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)

        survivors = spawn_workers(
            str(tmp_path / "state"), 1,
            prefix="survivor", overrides={"poll": 0.05},
        )
        try:
            _wait(
                lambda: all(
                    service.queue.get(job.id).status == STATUS_DONE
                    for job in jobs
                ),
                timeout=120.0, message="all jobs done after worker kill",
            )
        finally:
            for process in survivors:
                process.terminate()

        # every job finished exactly once from the front end's view, and
        # the survivor picked up at least part of the victim's work
        records = [service.queue.get(job.id) for job in jobs]
        assert all(job.status == STATUS_DONE for job in records)
        assert all(not job.error for job in records)
        workers_used = {job.metrics.get("worker") for job in records}
        assert any(w and w.startswith("survivor") for w in workers_used)

    def test_abandoned_lease_is_reclaimed_after_ttl(self, tmp_path):
        """A claim that is never heartbeated (worker froze or died
        between claim and execution) expires and the job is re-queued,
        with the reclaim counted."""
        state = tmp_path / "state"
        queue_a = JobQueue(str(state / "jobs"), shared=True, lease_ttl=0.5)
        job = queue_a.submit("analyze", {"path": "/x"})
        claimed = queue_a.claim_batch("wedged", 4, timeout=5.0)
        assert [j.id for j in claimed] == [job.id]
        # queue_a now wedges: no heartbeat, no finish

        queue_b = JobQueue(str(state / "jobs"), shared=True, lease_ttl=0.5)
        time.sleep(0.6)

        def reclaimed():
            batch = queue_b.claim_batch("medic", 4, timeout=0.2)
            return [j.id for j in batch] == [job.id]

        _wait(reclaimed, timeout=10.0, message="expired lease reclaim")
        assert queue_b.counters["reclaimed"] >= 1
        assert queue_b.get(job.id).metrics["worker"] == "medic"


class TestSharedLongPoll:
    def test_waiter_sees_a_job_a_worker_finishes(self, tmp_path):
        binary = _build_binary(str(tmp_path / "app"))
        service = _front_end(tmp_path / "state", queue_size=8)
        server = AsyncServiceServer(service, port=0)
        server.start(executor=False)
        workers = []
        try:
            client = ServiceClient(server.url, timeout=60.0)
            job = client.submit_path(binary)
            assert job["status"] == "queued"
            workers = spawn_workers(
                str(tmp_path / "state"), 1, overrides={"poll": 0.05},
            )
            doc = client.request(
                "GET", f"/v1/jobs/{job['id']}?wait=30")["job"]
            answered = time.time()
            assert doc["status"] == "done"
            assert doc["metrics"]["worker"].startswith("worker-")
            # re-read at a bounded interval, not at the end of the wait
            assert answered - doc["finished_at"] < 1.0
        finally:
            for process in workers:
                process.terminate()
            server.stop()


    def test_peer_finish_racing_a_persist_is_seen(self, tmp_path,
                                                  monkeypatch):
        """A worker finishes a job between the front end's rename of its
        own write and its bookkeeping of that write: the front end must
        still read the finished record, or a waiter never sees it."""
        from repro.service import jobs as jobs_module

        front = JobQueue(str(tmp_path / "jobs"), shared=True)
        peer = JobQueue(str(tmp_path / "jobs"), shared=True)
        real_replace = os.replace
        racing = []

        def replace_then_peer_finishes(src, dst):
            real_replace(src, dst)
            if racing:
                job_id = racing.pop()
                peer.finish(peer._load_job_file(job_id))

        monkeypatch.setattr(jobs_module.os, "replace",
                            replace_then_peer_finishes)
        job = front.submit("analyze", {"path": "/x"})
        racing.append(job.id)
        front.persist(job)  # any front-end write of the record
        assert peer.get(job.id).status == STATUS_DONE
        assert front.get(job.id).status == STATUS_DONE


class TestCorruptState:
    def test_corrupt_job_record_is_quarantined_not_fatal(self, tmp_path):
        """Garbage in the queue directory is moved aside, counted, and
        surfaced over /v1/stats while real jobs keep flowing."""
        binaries = _build_binaries(tmp_path / "bin", 2)
        service = _front_end(tmp_path / "state", queue_size=16)
        jobs_dir = os.path.join(str(tmp_path / "state"), "jobs")
        with open(os.path.join(jobs_dir, "job-999990.json"), "w") as f:
            f.write("{ this is not json")
        with open(os.path.join(jobs_dir, "job-999991.json"), "w") as f:
            json.dump({"id": "job-999991", "wrong": "shape"}, f)

        server = AsyncServiceServer(service, port=0)
        server.start(executor=False)
        workers = spawn_workers(
            str(tmp_path / "state"), 1, overrides={"poll": 0.05},
        )
        try:
            client = ServiceClient(server.url, timeout=30.0)
            done = [
                client.wait(client.submit_path(path)["id"], timeout=120.0)
                for path in binaries
            ]
            assert all(job["status"] == "done" for job in done)
            stats = client.stats()
            assert stats["queue"]["quarantined"] >= 2
        finally:
            for process in workers:
                process.terminate()
            server.stop()

        quarantine = os.path.join(jobs_dir, "quarantine")
        assert len(os.listdir(quarantine)) >= 2

    def test_corrupt_shard_entry_is_a_miss_not_a_crash(self, tmp_path):
        """Damaging a cache entry inside a shard mid-run degrades to a
        re-analysis — the daemon survives, the result is identical, and
        the invalidation shows in /v1/stats."""
        binary = _build_binary(str(tmp_path / "app"))
        # local mode: the dispatcher (and so the store counters) live in
        # the daemon process whose /v1/stats we read
        service = AnalysisService(
            str(tmp_path / "state"), shards=2, queue_size=8,
        )
        server = AsyncServiceServer(service, port=0)
        server.start()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            cold = client.wait(client.submit_path(binary)["id"])
            assert cold["status"] == "done"
            cold_report = client.report(cold["id"])

            cache_dir = os.path.join(str(tmp_path / "state"), "cache")
            damaged = 0
            for root, _dirs, files in os.walk(cache_dir):
                for name in files:
                    with open(os.path.join(root, name), "w") as f:
                        f.write('{"cache_version": 2, TRUNCATED')
                    damaged += 1
            assert damaged > 0, "expected cache entries in the shards"

            warm = client.wait(client.submit_path(binary)["id"])
            assert warm["status"] == "done"
            # the damaged entry could not be served: this was a real run
            assert warm["metrics"]["from_cache"] is False
            assert client.report(warm["id"])["syscalls"] == \
                cold_report["syscalls"]

            kinds = client.stats()["cache"]["kinds"]
            assert sum(doc.get("invalidations", 0)
                       for doc in kinds.values()) >= 1
        finally:
            server.stop()


class TestExactlyOnce:
    def test_concurrent_claims_are_exclusive(self, tmp_path):
        """Two workers draining one queue: every job is claimed by
        exactly one of them (O_EXCL claim-file arbitration)."""
        state = tmp_path / "state"
        queue_a = JobQueue(str(state / "jobs"), maxsize=64,
                           shared=True, lease_ttl=30.0)
        queue_b = JobQueue(str(state / "jobs"), maxsize=64,
                           shared=True, lease_ttl=30.0)
        jobs = [
            queue_a.submit("analyze", {"path": f"/bin/{i}"})
            for i in range(24)
        ]

        claims = {"a": [], "b": []}

        def drain(name, queue):
            while True:
                batch = queue.claim_batch(name, 1, timeout=0.3)
                if not batch:
                    return
                for job in batch:
                    claims[name].append(job.id)
                    queue.finish(job)

        threads = [
            threading.Thread(target=drain, args=("a", queue_a)),
            threading.Thread(target=drain, args=("b", queue_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)

        executed = claims["a"] + claims["b"]
        assert sorted(executed) == sorted(job.id for job in jobs)
        assert len(executed) == len(set(executed)), "double-claimed job"
        assert set(claims["a"]) & set(claims["b"]) == set()

    def test_expired_lease_double_claim_executes_once(self, tmp_path):
        """The stalled-owner race: worker A claims, stalls past the TTL,
        worker B re-claims and finishes.  A's late result must be
        discarded by the owns_lease guard — the job ends exactly once,
        with B's result."""
        binary = _build_binary(str(tmp_path / "app"))
        state = str(tmp_path / "state")
        front = _front_end(state, queue_size=8, lease_ttl=0.5)
        job = front.submit("analyze", {"path": binary})

        stalled = ServiceWorker(state, "stalled", poll=0.05)
        batch_a = stalled.queue.claim_batch("stalled", 4, timeout=5.0)
        assert [j.id for j in batch_a] == [job.id]

        # the stall: no heartbeat until well past the 0.5s TTL
        time.sleep(0.7)

        medic = ServiceWorker(state, "medic", poll=0.05)
        batch_b = medic.queue.claim_batch("medic", 4, timeout=5.0)
        assert [j.id for j in batch_b] == [job.id]
        medic.service.run_batch(batch_b)

        done = front.queue.get(job.id)
        assert done.status == STATUS_DONE
        assert done.metrics["worker"] == "medic"
        finished_at = done.finished_at

        # the stalled owner wakes up and tries to persist its own run:
        # the owns_lease guard must discard it wholesale
        stalled.service.run_batch(batch_a)
        after = front.queue.get(job.id)
        assert after.status == STATUS_DONE
        assert after.metrics["worker"] == "medic"
        assert after.finished_at == finished_at

    def test_stale_claim_of_finished_job_is_refused(self, tmp_path):
        """A worker whose queued view is stale cannot re-run a job that a
        peer already finished: the post-lease disk re-read refuses the
        claim."""
        state = tmp_path / "state"
        queue_a = JobQueue(str(state / "jobs"), shared=True, lease_ttl=30.0)
        job = queue_a.submit("analyze", {"path": "/x"})

        queue_b = JobQueue(str(state / "jobs"), shared=True, lease_ttl=30.0)
        queue_b.refresh()  # B now sees the job as queued

        # A claims and finishes while B's view goes stale
        (claimed,) = queue_a.claim_batch("a", 4, timeout=5.0)
        queue_a.finish(claimed)
        assert queue_a.get(job.id).status == STATUS_DONE

        # B still believes the job is queued; its claim must come back
        # empty and must not regress the record to running
        assert queue_b.claim_batch("b", 4, timeout=0.3) == []
        assert queue_b.get(job.id).status == STATUS_DONE
        assert queue_a.get(job.id).status == STATUS_DONE


class TestJournal:
    def test_exec_log_shows_claim_and_completion(self, tmp_path):
        """The append-only journal records who claimed and finished
        what — the observability contract the fault tests above rely
        on."""
        binaries = _build_binaries(tmp_path / "bin", 3)
        service = _front_end(tmp_path / "state", queue_size=16)
        jobs = [
            service.submit("analyze", {"path": path}) for path in binaries
        ]
        worker = ServiceWorker(str(tmp_path / "state"), "journaled",
                               poll=0.05)
        worker.run(idle_exit=1.0)

        events = _journal_events(tmp_path / "state")
        claimed = [
            job_id
            for ev in events if ev["event"] == "claim"
            for job_id in ev["jobs"]
        ]
        finished = [
            job_id
            for ev in events if ev["event"] == "batch-done"
            for job_id in ev["jobs"]
        ]
        expected = sorted(job.id for job in jobs)
        assert sorted(claimed) == expected
        assert sorted(finished) == expected
        assert all(ev["worker"] == "journaled" for ev in events)
        for job in jobs:
            assert service.queue.get(job.id).status == STATUS_DONE
