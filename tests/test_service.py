"""Service suite: the ``bside serve`` daemon over a real socket.

Covers the tentpole claims end to end:

* submit → poll → fetch over HTTP (path, inline-bytes, and fleet jobs);
* warm resubmission served from the content-addressed artifact store
  with **zero pipeline passes executed** (and a renamed copy still hits
  via the content-hash index);
* bounded-queue backpressure (HTTP 429);
* restart recovery: queued and running jobs survive a daemon restart,
  finished jobs keep serving their results;
* derived enforcement artifacts (seccomp filter, Docker profile);
* API error contract (400 / 404 / 409 / 429) and CLI exit codes.
"""

import json
import os
import time

import pytest

from repro.core.pipeline import pipeline_runs
from repro.corpus import ProgramBuilder, build_app, build_libc
from repro.service import (
    AnalysisService,
    AsyncServiceServer,
    JobQueue,
    QueueFull,
    ServiceClient,
    ServiceError,
)
from repro.x86 import EAX, RDI


def _demo_program(name: str = "svc-demo", nr: int = 39):
    p = ProgramBuilder(name)
    with p.function("_start"):
        p.asm.mov(EAX, nr)
        p.asm.syscall()
        p.asm.mov(EAX, 60)
        p.asm.xor(RDI, RDI)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build()


@pytest.fixture()
def demo_binary(tmp_path):
    path = str(tmp_path / "svc-demo")
    _demo_program().save(path)
    return path


@pytest.fixture()
def server(tmp_path):
    service = AnalysisService(
        str(tmp_path / "state"), workers=2, queue_size=8,
    )
    srv = AsyncServiceServer(service, port=0)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=10.0)


class TestEndToEnd:
    def test_submit_poll_fetch(self, client, demo_binary):
        job = client.submit_path(demo_binary)
        assert job["status"] == "queued" and job["kind"] == "analyze"
        job = client.wait(job["id"])
        assert job["status"] == "done"
        report = client.report(job["id"])
        assert report["success"] is True
        assert 39 in report["syscalls"] and 60 in report["syscalls"]
        metrics = job["metrics"]
        assert metrics["from_cache"] is False
        assert metrics["seconds"] >= 0 and metrics["batch_size"] >= 1

    def test_inline_bytes_submission(self, client):
        prog = _demo_program("inline-demo", nr=102)  # getuid
        job = client.wait(client.submit_bytes("inline-demo", prog.elf_bytes)["id"])
        assert job["status"] == "done"
        assert 102 in client.report(job["id"])["syscalls"]

    def test_derived_filter_and_profile(self, client, demo_binary):
        job = client.wait(client.submit_path(demo_binary)["id"])
        filt = client.filter(job["id"])
        assert filt["sound"] is True
        assert set(filt["allowed"]) == {39, 60}
        assert "getpid" in filt["allowed_names"]
        assert "jeq" in filt["rendered"]
        profile = client.profile(job["id"])
        assert profile["defaultAction"] == "SCMP_ACT_ERRNO"
        assert "getpid" in profile["syscalls"][0]["names"]

    def test_fleet_job(self, client, tmp_path):
        bindir = tmp_path / "fleetbin"
        bindir.mkdir()
        _demo_program("a", nr=39).save(str(bindir / "a"))
        _demo_program("b", nr=102).save(str(bindir / "b"))
        job = client.wait(client.submit_directory(str(bindir))["id"])
        assert job["status"] == "done"
        doc = client.report(job["id"])["report"]
        assert doc["fleet_size"] == 2
        assert doc["success_rate"] == 1.0

    def test_dynamic_binary_with_libdir(self, client, tmp_path):
        bundle = build_app("sqlite")
        binpath = str(tmp_path / "sqlite-like")
        bundle.program.save(binpath)
        libdir = tmp_path / "libs"
        libdir.mkdir()
        build_libc().save(str(libdir / "libc.so"))
        job = client.wait(
            client.submit_path(binpath, libdir=str(libdir))["id"],
            timeout=120.0,
        )
        assert job["status"] == "done"
        assert client.report(job["id"])["success"] is True

    def test_jobs_listing_and_stats(self, client, demo_binary):
        client.wait(client.submit_path(demo_binary)["id"])
        jobs = client.jobs()
        assert len(jobs) == 1 and "result" not in jobs[0]
        stats = client.stats()
        assert stats["queue"]["submitted"] == 1
        assert stats["workers"] == 2
        assert "report" in stats["cache"]["kinds"]
        assert client.health()["status"] == "ok"


class TestWarmPath:
    def test_resubmission_runs_zero_passes(self, client, demo_binary):
        cold = client.wait(client.submit_path(demo_binary)["id"])
        assert cold["metrics"]["from_cache"] is False
        runs_before = pipeline_runs()
        warm = client.wait(client.submit_path(demo_binary)["id"])
        assert warm["metrics"]["from_cache"] is True
        # The acceptance claim: a warm submission executes zero analysis
        # passes — the report is served from the artifact store.
        assert pipeline_runs() == runs_before
        assert client.report(warm["id"])["syscalls"] == \
            client.report(cold["id"])["syscalls"]

    def test_renamed_copy_hits_by_content_hash(self, client, demo_binary, tmp_path):
        client.wait(client.submit_path(demo_binary)["id"])
        renamed = str(tmp_path / "other-name")
        with open(demo_binary, "rb") as f:
            data = f.read()
        with open(renamed, "wb") as f:
            f.write(data)
        runs_before = pipeline_runs()
        warm = client.wait(client.submit_path(renamed)["id"])
        assert warm["metrics"]["from_cache"] is True
        assert pipeline_runs() == runs_before
        assert client.report(warm["id"])["binary"] == "other-name"

    def test_inline_resubmission_hits(self, client, demo_binary):
        client.wait(client.submit_path(demo_binary)["id"])
        with open(demo_binary, "rb") as f:
            data = f.read()
        warm = client.wait(client.submit_bytes("uploaded-copy", data)["id"])
        assert warm["metrics"]["from_cache"] is True

    def test_lookup_never_deletes_mismatched_entries(self, tmp_path):
        """The serving path (`ArtifactStore.lookup`) must not evict an
        entry that fails this client's key: it may still be valid under
        its own (regression test for cache thrash between clients whose
        binaries share a basename or dependency sets differ)."""
        from repro.core.artifacts import ArtifactStore

        store = ArtifactStore(str(tmp_path / "cache"))
        key = {"content_hash": "h1", "fingerprint": "f1", "dep_hashes": ["d1"]}
        store.put("report", "app", {"x": 1}, **key)
        # Same name, different content (a basename collision): miss,
        # but the entry survives.
        assert store.lookup("report", "app", content_hash="h2",
                            fingerprint="f1", dep_hashes=["d1"]) is None
        # Alias probe under different deps: also a miss, no deletion.
        assert store.lookup("report", "other", content_hash="h1",
                            fingerprint="f1", dep_hashes=["d2"]) is None
        assert store.counters("report")["invalidations"] == 0
        assert store.counters("report")["misses"] == 2
        # The original key still hits — directly or via the alias, and
        # an alias hit counts exactly one hit, no phantom miss.
        assert store.lookup("report", "renamed", **key) == {"x": 1}
        assert store.counters("report")["hits"] == 1
        assert store.counters("report")["misses"] == 2


class TestSubmitTimeServing:
    """A warm submission is answered by the POST itself: the job comes
    back ``done`` from the report store, and nothing is queued."""

    def _warm(self, client, path):
        cold = client.wait(client.submit_path(path)["id"])
        assert cold["metrics"]["from_cache"] is False
        return cold

    @staticmethod
    def _post(client, spec):
        """(HTTP status, job summary) of one raw submission."""
        import http.client
        import urllib.parse

        conn = http.client.HTTPConnection(
            urllib.parse.urlsplit(client.base_url).netloc, timeout=10.0,
        )
        try:
            conn.request("POST", "/v1/jobs", body=json.dumps(spec),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())["job"]
        finally:
            conn.close()

    def _assert_served(self, status, job):
        assert status == 200
        assert job["status"] == "done"
        assert job["metrics"]["from_cache"] is True
        assert job["metrics"]["batch_size"] == 0
        assert job["metrics"]["queue_seconds"] == 0
        assert job["started_at"] == job["submitted_at"]
        assert job["finished_at"] >= job["started_at"]

    def test_path_inline_and_renamed_copy_served_by_the_post(
        self, client, demo_binary, tmp_path,
    ):
        import base64

        cold = self._warm(client, demo_binary)
        with open(demo_binary, "rb") as f:
            data = f.read()
        renamed = str(tmp_path / "renamed-copy")
        with open(renamed, "wb") as f:
            f.write(data)
        runs_before = pipeline_runs()
        specs = [
            {"kind": "analyze", "path": demo_binary},
            {"kind": "analyze", "name": "uploaded",
             "binary_b64": base64.b64encode(data).decode()},
            {"kind": "analyze", "path": renamed},
        ]
        for spec, name in zip(specs, ["svc-demo", "uploaded", "renamed-copy"]):
            status, job = self._post(client, spec)
            self._assert_served(status, job)
            report = client.report(job["id"])
            # an inline upload is named after its spool file
            assert report["binary"].endswith(name)
            assert report["syscalls"] == client.report(cold["id"])["syscalls"]
        assert pipeline_runs() == runs_before
        queue = client.stats()["queue"]
        assert queue["served_at_submit"] == 3
        assert queue["submitted"] == 4

    def test_served_report_is_byte_identical_to_dispatcher_served(
        self, tmp_path, demo_binary,
    ):
        service = AnalysisService(str(tmp_path / "state"))
        srv = AsyncServiceServer(service, port=0)
        srv.start()
        try:
            client = ServiceClient(srv.url)
            self._warm(client, demo_binary)
            # bypass submit-time serving: the dispatcher's fleet phase 1
            # serves this one from the store
            queued = service.queue.submit("analyze", {"path": demo_binary})
            dispatched = client.wait(queued.id)
            assert dispatched["metrics"]["from_cache"] is True
            assert dispatched["metrics"]["batch_size"] >= 1
            status, served = self._post(
                client, {"kind": "analyze", "path": demo_binary},
            )
            self._assert_served(status, served)
            assert (json.dumps(client.report(served["id"]))
                    == json.dumps(client.report(queued.id)))
        finally:
            srv.stop()

    def test_hit_admitted_with_dispatcher_stopped_and_queue_full(
        self, tmp_path, demo_binary,
    ):
        state = str(tmp_path / "state")
        warmup = AsyncServiceServer(AnalysisService(state), port=0)
        warmup.start()
        try:
            self._warm(ServiceClient(warmup.url), demo_binary)
        finally:
            warmup.stop()

        service = AnalysisService(state, queue_size=1)
        srv = AsyncServiceServer(service, port=0)
        srv.start(executor=False)
        try:
            client = ServiceClient(srv.url, retries=0)
            other = str(tmp_path / "other")
            _demo_program("other", nr=102).save(other)
            assert client.submit_path(other)["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.submit_path(other)
            assert excinfo.value.status == 429
            status, job = self._post(
                client, {"kind": "analyze", "path": demo_binary},
            )
            self._assert_served(status, job)
            assert client.stats()["queue"]["depth"] == 1
        finally:
            srv.stop()

    def test_swapped_library_misses_and_reanalyzes(self, client, tmp_path):
        bundle = build_app("sqlite")
        binpath = str(tmp_path / "sqlite-like")
        bundle.program.save(binpath)
        libdir = tmp_path / "libs"
        libdir.mkdir()
        libc = str(libdir / "libc.so")
        build_libc().save(libc)
        cold = client.wait(client.submit_path(binpath, libdir=str(libdir))["id"])
        assert client.report(cold["id"])["success"] is True
        warm = client.submit_path(binpath, libdir=str(libdir))
        assert warm["status"] == "done"

        with open(libc, "ab") as f:
            f.write(b"\0different library bytes\0")
        runs_before = pipeline_runs()
        swapped = client.submit_path(binpath, libdir=str(libdir))
        assert swapped["status"] == "queued"
        swapped = client.wait(swapped["id"])
        assert swapped["metrics"]["from_cache"] is False
        assert pipeline_runs() > runs_before
        assert client.report(swapped["id"])["success"] is True

    def test_client_supplied_digest_is_ignored(self, client, demo_binary,
                                                tmp_path):
        import hashlib

        self._warm(client, demo_binary)
        with open(demo_binary, "rb") as f:
            cached_digest = hashlib.sha256(f.read()).hexdigest()
        other = str(tmp_path / "other")
        _demo_program("other", nr=102).save(other)
        status, job = self._post(client, {
            "kind": "analyze", "path": other,
            "content_sha256": cached_digest,
        })
        assert status == 202 and job["status"] == "queued"
        assert "content_sha256" not in job["spec"]
        done = client.wait(job["id"])
        assert done["metrics"]["from_cache"] is False
        syscalls = client.report(job["id"])["syscalls"]
        assert 102 in syscalls and 39 not in syscalls

    def test_report_written_by_another_store_is_served_at_submit(
        self, tmp_path, demo_binary,
    ):
        """A report another store instance (a worker process) wrote
        after this store built its hash index is found on the next
        miss, and the POST serves it."""
        from repro.core.artifacts import _RELIST_NS, ArtifactStore
        from repro.core.fleet import FleetAnalyzer
        from repro.loader.image import LoadedImage

        service = AnalysisService(str(tmp_path / "state"))
        srv = AsyncServiceServer(service, port=0)
        srv.start()
        try:
            client = ServiceClient(srv.url)
            other = str(tmp_path / "other")
            _demo_program("other", nr=102).save(other)
            self._warm(client, other)  # builds this store's hash index

            second = ArtifactStore(service.cache_dir)
            FleetAnalyzer(artifact_store=second).analyze_images(
                [LoadedImage.from_path(demo_binary)]
            )
            # the hash index lists the directory at most this often
            time.sleep(_RELIST_NS / 1e9)
            runs_before = pipeline_runs()
            job = client.submit_path(demo_binary)
            assert job["status"] == "done"
            assert job["metrics"]["from_cache"] is True
            assert pipeline_runs() == runs_before
            assert set(client.report(job["id"])["syscalls"]) == {39, 60}
        finally:
            srv.stop()

    def test_stale_hash_index_degrades_to_a_queued_cache_hit(
        self, tmp_path, demo_binary,
    ):
        """An entry another store instance overwrote in place keeps the
        hash this store's index first read for it: the submission of the
        new binary queues, and the dispatcher's name-keyed lookup serves
        it from the store."""
        from repro.core.artifacts import ArtifactStore
        from repro.core.fleet import FleetAnalyzer
        from repro.loader.image import LoadedImage

        service = AnalysisService(str(tmp_path / "state"))
        srv = AsyncServiceServer(service, port=0)
        srv.start()
        try:
            client = ServiceClient(srv.url)
            self._warm(client, demo_binary)  # builds this store's index
            newer = tmp_path / "newer"
            newer.mkdir()
            rebuilt = str(newer / "svc-demo")
            _demo_program("svc-demo", nr=102).save(rebuilt)
            FleetAnalyzer(
                artifact_store=ArtifactStore(service.cache_dir),
            ).analyze_images([LoadedImage.from_path(rebuilt)])

            runs_before = pipeline_runs()
            job = client.submit_path(rebuilt)
            assert job["status"] == "queued"
            done = client.wait(job["id"])
            assert done["metrics"]["from_cache"] is True
            assert done["metrics"]["batch_size"] >= 1
            assert pipeline_runs() == runs_before
            assert set(client.report(job["id"])["syscalls"]) == {102, 60}
        finally:
            srv.stop()

    def test_overwritten_entry_never_serves_a_wrong_report(
        self, tmp_path, demo_binary,
    ):
        """This store's index still maps a binary's hash to a name whose
        entry another store has since overwritten with another binary's
        report: the lookup refuses it, and the binary is re-analyzed."""
        from repro.core.artifacts import ArtifactStore
        from repro.core.fleet import FleetAnalyzer
        from repro.loader.image import LoadedImage

        service = AnalysisService(str(tmp_path / "state"))
        srv = AsyncServiceServer(service, port=0)
        srv.start()
        try:
            client = ServiceClient(srv.url)
            self._warm(client, demo_binary)
            impostor = tmp_path / "impostor"
            impostor.mkdir()
            _demo_program("svc-demo", nr=102).save(str(impostor / "svc-demo"))
            FleetAnalyzer(
                artifact_store=ArtifactStore(service.cache_dir),
            ).analyze_images([LoadedImage.from_path(str(impostor / "svc-demo"))])

            job = client.submit_path(demo_binary)
            assert job["status"] == "queued"
            done = client.wait(job["id"])
            assert done["metrics"]["from_cache"] is False
            assert set(client.report(job["id"])["syscalls"]) == {39, 60}
        finally:
            srv.stop()


class TestBatchIntegrity:
    def _stopped_server(self, tmp_path):
        service = AnalysisService(str(tmp_path / "state"), workers=4,
                                  queue_size=16)
        srv = AsyncServiceServer(service, port=0)
        srv.start(executor=False)  # everything lands in one batch
        return service, srv

    def test_same_basename_different_content(self, tmp_path):
        """Two submissions whose files share a basename but differ in
        content must each get their own report (regression test for the
        report-swap when cached entries resolve before analyzed ones)."""
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        _demo_program("appA", nr=39).save(str(dir_a / "nginx"))   # getpid
        _demo_program("appB", nr=102).save(str(dir_b / "nginx"))  # getuid
        service, srv = self._stopped_server(tmp_path)
        try:
            client = ServiceClient(srv.url)
            job_a = client.submit_path(str(dir_a / "nginx"))
            # Warm the cache for B's content under another name so B is
            # cache-served (resolves before A analyzes) in the batch.
            job_pre = client.submit_path(str(dir_b / "nginx"))
            job_b = client.submit_path(str(dir_b / "nginx"))
            service.start()
            report_a = client.report(client.wait(job_a["id"])["id"])
            client.wait(job_pre["id"])
            report_b = client.report(client.wait(job_b["id"])["id"])
            assert 39 in report_a["syscalls"] and 102 not in report_a["syscalls"]
            assert 102 in report_b["syscalls"] and 39 not in report_b["syscalls"]
        finally:
            srv.stop()

    def test_identical_submissions_in_one_batch_analyzed_once(self, tmp_path):
        """Thundering herd: N submissions of the same bytes in a single
        batch run one analysis; the twins are dedup-served."""
        path = str(tmp_path / "herd-bin")
        _demo_program("herd").save(path)
        service, srv = self._stopped_server(tmp_path)
        try:
            client = ServiceClient(srv.url)
            jobs = [client.submit_path(path) for __ in range(4)]
            runs_before = pipeline_runs()
            service.start()
            finished = [client.wait(j["id"]) for j in jobs]
            assert all(j["status"] == "done" for j in finished)
            assert sum(1 for j in finished
                       if not j["metrics"]["from_cache"]) == 1
            # One pipeline run for the binary (its libc-free, so no
            # interface runs) — not four.
            assert pipeline_runs() - runs_before == 1
        finally:
            srv.stop()


class TestBackpressure:
    def test_queue_full_returns_429(self, tmp_path, demo_binary):
        service = AnalysisService(str(tmp_path / "state"), queue_size=3)
        srv = AsyncServiceServer(service, port=0)
        srv.start(executor=False)  # nothing drains the queue
        try:
            # retries=0: this test counts *server-side* rejections, so
            # the client's 429 retry-with-backoff must stay out of it
            client = ServiceClient(srv.url, retries=0)
            for __ in range(3):
                client.submit_path(demo_binary)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_path(demo_binary)
            assert excinfo.value.status == 429
            stats = client.stats()
            assert stats["queue"]["depth"] == 3
            assert stats["queue"]["rejected"] == 1
            # Draining the queue reopens admission.
            service.start()
            client.wait(client.jobs()[0]["id"])
            client.submit_path(demo_binary)
        finally:
            srv.stop()


class TestRestartRecovery:
    def test_queued_jobs_survive_restart(self, tmp_path, demo_binary):
        state_dir = str(tmp_path / "state")
        service = AnalysisService(state_dir, queue_size=8)
        srv = AsyncServiceServer(service, port=0)
        srv.start(executor=False)
        client = ServiceClient(srv.url)
        ids = [client.submit_path(demo_binary)["id"] for __ in range(2)]
        srv.stop()  # daemon dies with jobs still queued

        revived = AnalysisService(state_dir, queue_size=8)
        assert revived.queue.stats()["recovered"] == 2
        srv2 = AsyncServiceServer(revived, port=0)
        srv2.start()
        try:
            client2 = ServiceClient(srv2.url)
            for job_id in ids:
                job = client2.wait(job_id)
                assert job["status"] == "done"
                assert client2.report(job_id)["success"] is True
        finally:
            srv2.stop()

    def test_finished_results_survive_restart(self, tmp_path, demo_binary):
        state_dir = str(tmp_path / "state")
        service = AnalysisService(state_dir)
        srv = AsyncServiceServer(service, port=0)
        srv.start()
        client = ServiceClient(srv.url)
        job_id = client.wait(client.submit_path(demo_binary)["id"])["id"]
        srv.stop()

        revived = AsyncServiceServer(AnalysisService(state_dir), port=0)
        revived.start()
        try:
            client2 = ServiceClient(revived.url)
            assert client2.job(job_id)["status"] == "done"
            assert client2.report(job_id)["success"] is True
        finally:
            revived.stop()

    def test_running_jobs_are_requeued(self, tmp_path):
        queue = JobQueue(str(tmp_path / "jobs"), maxsize=4)
        job = queue.submit("analyze", {"path": "/x"})
        taken = queue.take_batch(4)
        assert taken[0].status == "running"
        # Simulate a crash: a fresh queue over the same directory.
        revived = JobQueue(str(tmp_path / "jobs"), maxsize=4)
        recovered = revived.get(job.id)
        assert recovered.status == "queued"
        assert revived.depth() == 1


class TestJobQueue:
    def test_bounded_submit(self, tmp_path):
        queue = JobQueue(str(tmp_path / "jobs"), maxsize=2)
        queue.submit("analyze", {"path": "/a"})
        queue.submit("analyze", {"path": "/b"})
        with pytest.raises(QueueFull):
            queue.submit("analyze", {"path": "/c"})
        assert queue.counters["rejected"] == 1

    def test_batch_groups_by_libdir(self, tmp_path):
        queue = JobQueue(str(tmp_path / "jobs"), maxsize=8)
        queue.submit("analyze", {"path": "/a", "libdir": "/libs1"})
        queue.submit("analyze", {"path": "/b", "libdir": "/libs2"})
        queue.submit("analyze", {"path": "/c", "libdir": "/libs1"})
        batch = queue.take_batch(8)
        assert [j.spec["path"] for j in batch] == ["/a", "/c"]
        assert queue.depth() == 1  # /libs2 job kept its place
        assert [j.spec["path"] for j in queue.take_batch(8)] == ["/b"]

    def test_take_batch_respects_max(self, tmp_path):
        queue = JobQueue(str(tmp_path / "jobs"), maxsize=8)
        for index in range(5):
            queue.submit("analyze", {"path": f"/bin{index}"})
        assert len(queue.take_batch(3)) == 3
        assert queue.depth() == 2

    @pytest.mark.parametrize("reader", ["recovery", "refresh"])
    def test_fifo_order_past_six_digit_ids(self, tmp_path, reader):
        """Ids outgrow their six-digit padding after ``job-999999``:
        restart recovery and shared-mode refresh must order the queue
        by sequence number, not by id string."""
        jobs_dir = str(tmp_path / "jobs")
        shared = reader == "refresh"
        queue = JobQueue(jobs_dir, maxsize=8, shared=shared)
        peer = JobQueue(jobs_dir, maxsize=8, shared=True) if shared else None
        queue._seq = 999_998
        ids = [queue.submit("analyze", {"path": f"/bin{index}"}).id
               for index in range(3)]
        assert ids == ["job-999999", "job-1000000", "job-1000001"]
        if shared:
            assert [job.id for job in peer.jobs()] == ids
            batch = peer.claim_batch("peer", 8)
        else:
            revived = JobQueue(jobs_dir, maxsize=8)
            assert [job.id for job in revived.jobs()] == ids
            batch = revived.take_batch(8)
        assert [job.id for job in batch] == ids


class TestErrorContract:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_bad_spec_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/jobs", {"kind": "analyze"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/jobs", {"kind": "bogus"})
        assert excinfo.value.status == 400

    def test_unreadable_path_fails_job(self, client):
        job = client.wait(client.submit_path("/nonexistent/binary")["id"])
        assert job["status"] == "failed"
        assert job["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.report(job["id"])
        assert excinfo.value.status == 409

    def test_report_of_unfinished_job_409(self, tmp_path, demo_binary):
        service = AnalysisService(str(tmp_path / "state"))
        srv = AsyncServiceServer(service, port=0)
        srv.start(executor=False)
        try:
            client = ServiceClient(srv.url)
            job = client.submit_path(demo_binary)
            with pytest.raises(ServiceError) as excinfo:
                client.report(job["id"])
            assert excinfo.value.status == 409
        finally:
            srv.stop()

    def test_filter_of_fleet_job_400(self, client, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        _demo_program().save(str(bindir / "a"))
        job = client.wait(client.submit_directory(str(bindir))["id"])
        with pytest.raises(ServiceError) as excinfo:
            client.filter(job["id"])
        assert excinfo.value.status == 400

    def test_analysis_failure_is_a_done_job(self, client, tmp_path):
        # A dynamic binary with no resolvable libc: analysis fails, but
        # that is a *result*, not a service error.
        bundle = build_app("sqlite")
        binpath = str(tmp_path / "no-libs")
        bundle.program.save(binpath)
        job = client.wait(client.submit_path(binpath)["id"])
        assert job["status"] == "done"
        report = client.report(job["id"])
        assert report["success"] is False


class TestCliIntegration:
    def test_submit_cli_roundtrip(self, server, demo_binary, capsys):
        from repro.cli import main

        assert main(["submit", demo_binary, "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "syscalls" in out and "getpid" in out

    def test_submit_cli_json_and_filter(self, server, demo_binary, capsys):
        from repro.cli import main

        assert main(["submit", demo_binary, "--url", server.url,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["success"] is True
        assert main(["submit", demo_binary, "--url", server.url,
                     "--filter"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True

    def test_submit_cli_unreachable_daemon(self, capsys, demo_binary):
        from repro.cli import main

        assert main(["submit", demo_binary,
                     "--url", "http://127.0.0.1:9"]) == 2

    def test_fleet_cli_exit_code_on_failures(self, tmp_path, capsys):
        """The exit-code satellite: per-binary failures exit 1."""
        from repro.cli import main

        bindir = tmp_path / "bin"
        bindir.mkdir()
        _demo_program("ok").save(str(bindir / "ok"))
        # Dynamic binary without its libraries: a per-binary failure.
        build_app("sqlite").program.save(str(bindir / "broken"))
        assert main(["fleet", str(bindir)]) == 1
        assert main(["fleet", str(bindir), "--json"]) == 1
        capsys.readouterr()
        # All-success directories still exit 0.
        os.remove(str(bindir / "broken"))
        assert main(["fleet", str(bindir)]) == 0
