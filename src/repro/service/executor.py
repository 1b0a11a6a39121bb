"""The analysis service: a batch-draining executor over the fleet engine.

:class:`AnalysisService` owns the daemon's long-lived state — one
bounded :class:`~repro.service.jobs.JobQueue`, one shared
content-addressed :class:`~repro.core.artifacts.ArtifactStore` — and a
dispatcher thread that drains the queue in batches:

1. ``take_batch`` pops up to ``batch_factor × workers`` queued jobs
   sharing a group key (kind + library directory).
2. The batch becomes **one** :class:`~repro.core.fleet.FleetAnalyzer`
   run, which re-uses the engine's three-phase schedule: cached reports
   are served first (content-hash keyed, so identical resubmissions cost
   zero analysis), library interfaces are warmed once *per batch* rather
   than once per request, then per-binary analysis fans out over worker
   processes.
3. Each job is finished with its entry's report and per-job metrics
   (wall seconds, interface-cache hits/misses, ``from_cache``, batch
   size, queue wait).

Two distinct scaling levers fall out of ``workers=N``:

* **batching** — admission batches grow with N, amortising resolver
  construction, dependency hashing, and interface warm-up across jobs
  (this helps even on a single core);
* **fan-out** — the fleet's phase-3 ``ProcessPoolExecutor`` is sized to
  ``min(N, cpu_count)``, so the service never oversubscribes the
  machine with idle worker processes.

A fresh ``FleetAnalyzer`` (and with it a fresh in-memory interface
store) is built per batch: memory stays bounded no matter how many
distinct library pools pass through the daemon, while the persistent
artifact store keeps warm-path costs to a few JSON loads.

Analysis failures (budget exhaustion, unresolvable libraries) are
*results*: the job completes ``done`` with ``report.success = false``.
Only service-level faults — unreadable path, non-ELF bytes — mark a job
``failed``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
import threading
import time

from ..core.artifacts import ArtifactStore, ShardedArtifactStore
from ..core.fleet import FleetAnalyzer, FleetEntry
from ..core.pipeline import pipeline_runs
from ..core.report import AnalysisBudget
from ..errors import ElfError, LoaderError, ReproError
from ..loader.image import LoadedImage
from ..loader.resolve import LibraryResolver
from .jobs import STATUS_RUNNING, Job, JobQueue

logger = logging.getLogger(__name__)

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._+-]")

#: refuse inline submissions larger than this (the HTTP layer enforces
#: the same bound on request bodies)
MAX_INLINE_BYTES = 64 * 1024 * 1024

#: deployment config persisted under the state directory so joining
#: worker processes (``bside serve --join``) agree with the front end
CONFIG_NAME = "service.json"


class AnalysisService:
    """Long-lived analysis daemon state + the batch executor."""

    def __init__(
        self,
        state_dir: str,
        *,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_size: int = 64,
        batch_factor: int = 4,
        libdir: str | None = None,
        budget: AnalysisBudget | None = None,
        shards: int = 1,
        shared: bool = False,
        lease_ttl: float = 30.0,
        worker_id: str | None = None,
        dispatcher: bool = True,
        incremental: bool = False,
    ) -> None:
        self.state_dir = state_dir
        self.workers = max(1, int(workers))
        self.batch_factor = max(1, int(batch_factor))
        self.batch_size = self.workers * self.batch_factor
        #: phase-3 process fan-out, sized to the machine
        self.fleet_workers = max(1, min(self.workers, os.cpu_count() or 1))
        self.default_libdir = libdir
        self.budget = budget if budget is not None else AnalysisBudget()
        #: function-granular incremental analysis for every batch
        self.incremental = bool(incremental)
        self.cache_dir = cache_dir or os.path.join(state_dir, "cache")
        self.spool_dir = os.path.join(state_dir, "spool")
        os.makedirs(self.spool_dir, exist_ok=True)
        self.shards = max(1, int(shards))
        if self.shards > 1:
            self.artifacts: ArtifactStore | ShardedArtifactStore = (
                ShardedArtifactStore(self.cache_dir, shards=self.shards)
            )
        else:
            self.artifacts = ArtifactStore(self.cache_dir)
        #: multi-process mode: the queue directory is shared with worker
        #: processes, which claim jobs through leases
        self.shared = bool(shared)
        #: set on worker processes; guards result persistence on lost leases
        self.worker_id = worker_id
        #: False on a front end whose jobs are drained by external workers
        self.run_dispatcher = bool(dispatcher)
        self.queue = JobQueue(
            os.path.join(state_dir, "jobs"), maxsize=queue_size,
            shared=self.shared, lease_ttl=lease_ttl,
        )
        self.started_at = time.time()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Deployment config (front end writes, joining workers read)
    # ------------------------------------------------------------------

    def write_config(self) -> str:
        """Persist the deployment parameters workers must agree on."""
        doc = {
            "version": 1,
            "cache_dir": os.path.abspath(self.cache_dir),
            "shards": self.shards,
            "libdir": self.default_libdir,
            "queue_size": self.queue.maxsize,
            "batch_factor": self.batch_factor,
            "lease_ttl": self.queue.lease_ttl,
            "incremental": self.incremental,
        }
        path = os.path.join(self.state_dir, CONFIG_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=2)
        os.replace(tmp, path)
        return path

    @staticmethod
    def load_config(state_dir: str) -> dict:
        """Read a deployment config written by :meth:`write_config`.

        Returns ``{}`` when no config exists (fresh state directory)."""
        try:
            with open(os.path.join(state_dir, CONFIG_NAME)) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}
        return doc if isinstance(doc, dict) else {}

    # ------------------------------------------------------------------
    # Submission (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, kind: str, spec: dict) -> Job:
        """Validate a job spec and enqueue it.

        Raises :class:`ValueError` for a malformed spec (HTTP 400) and
        :class:`~repro.service.jobs.QueueFull` on backpressure (429).
        """
        spec = dict(spec)
        # content_sha256 is a server-side field (set by _spool when it
        # hashes an inline upload, later seeding LoadedImage.content_hash).
        # A client-supplied value on a path job would poison the
        # content-addressed report cache with a forged digest.
        spec.pop("content_sha256", None)
        if kind == "analyze":
            if "binary_b64" in spec:
                spec["path"] = self._spool(spec)
            if not spec.get("path"):
                raise ValueError(
                    "analyze jobs need 'path' or 'binary_b64' (+ 'name')"
                )
        elif kind == "fleet":
            if not spec.get("directory"):
                raise ValueError("fleet jobs need 'directory'")
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        if not spec.get("libdir") and self.default_libdir:
            spec["libdir"] = self.default_libdir
        return self.queue.submit(kind, spec)

    def _spool(self, spec: dict) -> str:
        """Decode an inline submission into the spool directory.

        Spool files are content-addressed, so resubmitting the same
        bytes reuses one file and — through the artifact store — one
        analysis.  The admission-time digest is recorded in the job spec
        (``content_sha256``) and later seeds ``LoadedImage.content_hash``,
        so the executor never re-hashes bytes the spool already hashed.
        """
        try:
            data = base64.b64decode(spec.pop("binary_b64"), validate=True)
        except (ValueError, TypeError) as error:
            raise ValueError(f"binary_b64 is not valid base64: {error}") from None
        if len(data) > MAX_INLINE_BYTES:
            raise ValueError(
                f"inline binary exceeds {MAX_INLINE_BYTES} bytes"
            )
        name = _SAFE_NAME.sub("_", str(spec.get("name") or "submitted.bin"))
        spec.setdefault("name", name)
        digest = hashlib.sha256(data).hexdigest()
        spec["content_sha256"] = digest
        path = os.path.join(self.spool_dir, f"{digest[:16]}-{name}")
        if not os.path.exists(path):
            # per-writer temp name: handler threads spool identical bytes
            # concurrently, and a shared name lets one rename consume the
            # other's file
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent).

        No-op when this instance was built with ``dispatcher=False`` —
        a front end whose queue is drained by external worker processes
        must never also run jobs locally."""
        if not self.run_dispatcher or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch, name="bside-dispatcher", daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _dispatch(self) -> None:
        while not self._stop.is_set():
            self.step(timeout=0.2)

    def step(self, timeout: float | None = 0.0) -> int:
        """Take and run one batch synchronously; returns its size.

        The dispatcher thread calls this in a loop; tests and the
        throughput benchmark may call it directly on a stopped service.
        """
        batch = self.queue.take_batch(self.batch_size, timeout=timeout)
        if not batch:
            return 0
        try:
            self._run_batch(batch)
        except Exception as error:  # never kill the dispatcher
            logger.exception("service: batch execution failed")
            for job in batch:
                if job.status == "running":
                    self._finish(job, error=f"internal error: {error}")
        return len(batch)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def _resolver(self, libdir: str | None) -> LibraryResolver:
        return LibraryResolver(search_dir=libdir or None)

    def _finish(self, job: Job, *, error: str = "") -> None:
        """Record a terminal transition, unless our lease was reaped.

        A worker that stalled past the lease TTL may have had this job
        re-leased to a peer; persisting its late result would
        double-complete the job, so the result is discarded instead
        (idempotent anyway: the analysis landed in the shared artifact
        store, and the new owner serves it from cache).
        """
        if (
            self.worker_id is not None
            and not self.queue.owns_lease(job.id, self.worker_id)
        ):
            logger.warning(
                "worker %s lost the lease on %s; discarding its result",
                self.worker_id, job.id,
            )
            return
        self.queue.finish(job, error=error)

    def run_batch(self, batch: list[Job]) -> None:
        """Execute a batch of already-claimed (``running``) jobs.

        Public entry point for worker processes
        (:class:`~repro.service.worker.ServiceWorker`), which claim via
        leases instead of :meth:`JobQueue.take_batch`.
        """
        self._run_batch(batch)

    def _run_batch(self, batch: list[Job]) -> None:
        kind = batch[0].kind
        libdir = batch[0].spec.get("libdir")
        if kind == "fleet":
            for job in batch:
                self._run_fleet_job(job)
            return

        # One fleet pass over the whole analyze batch: resolver and
        # interface warm-up are paid once, cached reports are phase 1.
        images: list[LoadedImage] = []
        image_jobs: list[Job] = []
        for job in batch:
            try:
                image = LoadedImage.from_path(
                    job.spec["path"],
                    content_hash=job.spec.get("content_sha256"),
                )
            except (OSError, ElfError, ValueError) as error:
                self._finish(job, error=str(error))
                continue
            images.append(image)
            image_jobs.append(job)
        if not image_jobs:
            return
        batch_n = len(image_jobs)

        def finish_entry(index: int, entry: FleetEntry) -> None:
            # Fleet entries stream through this hook as they resolve:
            # cache-served jobs complete (and become pollable) while the
            # rest of the batch is still analyzing.  Mapping is by input
            # position — names may collide across submissions.
            self._finish_analyze(image_jobs[index], entry, batch_n)

        fleet = FleetAnalyzer(
            resolver=self._resolver(libdir),
            budget=self.budget,
            workers=self.fleet_workers,
            artifact_store=self.artifacts,
            incremental=self.incremental,
            on_entry=finish_entry,
        )
        try:
            fleet.analyze_images(images)
        except (ReproError, LoaderError) as error:
            for job in image_jobs:
                if job.status == STATUS_RUNNING:
                    self._finish(job, error=str(error))

    def _finish_analyze(self, job: Job, entry: FleetEntry, batch_size: int) -> None:
        job.result = entry.report.to_doc()
        # merge, not replace: lease claims stamp metrics["worker"] first
        job.metrics = {
            **job.metrics,
            "seconds": round(entry.seconds, 6),
            "cache_hits": entry.cache_hits,
            "cache_misses": entry.cache_misses,
            "from_cache": entry.from_cache,
            "batch_size": batch_size,
            "queue_seconds": round(
                (job.started_at or job.submitted_at) - job.submitted_at, 6
            ),
        }
        if entry.report.functions_total:
            job.metrics["functions_total"] = entry.report.functions_total
            job.metrics["functions_reanalyzed"] = (
                entry.report.functions_reanalyzed
            )
        if entry.report.sites_total:
            job.metrics["sites_total"] = entry.report.sites_total
            job.metrics["sites_reexecuted"] = entry.report.sites_reexecuted
        self._finish(job)

    def _run_fleet_job(self, job: Job) -> None:
        directory = job.spec["directory"]
        fleet = FleetAnalyzer(
            resolver=self._resolver(job.spec.get("libdir")),
            budget=self.budget,
            workers=self.fleet_workers,
            artifact_store=self.artifacts,
            incremental=self.incremental,
        )
        started = time.perf_counter()
        try:
            report = fleet.analyze_directory(directory)
        except (OSError, ReproError) as error:
            self._finish(job, error=str(error))
            return
        job.result = {
            "fleet": True,
            "report": json.loads(report.to_json()),
        }
        job.metrics = {
            **job.metrics,
            "seconds": round(time.perf_counter() - started, 6),
            "binaries": len(report.entries),
            "from_cache": all(e.from_cache for e in report.entries)
            if report.entries else False,
            "batch_size": 1,
        }
        self._finish(job)

    # ------------------------------------------------------------------
    # Introspection (the /v1/stats document)
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        doc = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "mode": "shared" if self.shared else "local",
            "workers": self.workers,
            "fleet_workers": self.fleet_workers,
            "batch_size": self.batch_size,
            "shards": self.shards,
            "incremental": self.incremental,
            "pipeline_runs": pipeline_runs(),
            "queue": self.queue.stats(),
            "cache": self.artifacts.stats(),
        }
        if self.incremental:
            doc["incremental_totals"] = self.queue.metric_totals((
                "functions_total", "functions_reanalyzed",
                "sites_total", "sites_reexecuted",
            ))
        return doc
