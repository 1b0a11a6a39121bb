"""Job records and the bounded, disk-persistent, multi-worker job queue.

A :class:`Job` is one unit of service work: analyze a single binary
(kind ``analyze``) or sweep a directory (kind ``fleet``).  Its whole
lifecycle — spec, status, timestamps, result, metrics — lives in one
JSON file under ``<state_dir>/<id>.json``, written atomically on every
transition, so a daemon restart recovers the queue exactly:

* ``done`` / ``failed`` jobs keep serving their results after a restart;
* ``queued`` jobs are re-enqueued in submission order;
* ``running`` jobs (the daemon died mid-batch) are re-enqueued too —
  re-execution is safe because results are content-addressed: a job
  whose analysis already landed in the artifact store is served from
  cache the second time.

The queue is **bounded**: :meth:`JobQueue.submit` raises
:class:`QueueFull` when ``maxsize`` jobs are waiting, which the HTTP
layer surfaces as ``429 Too Many Requests`` — backpressure instead of
unbounded memory growth.  A job the front end answered from the report
store at submission (:meth:`JobQueue.submit_done`) never waits, so it
takes no queue slot and is never refused.

Every terminal transition made through :meth:`JobQueue.finish` is
announced to the callables in :attr:`JobQueue.finish_listeners` (the
asyncio front end wakes its long-polls from there).

Batching: :meth:`take_batch` hands the executor up to ``max_jobs``
queued jobs that share a *group key* (kind + library directory), so one
:class:`~repro.core.fleet.FleetAnalyzer` run can amortise resolver
construction and interface warm-up across the whole batch.

Multi-worker mode (``shared=True``)
-----------------------------------

One state directory can be drained by **multiple worker processes**
(:mod:`repro.service.worker`), on one machine or several sharing a
filesystem.  Coordination is lease-based and needs no lock server:

* **claim** — :meth:`claim_batch` takes a job by atomically creating
  ``<state_dir>/leases/<id>.lease`` with ``O_CREAT | O_EXCL``: exactly
  one claimant wins however many race, including re-claims of an
  expired lease.
* **heartbeat** — the owning worker refreshes its lease files' mtimes
  (:meth:`heartbeat`) while it works, including mid-analysis.
* **expiry** — a lease whose mtime is older than ``lease_ttl`` marks a
  dead (or wedged) worker.  :meth:`reclaim_expired` *breaks* such a
  lease by renaming it to a unique reap file — again, exactly one
  breaker wins — and re-queues the job, so a crashed worker's jobs are
  re-leased and completed by its peers.  Because results are
  content-addressed, a re-run of work the dead worker had already
  finished is served from the artifact store.
* **quarantine** — a job record that no longer parses (disk corruption,
  truncated write by a killed process) is moved to
  ``<state_dir>/quarantine/`` and counted, never crashing recovery;
  the count is surfaced through ``/v1/stats``.

Exactly-once caveat: the lease protocol guarantees a single *claimant*
per lease epoch.  A worker that is alive but paused longer than
``lease_ttl`` without heartbeating can lose its lease while mid-job;
workers therefore heartbeat from a background thread and verify lease
ownership (:meth:`owns_lease`) before persisting results, discarding
work they no longer own.  Size ``lease_ttl`` well above the heartbeat
interval (the worker defaults keep a ~10x margin).
"""

from __future__ import annotations

import json
import os
import threading
import time

#: job lifecycle states
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

STATUSES = (STATUS_QUEUED, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)

#: terminal states: never re-queued, results immutable
TERMINAL = (STATUS_DONE, STATUS_FAILED)

from dataclasses import dataclass, field  # noqa: E402


def _stamp(st: os.stat_result) -> tuple:
    """What tells one atomic write of a record from another: every write
    is a new file (new inode), and mtime + size guard inode reuse."""
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class QueueFull(Exception):
    """The bounded queue rejected a submission (HTTP 429)."""


@dataclass
class Job:
    """One service work item and its full lifecycle record."""

    id: str
    kind: str  # "analyze" | "fleet"
    spec: dict
    status: str = STATUS_QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: service-level error (bad path, unreadable ELF) — analysis
    #: failures are *results* (status ``done``, ``report.success=False``)
    error: str = ""
    #: AnalysisReport doc (analyze) or FleetReport doc (fleet)
    result: dict | None = None
    #: per-job timing / cache metrics filled in by the executor
    metrics: dict = field(default_factory=dict)

    def group_key(self) -> tuple:
        """Jobs with equal keys may run in one batched fleet pass."""
        return (self.kind, self.spec.get("libdir") or "")

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "spec": self.spec,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "result": self.result,
            "metrics": self.metrics,
        }

    def summary(self) -> dict:
        """The job listing / status document (result omitted)."""
        doc = self.to_doc()
        doc.pop("result")
        doc["has_result"] = self.result is not None
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "Job":
        return cls(
            id=doc["id"],
            kind=doc["kind"],
            spec=dict(doc["spec"]),
            status=doc["status"],
            submitted_at=doc.get("submitted_at", 0.0),
            started_at=doc.get("started_at"),
            finished_at=doc.get("finished_at"),
            error=doc.get("error", ""),
            result=doc.get("result"),
            metrics=dict(doc.get("metrics", {})),
        )


class JobQueue:
    """Bounded FIFO of :class:`Job` records, persisted one file per job.

    Thread-safe: HTTP handler threads submit and read, the executor's
    dispatcher thread takes batches and records transitions.  With
    ``shared=True`` the same directory is additionally drained by other
    *processes* (lease-based claims; see the module docstring), and
    reads refresh from disk so one process observes another's
    transitions.
    """

    def __init__(
        self,
        state_dir: str,
        maxsize: int = 64,
        *,
        shared: bool = False,
        lease_ttl: float = 30.0,
    ) -> None:
        self.state_dir = state_dir
        self.maxsize = max(1, int(maxsize))
        self.shared = bool(shared)
        self.lease_ttl = float(lease_ttl)
        self.lease_dir = os.path.join(state_dir, "leases")
        self.quarantine_dir = os.path.join(state_dir, "quarantine")
        os.makedirs(state_dir, exist_ok=True)
        os.makedirs(self.lease_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queued: list[str] = []  # FIFO of queued job ids
        self._seq = 0
        #: stamp of each job record as last written or read by this
        #: instance (shared-mode refresh bookkeeping; see :func:`_stamp`)
        self._stamps: dict[str, tuple] = {}
        #: leases held by *this* instance: job id -> worker id
        self._held: dict[str, str] = {}
        self._last_refresh = 0.0
        #: session counters for the stats endpoint
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "recovered": 0,
            "quarantined": 0,
            "reclaimed": 0,
            #: answered from the report store at submission, never queued
            "served_at_submit": 0,
        }
        #: ``callable(job_id)`` hooks run after every :meth:`finish`, on
        #: the finishing thread; they must be quick and must not raise
        self.finish_listeners: list = []
        self._recover()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.json")

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.lease_dir, f"{job_id}.lease")

    def persist(self, job: Job) -> None:
        """Atomically write one job's current state to disk."""
        path = self._path(job.id)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        # compact, so the C encoder runs: a done job's record carries its
        # whole report, and the indenting encoder is pure Python
        data = json.dumps(job.to_doc(), separators=(",", ":"))
        with open(tmp, "w") as f:
            f.write(data)
        # stamped before the rename: a peer process may replace the
        # record right after it, and stamping the path then would mark
        # the peer's version as already read
        self._stamps[job.id] = _stamp(os.stat(tmp))
        os.replace(tmp, path)

    def _quarantine(self, path: str) -> None:
        """Move an unparseable record aside; recovery must never crash
        on disk corruption, and the loss must be *visible* (counted,
        surfaced in stats), not silent."""
        dest = os.path.join(self.quarantine_dir, os.path.basename(path))
        try:
            os.replace(path, dest)
        except OSError:
            return
        self.counters["quarantined"] += 1

    def _load_job_file(self, job_id: str) -> Job | None:
        path = self._path(job_id)
        try:
            with open(path) as f:
                return Job.from_doc(json.load(f))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            return None

    def _record_ids_on_disk(self) -> list[str]:
        try:
            names = os.listdir(self.state_dir)
        except FileNotFoundError:
            return []
        return sorted(
            (name[:-5] for name in names
             if name.endswith(".json") and not name.startswith(".")),
            key=self._seq_of,
        )

    def _recover(self) -> None:
        """Reload every job file; re-enqueue interrupted work.

        A ``running`` job means a previous daemon died mid-batch; it is
        re-queued, which is idempotent because a completed analysis is
        served from the artifact store on re-execution.  In shared mode
        a ``running`` job may belong to a *live* worker in another
        process — it is left alone; :meth:`reclaim_expired` re-queues it
        if its lease goes stale.  Corrupt records are quarantined.
        """
        for job_id in self._record_ids_on_disk():
            # stamp before reading: a peer's later write must look new
            try:
                stamp = _stamp(os.stat(self._path(job_id)))
            except OSError:
                continue
            job = self._load_job_file(job_id)
            if job is None:
                continue
            self._jobs[job.id] = job
            self._stamps[job.id] = stamp
            self._seq = max(self._seq, self._seq_of(job.id))
            if job.status == STATUS_QUEUED:
                self._queued.append(job.id)
                self.counters["recovered"] += 1
            elif job.status == STATUS_RUNNING:
                if self.shared and os.path.exists(self._lease_path(job.id)):
                    continue  # a live worker owns it; expiry handles death
                job.status = STATUS_QUEUED
                job.started_at = None
                self.persist(job)
                self._queued.append(job.id)
                self.counters["recovered"] += 1

    @staticmethod
    def _seq_of(job_id: str) -> int:
        """Submission sequence number of ``job_id``: the FIFO sort key.

        Ids are zero-padded to six digits only, so string order breaks
        after ``job-999999``."""
        try:
            return int(job_id.rsplit("-", 1)[-1])
        except ValueError:
            return 0

    # ------------------------------------------------------------------
    # Shared-mode disk refresh
    # ------------------------------------------------------------------

    def refresh(self, min_interval: float = 0.0) -> None:
        """Fold other processes' transitions (and submissions) into this
        instance's view.  No-op unless ``shared``; throttled by
        ``min_interval`` so hot paths (submit backpressure, stats) pay
        one directory scan per interval, not per request."""
        if not self.shared:
            return
        now = time.monotonic()
        with self._lock:
            if min_interval and now - self._last_refresh < min_interval:
                return
            self._last_refresh = now
        changed: list[Job] = []
        on_disk = self._record_ids_on_disk()
        for job_id in on_disk:
            try:
                stamp = _stamp(os.stat(self._path(job_id)))
            except OSError:
                continue
            with self._lock:
                if job_id in self._jobs and self._stamps.get(job_id) == stamp:
                    continue
            job = self._load_job_file(job_id)
            if job is None:
                continue
            with self._lock:
                self._jobs[job.id] = job
                self._stamps[job.id] = stamp
                self._seq = max(self._seq, self._seq_of(job.id))
            changed.append(job)
        with self._lock:
            # Merge, don't replace: a submission racing this scan may be
            # in _queued but not yet in the directory listing we took.
            queued = {
                job_id for job_id in self._queued
                if self._jobs[job_id].status == STATUS_QUEUED
            }
            queued.update(
                job.id for job in self._jobs.values()
                if job.status == STATUS_QUEUED
            )
            self._queued = sorted(queued, key=self._seq_of)
            if self._queued:
                self._not_empty.notify_all()

    # ------------------------------------------------------------------
    # Producer side (HTTP handlers)
    # ------------------------------------------------------------------

    def submit(self, kind: str, spec: dict) -> Job:
        """Enqueue one job; raises :class:`QueueFull` on backpressure."""
        self.refresh(min_interval=0.05)
        with self._lock:
            if len(self._queued) >= self.maxsize:
                self.counters["rejected"] += 1
                raise QueueFull(
                    f"queue full ({self.maxsize} jobs waiting); retry later"
                )
            job = self._new_job(kind, spec, submitted_at=time.time())
            self._queued.append(job.id)
            self.persist(job)
            self._not_empty.notify()
            return job

    def submit_done(self, kind: str, spec: dict, *, submitted_at: float,
                    result: dict, metrics: dict) -> Job:
        """Record a job that was answered at submission time.

        The job is created ``done`` and persisted once.  It never enters
        the FIFO, so it takes no queue slot and is admitted even when
        the queue is full: backpressure bounds waiting work, and this
        job never waits.
        """
        with self._lock:
            job = self._new_job(
                kind, spec, status=STATUS_DONE, submitted_at=submitted_at,
                started_at=submitted_at, finished_at=time.time(),
                result=result, metrics=metrics,
            )
            self.counters["served_at_submit"] += 1
            self.persist(job)
            return job

    def _new_job(self, kind: str, spec: dict, **fields) -> Job:
        """Allocate the next job id and register the job (lock held)."""
        self._seq += 1
        job = Job(id=f"job-{self._seq:06d}", kind=kind, spec=dict(spec),
                  **fields)
        self._jobs[job.id] = job
        self.counters["submitted"] += 1
        return job

    # ------------------------------------------------------------------
    # Consumer side: in-process dispatcher
    # ------------------------------------------------------------------

    def take_batch(self, max_jobs: int, timeout: float | None = None) -> list[Job]:
        """Pop up to ``max_jobs`` queued jobs sharing one group key.

        Blocks up to ``timeout`` seconds for the first job (empty list on
        timeout).  The batch starts at the head of the FIFO and extends
        with later compatible jobs — incompatible ones keep their place.
        """
        with self._not_empty:
            if not self._queued:
                self._not_empty.wait(timeout)
            if not self._queued:
                return []
            head = self._jobs[self._queued[0]]
            key = head.group_key()
            batch: list[Job] = []
            remaining: list[str] = []
            for job_id in self._queued:
                job = self._jobs[job_id]
                if len(batch) < max_jobs and job.group_key() == key:
                    batch.append(job)
                else:
                    remaining.append(job_id)
            self._queued = remaining
            for job in batch:
                job.status = STATUS_RUNNING
                job.started_at = time.time()
                self.persist(job)
            return batch

    # ------------------------------------------------------------------
    # Consumer side: lease-based claims (worker processes)
    # ------------------------------------------------------------------

    def acquire_lease(self, job_id: str, worker_id: str) -> bool:
        """Atomically claim one job for ``worker_id``.

        ``O_CREAT | O_EXCL`` makes the filesystem the arbiter: exactly
        one concurrent claimant succeeds, including the double-claim
        race after a lease expiry.
        """
        path = self._lease_path(job_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as f:
            json.dump({"worker": worker_id, "acquired_at": time.time()}, f)
        self._held[job_id] = worker_id
        return True

    def owns_lease(self, job_id: str, worker_id: str) -> bool:
        """True while ``worker_id``'s claim on the job is still on disk.

        Workers check this before persisting results: a worker that
        stalled past ``lease_ttl`` may have been reaped, and must
        discard its work instead of double-completing the job.
        """
        try:
            with open(self._lease_path(job_id)) as f:
                return json.load(f).get("worker") == worker_id
        except (OSError, json.JSONDecodeError):
            return False

    def release(self, job_id: str) -> None:
        """Drop a lease held by this instance (no-op otherwise)."""
        if self._held.pop(job_id, None) is None:
            return
        try:
            os.remove(self._lease_path(job_id))
        except FileNotFoundError:
            pass

    def heartbeat(self, worker_id: str) -> int:
        """Refresh the mtime of every lease this instance holds.

        Returns the number of live leases; a lease that vanished (reaped
        by a peer) is dropped from the held set.
        """
        alive = 0
        for job_id in list(self._held):
            try:
                os.utime(self._lease_path(job_id))
                alive += 1
            except FileNotFoundError:
                self._held.pop(job_id, None)
        return alive

    def claim_batch(
        self,
        worker_id: str,
        max_jobs: int,
        timeout: float | None = None,
        poll: float = 0.05,
    ) -> list[Job]:
        """Lease-claim up to ``max_jobs`` queued jobs sharing a group key.

        The multi-process counterpart of :meth:`take_batch`: candidates
        come from the shared directory (via :meth:`refresh`), and each
        is claimed with :meth:`acquire_lease` so concurrent workers
        never double-take a job.  Expired peers' leases are reclaimed
        first, extending restart recovery to mid-flight crashes.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            self.refresh()
            self.reclaim_expired()
            with self._lock:
                candidates = list(self._queued)
            batch: list[Job] = []
            key: tuple | None = None
            claimed_away: list[str] = []
            for job_id in candidates:
                if len(batch) >= max_jobs:
                    break
                with self._lock:
                    job = self._jobs.get(job_id)
                if job is None or job.status != STATUS_QUEUED:
                    claimed_away.append(job_id)
                    continue
                if key is not None and job.group_key() != key:
                    continue  # incompatible: keeps its queue place
                if not self.acquire_lease(job_id, worker_id):
                    claimed_away.append(job_id)  # a peer won the race
                    continue
                # The lease arbitrates *claimants*, but our queued view
                # may be stale (a peer claimed, finished, and released
                # since our last refresh — its lease is gone but the job
                # is done).  Re-read the record under the lease: only a
                # disk-confirmed queued job may run, or a finished job
                # would be re-executed.
                fresh = self._load_job_file(job_id)
                if fresh is None or fresh.status != STATUS_QUEUED:
                    self.release(job_id)
                    claimed_away.append(job_id)
                    if fresh is not None:
                        with self._lock:
                            self._jobs[job_id] = fresh
                    continue
                if key is None:
                    key = fresh.group_key()
                fresh.status = STATUS_RUNNING
                fresh.started_at = time.time()
                fresh.metrics["worker"] = worker_id
                self.persist(fresh)
                with self._lock:
                    self._jobs[job_id] = fresh
                batch.append(fresh)
            with self._lock:
                gone = set(claimed_away) | {job.id for job in batch}
                self._queued = [
                    job_id for job_id in self._queued if job_id not in gone
                ]
            if batch or deadline is None or time.monotonic() >= deadline:
                return batch
            time.sleep(poll)

    def reclaim_expired(self) -> int:
        """Break stale leases and re-queue their non-terminal jobs.

        Breaking is atomic — the lease is renamed to a unique reap file,
        and only one renamer can win — so concurrent reclaimers plus a
        fresh claimant still yield exactly one next owner.
        """
        try:
            names = os.listdir(self.lease_dir)
        except FileNotFoundError:
            return 0
        now = time.time()
        reclaimed = 0
        for name in names:
            if not name.endswith(".lease"):
                continue
            job_id = name[: -len(".lease")]
            if job_id in self._held:
                continue  # never reap our own lease
            path = os.path.join(self.lease_dir, name)
            try:
                if now - os.stat(path).st_mtime < self.lease_ttl:
                    continue
            except FileNotFoundError:
                continue
            reap = f"{path}.reap.{os.getpid()}.{threading.get_ident()}"
            try:
                os.rename(path, reap)  # exactly one breaker wins
            except FileNotFoundError:
                continue
            try:
                os.remove(reap)
            except FileNotFoundError:
                pass
            job = self._load_job_file(job_id)
            if job is None:
                continue
            with self._lock:
                if job.status in TERMINAL:
                    # The owner died between persisting the result and
                    # releasing the lease: result stands, nothing to redo.
                    self._jobs[job.id] = job
                    continue
                job.status = STATUS_QUEUED
                job.started_at = None
                self.persist(job)
                self._jobs[job.id] = job
                if job.id not in self._queued:
                    self._queued.append(job.id)
                    self._queued.sort(key=self._seq_of)
                self.counters["reclaimed"] += 1
                self._not_empty.notify()
            reclaimed += 1
        return reclaimed

    def finish(self, job: Job, *, error: str = "") -> None:
        """Record a job's terminal transition (done, or failed)."""
        with self._lock:
            job.finished_at = time.time()
            if error:
                job.status = STATUS_FAILED
                job.error = error
            else:
                job.status = STATUS_DONE
            self.persist(job)
        self.release(job.id)
        for listener in self.finish_listeners:
            listener(job.id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
            known_terminal = job is not None and job.status in TERMINAL
        if not self.shared or known_terminal:
            return job
        # Another process may have advanced (or created) this job.
        try:
            stamp = _stamp(os.stat(self._path(job_id)))
        except OSError:
            return job
        with self._lock:
            if job is not None and self._stamps.get(job_id) == stamp:
                return job
        fresh = self._load_job_file(job_id)
        if fresh is None:
            return job
        with self._lock:
            self._jobs[fresh.id] = fresh
            self._stamps[fresh.id] = stamp
            if fresh.status != STATUS_QUEUED and fresh.id in self._queued:
                self._queued.remove(fresh.id)
            return fresh

    def jobs(self) -> list[Job]:
        """Every known job, submission order."""
        self.refresh(min_interval=0.05)
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: self._seq_of(j.id))

    def depth(self) -> int:
        self.refresh(min_interval=0.05)
        with self._lock:
            return len(self._queued)

    def lease_stats(self) -> dict:
        """Active leases and the worker ids behind them (shared mode)."""
        try:
            names = os.listdir(self.lease_dir)
        except FileNotFoundError:
            names = []
        now = time.time()
        active = 0
        stale = 0
        workers: set[str] = set()
        for name in names:
            if not name.endswith(".lease"):
                continue
            path = os.path.join(self.lease_dir, name)
            try:
                mtime = os.stat(path).st_mtime
                with open(path) as f:
                    owner = json.load(f).get("worker", "?")
            except (OSError, json.JSONDecodeError):
                continue
            if now - mtime >= self.lease_ttl:
                stale += 1
                continue
            active += 1
            workers.add(str(owner))
        return {
            "active": active,
            "stale": stale,
            "workers": sorted(workers),
            "ttl_seconds": self.lease_ttl,
        }

    def stats(self) -> dict:
        self.refresh(min_interval=0.05)
        with self._lock:
            by_status = {status: 0 for status in STATUSES}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            doc = {
                "depth": len(self._queued),
                "capacity": self.maxsize,
                "jobs": by_status,
                **self.counters,
            }
        if self.shared:
            doc["leases"] = self.lease_stats()
        return doc
