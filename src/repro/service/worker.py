"""Worker processes that drain a shared job queue via lease claims.

A :class:`ServiceWorker` is the multi-process counterpart of the
executor's in-process dispatcher thread: it opens the *same* state
directory as the front end (locally or over a shared filesystem),
claims batches of queued jobs with lease files
(:meth:`~repro.service.jobs.JobQueue.claim_batch`), runs them through
the ordinary batch executor, and heartbeats its leases from a
background thread so peers can tell a busy worker from a dead one.

Deployment shapes:

* ``bside serve --workers N`` — the front end spawns N workers next to
  itself (:func:`spawn_workers`) and runs no local dispatcher;
* ``bside serve --join STATE_DIR`` — a worker-only process attaches to
  an existing deployment, reading ``service.json`` so its shard count,
  cache root, and lease TTL agree with the front end.

Workers are crash-safe by construction: a killed worker's leases
expire, a peer (or the next worker to look) re-queues its jobs, and
the content-addressed artifact store makes any repeated analysis a
cache hit.  Every claim and batch completion is appended to
``<jobs>/exec.log`` (one JSON object per line, ``O_APPEND``), which the
fault-injection tests read to prove exactly-once execution.

The worker entry points (:func:`worker_main`) are module-level so the
``spawn`` multiprocessing context can import them — ``spawn`` is used
rather than ``fork`` because the parent daemon runs threads, and
forking a threaded process is a deadlock lottery.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import threading
import time

from ..core.report import AnalysisBudget
from .executor import AnalysisService

logger = logging.getLogger(__name__)

#: execution journal (under the queue directory), append-only JSON lines
EXEC_LOG = "exec.log"


class ServiceWorker:
    """One queue-draining worker over a shared service state directory."""

    def __init__(
        self,
        state_dir: str,
        worker_id: str | None = None,
        *,
        poll: float = 0.2,
        heartbeat_interval: float | None = None,
        **overrides,
    ) -> None:
        config = AnalysisService.load_config(state_dir)
        config.pop("version", None)
        kwargs = {
            "cache_dir": config.get("cache_dir"),
            "shards": config.get("shards", 1),
            "libdir": config.get("libdir"),
            "queue_size": config.get("queue_size", 64),
            "batch_factor": config.get("batch_factor", 4),
            "lease_ttl": config.get("lease_ttl", 30.0),
        }
        kwargs.update(overrides)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.service = AnalysisService(
            state_dir,
            shared=True,
            worker_id=self.worker_id,
            **kwargs,
        )
        self.queue = self.service.queue
        self.poll = poll
        # well under the TTL so a busy-but-alive worker never expires
        self.heartbeat_interval = heartbeat_interval or min(
            5.0, max(0.05, self.queue.lease_ttl / 10.0)
        )
        self._log_path = os.path.join(self.queue.state_dir, EXEC_LOG)

    # ------------------------------------------------------------------
    # Execution journal
    # ------------------------------------------------------------------

    def _journal(self, event: str, job_ids: list[str]) -> None:
        line = json.dumps({
            "ts": time.time(),
            "worker": self.worker_id,
            "event": event,
            "jobs": job_ids,
        }) + "\n"
        try:
            fd = os.open(self._log_path,
                         os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:  # observability only — never kills the worker
            logger.warning("worker %s: journal write failed", self.worker_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            self.queue.heartbeat(self.worker_id)

    def run(
        self,
        *,
        stop_event: threading.Event | None = None,
        max_batches: int | None = None,
        idle_exit: float | None = None,
    ) -> int:
        """Claim and execute batches until told (or idle long enough) to stop.

        ``idle_exit`` makes the worker return after that many seconds
        without claimable work — drain mode, used by benchmarks and
        tests.  Returns the number of batches executed.
        """
        hb_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(hb_stop,),
            name=f"{self.worker_id}-heartbeat", daemon=True,
        )
        heartbeat.start()
        batches = 0
        idle_since = time.monotonic()
        try:
            while not (stop_event is not None and stop_event.is_set()):
                try:
                    batch = self.queue.claim_batch(
                        self.worker_id, self.service.batch_size,
                        timeout=self.poll,
                    )
                except Exception:  # keep the worker alive
                    # A claim-path failure (lease I/O race, transient
                    # filesystem error) must not silently kill the
                    # process: with one worker dead, queued jobs would
                    # never drain.
                    logger.exception(
                        "worker %s: claim failed", self.worker_id
                    )
                    self._journal("claim-error", [])
                    time.sleep(self.poll)
                    continue
                if not batch:
                    if (idle_exit is not None
                            and time.monotonic() - idle_since >= idle_exit):
                        break
                    continue
                idle_since = time.monotonic()
                job_ids = [job.id for job in batch]
                self._journal("claim", job_ids)
                try:
                    self.service.run_batch(batch)
                except Exception as error:  # keep the worker alive
                    logger.exception(
                        "worker %s: batch failed", self.worker_id
                    )
                    for job in batch:
                        if job.status == "running":
                            self.queue.finish(
                                job, error=f"internal error: {error}"
                            )
                self._journal("batch-done", job_ids)
                batches += 1
                idle_since = time.monotonic()
                if max_batches is not None and batches >= max_batches:
                    break
        finally:
            hb_stop.set()
            heartbeat.join(2.0)
            for job_id in list(self.queue._held):
                self.queue.release(job_id)
        return batches


def worker_main(state_dir: str, worker_id: str,
                overrides: dict | None = None) -> None:
    """Process entry point (must be importable for ``spawn``)."""
    overrides = dict(overrides or {})
    budget_doc = overrides.pop("budget", None)
    if budget_doc:
        overrides["budget"] = AnalysisBudget(**budget_doc)
    worker = ServiceWorker(state_dir, worker_id, **overrides)
    worker.run()


def spawn_workers(
    state_dir: str,
    count: int,
    *,
    prefix: str = "worker",
    overrides: dict | None = None,
) -> list[multiprocessing.Process]:
    """Start ``count`` worker processes over one state directory.

    Uses the ``spawn`` start method (fork-with-threads is unsafe in the
    daemon).  Workers are daemonic: they die with the front end, and
    their leases expire so a restarted deployment recovers their jobs.
    """
    ctx = multiprocessing.get_context("spawn")
    processes = []
    for index in range(max(1, int(count))):
        process = ctx.Process(
            target=worker_main,
            args=(state_dir, f"{prefix}-{index + 1}", overrides),
            name=f"bside-{prefix}-{index + 1}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
