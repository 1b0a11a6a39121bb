"""Analysis-as-a-service: the ``bside serve`` daemon.

B-Side's consumers — seccomp installers, container profilers, fleet
inventory dashboards — speak request/response, not batch.  This package
turns the repo's analysis substrate (the three-phase
:class:`~repro.core.fleet.FleetAnalyzer` schedule and the
content-addressed :class:`~repro.core.artifacts.ArtifactStore`) into a
long-running daemon with an HTTP/JSON API, scalable from one process to
a multi-worker deployment over a shared state directory:

* :mod:`repro.service.jobs` — :class:`Job` records and the bounded,
  disk-persistent :class:`JobQueue` (backpressure, restart recovery,
  lease-based multi-worker claims with heartbeat + expiry).
* :mod:`repro.service.executor` — :class:`AnalysisService`, the
  batch-draining executor over the fleet engine (optionally sharding
  its artifact store across N roots).
* :mod:`repro.service.routes` — the single source of the ``/v1`` API
  contract.
* :mod:`repro.service.aserver` — :class:`AsyncServiceServer`, the
  asyncio front end (thousands of keep-alive connections and
  long-polls on one event loop).
* :mod:`repro.service.worker` — :class:`ServiceWorker` processes that
  drain a shared queue via lease claims (``bside serve --workers/--join``).
* :mod:`repro.service.client` — :class:`ServiceClient`, the stdlib
  HTTP client (timeouts + bounded 429 retry) used by ``bside submit``
  and ``examples/service_client.py``.

Everything is standard library only, like the rest of the repo.
"""

from .aserver import AsyncServiceServer
from .client import ServiceClient, ServiceError
from .executor import AnalysisService
from .jobs import Job, JobQueue, QueueFull
from .worker import ServiceWorker, spawn_workers, worker_main

__all__ = [
    "AnalysisService",
    "AsyncServiceServer",
    "Job",
    "JobQueue",
    "QueueFull",
    "ServiceClient",
    "ServiceError",
    "ServiceWorker",
    "spawn_workers",
    "worker_main",
]
