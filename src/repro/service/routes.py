"""Transport-independent ``/v1`` API routing.

This module is the single source of the API contract.  The front end
(:mod:`repro.service.aserver`) reads the request off its transport
(enforcing the body bound, 413), holds long-polls on its event loop,
and calls :func:`handle_request` for everything else — routing, spec
validation, status codes, error shapes all happen here.

Endpoint reference (full examples in ``docs/service-api.md``):

=========  ==============================  =====================================
method     path                            meaning
=========  ==============================  =====================================
GET        ``/v1/healthz``                 liveness probe
GET        ``/v1/stats``                   queue depth, cache + pipeline stats
POST       ``/v1/jobs``                    submit a job (200 done from cache,
                                           202 queued; 429 on backpressure)
GET        ``/v1/jobs``                    list jobs (summaries)
GET        ``/v1/jobs/<id>``               one job's status + metrics;
                                           ``?wait=S`` long-polls up to S s
GET        ``/v1/jobs/<id>/report``        the AnalysisReport / FleetReport JSON
GET        ``/v1/jobs/<id>/filter``        derived seccomp-style filter
GET        ``/v1/jobs/<id>/profile``       derived OCI/Docker seccomp profile
=========  ==============================  =====================================

Status codes: 200 ok (a submission answered from the report store),
202 accepted (queued), 400 bad spec or bad ``wait``, 404 unknown,
405 wrong method, 409 not-ready-yet / failed, 413 oversized body
(transport layer), 429 queue full.  Every response body is JSON;
errors are ``{"error": ...}``.
"""

from __future__ import annotations

import json
import math
import urllib.parse
from dataclasses import dataclass

from ..core.report import AnalysisReport
from ..filters.docker import profile_from_report
from ..filters.seccomp import FilterProgram
from ..syscalls.table import name_of
from .jobs import STATUS_DONE, Job, QueueFull

#: longest a ``?wait=S`` long-poll is held; a larger S is capped to it
MAX_WAIT_SECONDS = 30.0


@dataclass
class ApiResult:
    """One routed response: status code, JSON document, extra headers."""

    status: int
    doc: dict
    retry_after: int | None = None

    def body(self) -> bytes:
        return (json.dumps(self.doc, indent=2) + "\n").encode()

    def headers(self) -> list[tuple[str, str]]:
        extra = []
        if self.retry_after is not None:
            extra.append(("Retry-After", str(self.retry_after)))
        return extra


def _error(status: int, message: str, retry_after: int | None = None,
           **extra) -> ApiResult:
    return ApiResult(status, {"error": message, **extra}, retry_after)


def handle_request(service, method: str, path: str,
                   raw_body: bytes = b"") -> ApiResult:
    """Route one request against an :class:`AnalysisService`.

    ``raw_body`` is the (already bounded) request body; only POST routes
    look at it.
    """
    parts = [p for p in path.split("?")[0].split("/") if p]
    if method == "GET":
        return _handle_get(service, parts, path)
    if method == "POST":
        return _handle_post(service, parts, path, raw_body)
    return _error(405, f"method {method} not allowed")


def long_poll(method: str, path: str) -> tuple[str, float] | None:
    """``(job id, seconds)`` when the request is ``GET /v1/jobs/<id>?wait=S``.

    ``None`` for every other request.  S is capped at
    :data:`MAX_WAIT_SECONDS`; a value that is not a finite number ≥ 0
    raises :class:`ValueError` (HTTP 400).
    """
    route, __, query = path.partition("?")
    parts = [p for p in route.split("/") if p]
    if method != "GET" or len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
        return None
    values = urllib.parse.parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return None
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(
            f"wait must be a number of seconds >= 0, got {values[-1]!r}"
        )
    return parts[2], min(seconds, MAX_WAIT_SECONDS)


def _handle_get(service, parts: list[str], path: str) -> ApiResult:
    if parts == ["v1", "healthz"]:
        return ApiResult(200, {"status": "ok"})
    if parts == ["v1", "stats"]:
        return ApiResult(200, service.stats())
    if parts == ["v1", "jobs"]:
        return ApiResult(
            200, {"jobs": [j.summary() for j in service.queue.jobs()]}
        )
    if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"]:
        return _get_job(service, parts[2], parts[3] if len(parts) == 4 else None)
    return _error(404, f"no such endpoint: {path}")


def _handle_post(service, parts: list[str], path: str,
                 raw_body: bytes) -> ApiResult:
    if parts != ["v1", "jobs"]:
        return _error(404, f"no such endpoint: {path}")
    try:
        doc = json.loads(raw_body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return _error(400, f"request body is not valid JSON: {error}")
    if not isinstance(doc, dict):
        return _error(400, "request body must be a JSON object")
    kind = doc.pop("kind", "analyze")
    try:
        job = service.submit(kind, doc)
    except QueueFull as full:
        return _error(429, str(full), retry_after=1)
    except ValueError as error:
        return _error(400, str(error))
    # a job answered from the report store is already done
    return ApiResult(200 if job.status == STATUS_DONE else 202,
                     {"job": job.summary()})


def _get_job(service, job_id: str, view: str | None) -> ApiResult:
    job = service.queue.get(job_id)
    if job is None:
        return _error(404, f"no such job: {job_id}")
    if view is None:
        return ApiResult(200, {"job": job.summary()})
    if job.status in ("queued", "running"):
        return _error(
            409, f"job {job_id} is {job.status}; poll until done",
            job_status=job.status,
        )
    if job.status == "failed":
        return _error(409, f"job {job_id} failed: {job.error}")
    if view == "report":
        return ApiResult(200, job.result or {})
    if view in ("filter", "profile"):
        return _derived(job, view)
    return _error(404, f"no such job view: {view}")


def _derived(job: Job, view: str) -> ApiResult:
    """Filter artifacts derived on demand from a completed report."""
    if job.kind != "analyze":
        return _error(400, f"{view} is only derivable from analyze jobs")
    report = AnalysisReport.from_doc(job.result)
    filt = FilterProgram.from_report(report)
    if view == "profile":
        return ApiResult(200, profile_from_report(report))
    return ApiResult(200, {
        "binary": report.binary,
        "sound": report.success and report.complete,
        "allowed": sorted(filt.allowed),
        "allowed_names": sorted(name_of(nr) for nr in filt.allowed),
        "n_blocked": filt.n_blocked,
        "rendered": filt.render(),
    })
