"""Stdlib HTTP client for the ``bside serve`` API.

Used by the ``bside submit`` subcommand, ``examples/service_client.py``,
the service test-suite, and the throughput benchmarks — one shared
implementation of the submit → poll → fetch conversation so the wire
protocol is exercised the same way everywhere.

Robustness contract (pinned by ``tests/test_service_async.py``):

* **timeouts** — connect and read deadlines are enforced separately;
  a daemon that accepts the TCP connection but never answers raises
  :class:`ServiceError` after ``read_timeout`` seconds instead of
  blocking the caller forever;
* **backpressure retries** — 429 responses are retried with bounded
  exponential backoff (honouring ``Retry-After``, capped), because a
  full queue is an invitation to come back, not a failure; every other
  error status raises immediately;
* **long-poll, then sleep** — :meth:`ServiceClient.wait` reads the job
  once with :meth:`ServiceClient.job`, then waits with
  ``GET /v1/jobs/<id>?wait=S`` requests, each held by the server until
  the job is terminal or S passes; S stays under ``read_timeout``.  A
  server that answers a long-poll early with an unfinished job ignores
  ``?wait=``; ``wait`` then sleeps ``poll`` between :meth:`job` calls.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import time
import urllib.parse

from ..errors import ReproError
from .jobs import TERMINAL

#: upper bound on any single retry sleep, Retry-After included
MAX_BACKOFF_SECONDS = 2.0

#: longest single ``?wait=S`` long-poll :meth:`ServiceClient.wait` asks for
LONG_POLL_SECONDS = 10.0


class ServiceError(ReproError):
    """An API error response (carries the HTTP status).

    Transport-level failures — unreachable daemon, connect or read
    timeout — use status 0.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Minimal JSON client over ``http.client`` (no third-party deps)."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
        retries: int = 3,
        backoff: float = 0.1,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r}")
        self._netloc = split.netloc or split.path
        self._prefix = split.path if split.netloc else ""

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _roundtrip(self, method: str, path: str,
                   data: bytes | None) -> tuple[int, bytes, str | None]:
        """One HTTP exchange; returns (status, body, Retry-After)."""
        conn = http.client.HTTPConnection(
            self._netloc, timeout=self.connect_timeout
        )
        try:
            conn.connect()
            if conn.sock is not None:
                # connect succeeded: the remaining budget is read time
                conn.sock.settimeout(self.read_timeout)
            conn.request(
                method, self._prefix + path, body=data,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
            return response.status, body, response.getheader("Retry-After")
        finally:
            conn.close()

    @staticmethod
    def _error_message(body: bytes, status: int) -> str:
        try:
            return json.loads(body.decode()).get("error", f"status {status}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            return f"status {status}"

    def _retry_delay(self, attempt: int, retry_after: str | None) -> float:
        delay = self.backoff * (2 ** attempt)
        if retry_after:
            try:
                delay = max(delay, float(retry_after) * self.backoff)
            except ValueError:
                pass
        return min(delay, MAX_BACKOFF_SECONDS)

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        url = self.base_url + path
        attempt = 0
        while True:
            try:
                status, raw, retry_after = self._roundtrip(method, path, data)
            except socket.timeout:
                raise ServiceError(
                    0, f"request to {url} timed out "
                       f"(connect={self.connect_timeout}s, "
                       f"read={self.read_timeout}s)"
                ) from None
            except (ConnectionError, http.client.HTTPException, OSError) as error:
                raise ServiceError(
                    0, f"cannot reach {self.base_url}: {error}"
                ) from None
            if status == 429 and attempt < self.retries:
                # Backpressure: bounded exponential backoff, then retry.
                time.sleep(self._retry_delay(attempt, retry_after))
                attempt += 1
                continue
            if status >= 400:
                raise ServiceError(status, self._error_message(raw, status))
            try:
                return json.loads(raw.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise ServiceError(
                    0, f"malformed response from {url}: {error}"
                ) from None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit_path(self, path: str, libdir: str | None = None) -> dict:
        """Submit a binary by daemon-visible filesystem path."""
        spec: dict = {"kind": "analyze", "path": path}
        if libdir:
            spec["libdir"] = libdir
        return self.request("POST", "/v1/jobs", spec)["job"]

    def submit_bytes(self, name: str, data: bytes,
                     libdir: str | None = None) -> dict:
        """Submit a binary inline (the daemon need not see your disk)."""
        spec: dict = {
            "kind": "analyze",
            "name": name,
            "binary_b64": base64.b64encode(data).decode(),
        }
        if libdir:
            spec["libdir"] = libdir
        return self.request("POST", "/v1/jobs", spec)["job"]

    def submit_directory(self, directory: str,
                         libdir: str | None = None) -> dict:
        """Submit a whole directory as one fleet job."""
        spec: dict = {"kind": "fleet", "directory": directory}
        if libdir:
            spec["libdir"] = libdir
        return self.request("POST", "/v1/jobs", spec)["job"]

    # ------------------------------------------------------------------
    # Polling and results
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> list[dict]:
        return self.request("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Wait until the job reaches a terminal state; returns the job.

        :meth:`job` is called once before any waiting and once after
        each ``poll`` sleep; long-polls are separate requests.  Sleeps
        happen only against a server that ignores ``?wait=``.  Raises
        :class:`ServiceError` (status 0) on timeout.
        """
        deadline = time.monotonic() + timeout
        job = self.job(job_id)
        long_polls = True
        while job["status"] not in TERMINAL:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    0, f"job {job_id} still {job['status']} after {timeout}s"
                )
            if long_polls:
                seconds = max(0.001, min(
                    remaining, LONG_POLL_SECONDS, self.read_timeout / 2,
                ))
                started = time.monotonic()
                job = self.request(
                    "GET", f"/v1/jobs/{job_id}?wait={seconds:.3f}"
                )["job"]
                # a server that holds long-polls answers early only
                # with a terminal job
                long_polls = (
                    job["status"] in TERMINAL
                    or time.monotonic() - started >= seconds / 2
                )
                continue
            time.sleep(poll)
            job = self.job(job_id)
        return job

    def report(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}/report")

    def filter(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}/filter")

    def profile(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}/profile")

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")

    def health(self) -> dict:
        return self.request("GET", "/v1/healthz")
