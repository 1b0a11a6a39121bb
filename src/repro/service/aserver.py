"""The asyncio HTTP/JSON front end of ``bside serve``.

A single-threaded event loop (stdlib ``asyncio.start_server``, no
dependencies) accepts thousands of concurrent keep-alive connections
without a thread per connection.  Routing goes through
:mod:`repro.service.routes`, where the ``/v1`` contract is defined.

How a request flows:

1. the loop reads the request head (bounded ``readuntil``) and the
   ``Content-Length`` body (bounded; 413 + connection close beyond
   :data:`MAX_BODY_BYTES`);
2. routing and queue/disk work run in :func:`asyncio.to_thread` — the
   loop never blocks on filesystem I/O, so slow disks don't stall
   unrelated connections;
3. a long-poll (``GET /v1/jobs/<id>?wait=S``) waits on the loop itself:
   a future per waiter, resolved when :meth:`JobQueue.finish
   <repro.service.jobs.JobQueue.finish>` announces the job through
   ``call_soon_threadsafe``.  In shared mode, where worker processes
   finish jobs, the record is also re-read every
   :data:`SHARED_RECHECK_SECONDS`.  No thread is held while a request
   waits, so waiters never starve the ``to_thread`` pool;
4. the response is written with an explicit ``Content-Length`` and the
   connection is kept alive for HTTP/1.1 clients.

Analysis never runs on the loop *or* its thread pool: the executor's
dispatcher thread (local mode) or external worker processes
(:mod:`repro.service.worker`) drain the queue.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
from http import HTTPStatus

from .executor import MAX_INLINE_BYTES, AnalysisService
from .jobs import TERMINAL
from .routes import ApiResult, handle_request, long_poll

logger = logging.getLogger(__name__)

#: request-body cap: the inline-binary bound plus base64 + JSON overhead
MAX_BODY_BYTES = MAX_INLINE_BYTES * 3 // 2

#: how often a shared-mode long-poll re-reads its job record, since
#: jobs finished by worker processes announce nothing to this process
SHARED_RECHECK_SECONDS = 0.01

#: maximum bytes of request line + headers
MAX_HEAD_BYTES = 32 * 1024

#: how long an idle keep-alive connection is held open
IDLE_TIMEOUT = 60.0


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


class AsyncServiceServer:
    """The daemon: an :class:`AnalysisService` behind an asyncio server.

    Construct (binding happens eagerly, so ``port=0`` binds an ephemeral
    port and :attr:`url` is immediately valid), then ``start()`` /
    ``serve_forever()`` / ``stop()``.
    """

    def __init__(self, service: AnalysisService, host: str = "127.0.0.1",
                 port: int = 8649, *, idle_timeout: float = IDLE_TIMEOUT) -> None:
        self.service = service
        self.idle_timeout = idle_timeout
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        #: job id -> futures of the long-polls waiting on it (loop only)
        self._waiters: dict[str, set[asyncio.Future]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, executor: bool = True) -> None:
        """Serve requests on a background event-loop thread.

        ``executor=False`` leaves the dispatcher stopped — jobs queue up
        but never run (tests use it to pin backpressure and recovery
        behaviour; call ``service.start()`` later to drain).
        """
        if executor:
            self.service.start()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),),
            name="bside-aio", daemon=True,
        )
        self._thread.start()
        self._ready.wait(10.0)

    def serve_forever(self) -> None:
        """Foreground mode (the ``bside serve`` CLI)."""
        self.service.start()
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self.service.stop()
        try:
            self._sock.close()
        except OSError:
            pass

    async def _main(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()

        def announce(job_id: str) -> None:  # runs on the finishing thread
            try:
                loop.call_soon_threadsafe(self._wake, job_id)
            except RuntimeError:  # the loop has closed: nobody waits
                pass

        listeners = self.service.queue.finish_listeners
        listeners.append(announce)
        try:
            server = await asyncio.start_server(
                self._handle_connection, sock=self._sock,
                limit=MAX_HEAD_BYTES,
            )
            self._ready.set()
            async with server:
                await self._shutdown.wait()
        finally:
            listeners.remove(announce)

    # ------------------------------------------------------------------
    # Long-poll
    # ------------------------------------------------------------------

    def _wake(self, job_id: str) -> None:
        for waiter in self._waiters.pop(job_id, ()):
            waiter.set_result(None)

    async def _long_poll(self, job_id: str, seconds: float) -> ApiResult:
        """The job's status once it is terminal, or after ``seconds``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds
        while True:
            # registered before the status read, so a finish landing
            # between the read and the wait still wakes this waiter
            waiter = loop.create_future()
            self._waiters.setdefault(job_id, set()).add(waiter)
            try:
                result = await asyncio.to_thread(
                    handle_request, self.service, "GET", f"/v1/jobs/{job_id}"
                )
                remaining = deadline - loop.time()
                if (result.status != 200 or remaining <= 0
                        or result.doc["job"]["status"] in TERMINAL):
                    return result
                if self.service.shared:
                    remaining = min(remaining, SHARED_RECHECK_SECONDS)
                await asyncio.wait([waiter], timeout=remaining)
            finally:
                waiters = self._waiters.get(job_id)
                if waiters is not None:
                    waiters.discard(waiter)
                    if not waiters:
                        del self._waiters[job_id]

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while await self._handle_one(reader, writer):
                pass
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except Exception:  # never kill the loop on a handler bug
            logger.exception("aserver: connection handler failed")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; True to keep the connection alive."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=self.idle_timeout
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            return False

        lines = head.decode("latin-1").split("\r\n")
        request_parts = lines[0].split(" ")
        if len(request_parts) != 3:
            await self._respond(
                writer, ApiResult(400, {"error": "malformed request line"}),
                keep_alive=False,
            )
            return False
        method, path, version = request_parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            await self._respond(
                writer, ApiResult(400, {"error": "bad Content-Length"}),
                keep_alive=False,
            )
            return False
        if length > MAX_BODY_BYTES:
            # Reading the oversized body would be the DoS; drop it.
            await self._respond(
                writer,
                ApiResult(413, {
                    "error": f"request body exceeds {MAX_BODY_BYTES} bytes"
                }),
                keep_alive=False,
            )
            return False
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return False

        try:
            wait = long_poll(method, path)
        except ValueError as error:
            result = ApiResult(400, {"error": str(error)})
        else:
            if wait is not None:
                result = await self._long_poll(*wait)
            else:
                # Submission and job reads touch disk and locks: off-loop.
                result = await asyncio.to_thread(
                    handle_request, self.service, method, path, body
                )
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        await self._respond(writer, result, keep_alive=keep_alive)
        return keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, result: ApiResult,
                       *, keep_alive: bool) -> None:
        body = result.body()
        head = [
            f"HTTP/1.1 {result.status} {_reason(result.status)}",
            "Server: bside-serve/1",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in result.headers())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()
