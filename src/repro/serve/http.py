"""Local HTTP/JSON frontend for the campaign service (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio`` streams — no
framework dependency, close-delimited responses, JSON bodies:

=======  ======================  ==========================================
POST     ``/jobs``               submit ``{kind, payloads, priority,
                                 client}``; 202 + ``{job_id}`` on
                                 admission, 429/503 + ``{reason,
                                 retry_after}`` when load is shed
GET      ``/jobs/<id>``          job status (state and progress counts;
                                 constant size, whatever the job's size)
GET      ``/jobs/<id>/results``  ordered results once finished (409 while
                                 running, 500 with the failure otherwise)
GET      ``/jobs/<id>/events``   Server-Sent-Events live progress: a
                                 ``snapshot`` frame, then lifecycle
                                 frames (``active``/``progress``), then
                                 a terminal ``done``/``failed`` frame
                                 and the stream closes
GET      ``/metrics``            Prometheus text exposition (works with
                                 or without an attached ServiceObs)
GET      ``/stats``              service-wide stats (admission, pool,
                                 store, jobs)
GET      ``/healthz``            liveness probe
=======  ======================  ==========================================

Backpressure extends into the transport: admission rejections map onto
429 (rate limiting) and 503 (queue/backlog full) with a
``retry_after`` hint, so a well-behaved client backs off instead of
retry-hammering a saturated service — and a slow SSE consumer loses
oldest frames from its bounded buffer rather than stalling the pump.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

from repro.errors import CampaignError, ReproError
from repro.serve.admission import AdmissionError
from repro.serve.service import CampaignService, Job

_MAX_BODY = 64 << 20
_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(status: int, body) -> bytes:
    if isinstance(body, str):
        # Plain-text bodies (the /metrics exposition).
        payload = body.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = json.dumps(body).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload


class _SseStream:
    """Sentinel routing result: stream ``job``'s events instead of one
    JSON response."""

    __slots__ = ("job",)

    def __init__(self, job) -> None:
        self.job = job


def _sse_frame(event: dict) -> bytes:
    name = event.get("event", "message")
    return (f"event: {name}\ndata: {json.dumps(event)}\n\n").encode("utf-8")


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request: (method, path, body-bytes) or None on EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = 0
    if content_length > _MAX_BODY:
        return method, path, None   # signal an oversized body
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body


class HttpFrontend:
    """Routes HTTP requests onto one :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    # -- routing ---------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes | None):
        if body is None:
            return 413, {"error": "request body too large"}
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "serial": self.service.supervisor.serial}
        if path == "/stats" and method == "GET":
            return 200, self.service.stats()
        if path == "/metrics" and method == "GET":
            return 200, self.service.metrics_text()
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path.startswith("/jobs/"):
            tail = path[len("/jobs/"):]
            if tail.endswith("/results"):
                return self._results(method, tail[: -len("/results")])
            if tail.endswith("/events"):
                return self._events(method, tail[: -len("/events")])
            return self._status(method, tail)
        return 404, {"error": f"no route for {method} {path}"}

    def _submit(self, body: bytes):
        try:
            request = json.loads(body or b"{}")
            kind = request["kind"]
            payloads = request["payloads"]
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"malformed job request: {exc}"}
        try:
            job = self.service.submit(
                kind, payloads,
                client=str(request.get("client", "http")),
                priority=int(request.get("priority", 0)),
            )
        except AdmissionError as exc:
            status = 429 if exc.reason == "rate-limited" else 503
            if exc.reason == "job-too-large":
                status = 413
            return status, {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after": exc.retry_after,
            }
        except ReproError as exc:
            # e.g. ConfigError for an unknown task kind: a client bug.
            return 400, {"error": str(exc)}
        return 202, {"job_id": job.job_id, "tasks": job.total}

    def _status(self, method: str, job_id: str):
        if method != "GET":
            return 405, {"error": "job status is GET-only"}
        if job_id not in self.service.jobs:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, self.service.job_status(job_id)

    def _results(self, method: str, job_id: str):
        if method != "GET":
            return 405, {"error": "job results are GET-only"}
        job = self.service.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if not job.finished:
            return 409, {
                "error": f"job {job_id} still running",
                "state": job.state,
                "resolved": job.resolved,
                "total": job.total,
            }
        if job.state == Job.FAILED:
            return 500, {"error": str(job.failure()), "state": job.state}
        # The stored rows over the wire; the client applies the kind's
        # decode adapter locally.
        return 200, {"kind": job.kind,
                     "results": self.service.stored_results(job)}

    def _events(self, method: str, job_id: str):
        if method != "GET":
            return 405, {"error": "job events are GET-only"}
        job = self.service.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return _SseStream(job)

    # -- connection handler ----------------------------------------------

    async def serve_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        try:
            request = await _read_request(reader)
            if request is not None:
                try:
                    result = self.handle(*request)
                except Exception as exc:   # never kill the server loop
                    result = 500, {"error": f"{type(exc).__name__}: {exc}"}
                if isinstance(result, _SseStream):
                    await self._stream_events(writer, result.job)
                else:
                    writer.write(_response(*result))
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job) -> None:
        """SSE: a snapshot frame, live frames as the pump publishes them,
        a terminal frame named after the final state, then close.

        Close-delimited like every other response; the subscriber's
        bounded buffer (drop-oldest) keeps a slow consumer from growing
        service memory, and any drops are surfaced as an SSE comment.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        stream = job.subscribe()
        reported_drops = 0
        try:
            writer.write(_sse_frame({"event": "snapshot", **job.status()}))
            await writer.drain()
            if job.finished:
                writer.write(_sse_frame({
                    "event": job.state, "job_id": job.job_id,
                    "state": job.state, "resolved": job.resolved,
                    "total": job.total,
                }))
                await writer.drain()
                return
            while True:
                events = stream.pop_all()
                terminal = False
                wrote = bool(events)
                for event in events:
                    writer.write(_sse_frame(event))
                    terminal = terminal or event.get("event") in (
                        "done", "failed"
                    )
                if stream.dropped > reported_drops:
                    writer.write(
                        f": dropped {stream.dropped - reported_drops} "
                        f"frames (slow consumer)\n\n".encode("ascii")
                    )
                    reported_drops = stream.dropped
                    wrote = True
                if wrote:
                    await writer.drain()
                if terminal:
                    return
                await asyncio.sleep(self.service.poll_interval)
        finally:
            job.unsubscribe(stream)


async def start_http_server(service: CampaignService, host: str = "127.0.0.1",
                            port: int = 0) -> asyncio.AbstractServer:
    """Bind the frontend; ``port=0`` picks a free port (see
    ``server.sockets[0].getsockname()``)."""
    frontend = HttpFrontend(service)
    return await asyncio.start_server(
        frontend.serve_connection, host=host, port=port
    )


@contextlib.contextmanager
def serve_in_thread(service: CampaignService, host: str = "127.0.0.1"):
    """Run the frontend and the service pump on a background thread's
    event loop, on a free port; yields the base URL.

    For gates and tests that drive the service through a blocking
    :class:`~repro.serve.client.HttpClient`; the service stays the
    caller's to close.
    """
    bound: dict = {}
    ready = threading.Event()
    stop = threading.Event()

    async def main() -> None:
        server = await start_http_server(service, host=host, port=0)
        bound["url"] = "http://%s:%d" % server.sockets[0].getsockname()[:2]
        pump = asyncio.ensure_future(service.drive())
        ready.set()
        try:
            async with server:
                while not stop.is_set():
                    await asyncio.sleep(0.01)
        finally:
            pump.cancel()

    thread = threading.Thread(target=asyncio.run, args=(main(),),
                              daemon=True)
    thread.start()
    try:
        if not ready.wait(30.0):
            raise CampaignError("HTTP frontend did not come up")
        yield bound["url"]
    finally:
        stop.set()
        thread.join(timeout=10.0)


async def serve_forever(service: CampaignService, host: str = "127.0.0.1",
                        port: int = 8734, ready=None) -> None:
    """Run the HTTP frontend and the service pump until cancelled."""
    server = await start_http_server(service, host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound)
    pump = asyncio.ensure_future(service.drive())
    try:
        async with server:
            await server.serve_forever()
    finally:
        pump.cancel()
