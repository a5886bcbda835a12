"""Equilibrium-as-a-service: the long-lived sweep daemon.

``python -m repro serve --store DIR --workers W [--port P]`` promotes the
one-shot orchestrator (:mod:`repro.service.api`) into a served system: a
stdlib-only asyncio HTTP server over one shared
:class:`~repro.service.workers.PersistentWorkerPool` and one
content-addressed :class:`~repro.service.jobs.ResultCache`.  Clients POST
the same three job shapes the batch CLI compiles; any task whose
``spec_hash`` was ever computed — by any client, in any job, in any daemon
lifetime on this store — is served from the cache with **zero engine
work**.

Endpoints (all JSON; one request per connection)::

    GET    /healthz              liveness probe
    GET    /stats                cache / queue / execution counters
    GET    /metrics              Prometheus text exposition (same registry)
    POST   /jobs                 submit a job description (201; 429 full)
    GET    /jobs                 list all known jobs
    GET    /jobs/<id>            one job's status document
    DELETE /jobs/<id>            cancel (no-op once terminal)
    GET    /jobs/<id>/events     chunked ndjson progress stream
    GET    /jobs/<id>/results    encoded payloads, canonical task order
                                 (paged via ?offset=&limit=; `total` in body)
    GET    /results/<spec_hash>  one cached result, content-addressed

Durability: job records and per-job journals are fsynced before results
are acknowledged, so a SIGKILLed daemon restarted on the same ``--store``
re-enqueues every non-terminal job and resumes it through the existing
journal ``--resume`` machinery — completed grid cells are never re-run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.metrics import default_registry, render_prometheus
from repro.service.jobs import (
    TERMINAL_STATUSES,
    Job,
    JobManager,
    JobQueueFull,
    UnknownJob,
)
from repro.service.workers import PersistentWorkerPool, WorkerRuntime

__all__ = ["DaemonConfig", "ServiceDaemon", "run_daemon"]


@dataclass(frozen=True)
class DaemonConfig:
    """How one daemon instance serves.

    ``port=0`` binds an ephemeral port (the chosen one is printed on the
    ``listening`` line and available as ``ServiceDaemon.port``).
    ``queue_size`` bounds the number of *waiting* jobs — submissions beyond
    it are refused with HTTP 429, the backpressure contract.
    The daemon's executor lives as long as the daemon: by default a
    :class:`PersistentWorkerPool` of ``workers`` forked processes;
    ``in_process=True`` replaces it with one serial
    :class:`WorkerRuntime` whose caches stay warm across jobs too — the
    deterministic executor most tests use.  Results are bit-identical
    either way.
    ``telemetry=True`` traces every executed task and journals one
    additive telemetry summary record per result (``python -m repro
    trace`` renders them); rows stay bit-identical.
    The kernel backend is not configured here: the daemon and its forked
    workers follow ``REPRO_KERNEL_BACKEND`` (see :mod:`repro.kernels`).
    """

    store_dir: str | Path
    workers: int | None = 1
    host: str = "127.0.0.1"
    port: int = 0
    queue_size: int = 16
    in_process: bool = False
    telemetry: bool = False


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


class ServiceDaemon:
    """The served orchestrator: HTTP front, job queue, shared pool.

    Two hosting modes share one implementation: :meth:`run` blocks the
    calling thread (the CLI path, SIGINT/SIGTERM stop it gracefully), and
    :meth:`start` / :meth:`stop` host the event loop on a daemon thread
    (the in-process test path).  Graceful shutdown parks the running job
    back to ``queued`` — its journal makes the next daemon on this store
    finish exactly the missing work.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.manager = JobManager(config.store_dir, queue_size=config.queue_size)
        if config.in_process:
            self.executor = WorkerRuntime(tracing=config.telemetry)
        else:
            self.executor = PersistentWorkerPool(
                workers=config.workers, telemetry=config.telemetry
            )
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._install_signal_handlers = False

    # -- hosting ---------------------------------------------------------
    def run(self) -> None:
        """Serve on the calling thread until SIGINT/SIGTERM (CLI path)."""
        self._install_signal_handlers = True
        self.executor.start()
        asyncio.run(self._main())

    def start(self) -> None:
        """Serve on a background thread; returns once the port is bound."""
        # Fork the worker processes before the loop thread exists: forking
        # a single-threaded daemon is the safe order.
        self.executor.start()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("daemon failed to start within 60s")

    def stop(self) -> None:
        """Graceful shutdown from any thread (idempotent)."""
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        if self._install_signal_handlers:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self._stop_event.set)
        self.manager.bind_loop(loop)
        resumed = self.manager.recover()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        dispatcher = asyncio.ensure_future(self._dispatch())
        print(
            f"repro-daemon listening on http://{self.config.host}:{self.port} "
            f"(store={self.manager.store_dir}, resumed {len(resumed)} job(s))",
            flush=True,
        )
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            # Stop dispatching and abort the running job's remaining tasks;
            # in-flight results still land in journal + cache first.
            self.manager.running = False
            with contextlib.suppress(Exception):
                await dispatcher
            self.executor.stop()
            self.manager.close()

    async def _dispatch(self) -> None:
        """FIFO job loop: one job executes at a time, on a worker thread."""
        loop = asyncio.get_running_loop()
        while self.manager.running:
            try:
                job_id = await asyncio.wait_for(self.manager.queue.get(), timeout=0.05)
            except asyncio.TimeoutError:
                continue
            job = self.manager.jobs.get(job_id)
            if job is None or job.status in TERMINAL_STATUSES:
                continue
            await loop.run_in_executor(
                None, self.manager.execute, job, self.executor
            )

    # -- HTTP ------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3:
                await self._respond(writer, 400, {"error": "malformed request line"})
                return
            method, target, _version = parts
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "0") or "0"
            if not (raw_length.isascii() and raw_length.isdecimal()):
                await self._respond(
                    writer, 400, {"error": f"invalid Content-Length {raw_length!r}"}
                )
                return
            length = int(raw_length)
            body = await reader.readexactly(length) if length > 0 else b""
            path, _, query = target.partition("?")
            await self._route(method, path, query, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self, method: str, path: str, query: str, body: bytes, writer
    ) -> None:
        segments = [segment for segment in path.split("/") if segment]
        if method == "GET" and segments == ["healthz"]:
            await self._respond(writer, 200, {"status": "ok"})
        elif method == "GET" and segments == ["stats"]:
            # Built per request from the live registry-backed counters —
            # never a snapshot captured when the handler (or executor)
            # was constructed.
            stats = self.manager.stats()
            stats["workers"] = getattr(self.executor, "workers", 1)
            await self._respond(writer, 200, stats)
        elif method == "GET" and segments == ["metrics"]:
            await self._respond_text(
                writer, 200, render_prometheus(default_registry())
            )
        elif method == "POST" and segments == ["jobs"]:
            await self._submit(body, writer)
        elif method == "GET" and segments == ["jobs"]:
            jobs = sorted(self.manager.jobs.values(), key=lambda job: job.seq)
            await self._respond(writer, 200, {"jobs": [job.view() for job in jobs]})
        elif len(segments) == 2 and segments[0] == "jobs":
            await self._job_request(method, segments[1], writer)
        elif (
            method == "GET"
            and len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] in {"events", "results"}
        ):
            try:
                job = self.manager.get(segments[1])
            except UnknownJob:
                await self._respond(writer, 404, {"error": f"no job {segments[1]}"})
                return
            if segments[2] == "events":
                await self._stream_events(job, writer)
            else:
                await self._results(job, query, writer)
        elif method == "GET" and len(segments) == 2 and segments[0] == "results":
            entry = self.manager.cache.get(segments[1])
            if entry is None:
                await self._respond(
                    writer, 404, {"error": f"no cached result for {segments[1]}"}
                )
            else:
                kind, payload = entry
                await self._respond(
                    writer,
                    200,
                    {"spec_hash": segments[1], "kind": kind, "payload": payload},
                )
        else:
            await self._respond(writer, 404, {"error": f"no route {method} {path}"})

    async def _submit(self, body: bytes, writer) -> None:
        try:
            description = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            job = self.manager.submit(description)
        except JobQueueFull as exc:
            await self._respond(writer, 429, {"error": str(exc)})
            return
        except (ValueError, TypeError, KeyError) as exc:
            await self._respond(
                writer, 400, {"error": f"invalid job description: {exc}"}
            )
            return
        await self._respond(writer, 201, {"job": job.view()})

    async def _job_request(self, method: str, job_id: str, writer) -> None:
        try:
            job = self.manager.get(job_id)
        except UnknownJob:
            await self._respond(writer, 404, {"error": f"no job {job_id}"})
            return
        if method == "GET":
            await self._respond(writer, 200, {"job": job.view()})
        elif method == "DELETE":
            await self._respond(writer, 200, {"job": self.manager.cancel(job_id).view()})
        else:
            await self._respond(
                writer, 405, {"error": f"method {method} not allowed on jobs"}
            )

    async def _results(self, job: Job, query: str, writer) -> None:
        if job.status != "done":
            await self._respond(
                writer,
                409,
                {"error": f"job {job.id} is {job.status}, not done", "job": job.view()},
            )
            return
        # Paged reads (`?offset=&limit=`): only the requested slice of the
        # canonical task order is materialised, so million-row grids never
        # serialise into one response body.  No parameters = everything
        # (the pre-paging contract).
        from urllib.parse import parse_qs

        params = parse_qs(query, keep_blank_values=False)
        try:
            offset = int(params["offset"][0]) if "offset" in params else 0
            limit = int(params["limit"][0]) if "limit" in params else None
            if offset < 0 or (limit is not None and limit < 0):
                raise ValueError
        except (ValueError, IndexError):
            await self._respond(
                writer,
                400,
                {"error": "offset/limit must be non-negative integers"},
            )
            return
        results, total = await asyncio.get_running_loop().run_in_executor(
            None, self.manager.collect_results, job, offset, limit
        )
        await self._respond(
            writer,
            200,
            {
                "job": job.view(),
                "results": results,
                "offset": offset,
                "limit": limit,
                "total": total,
            },
        )

    async def _stream_events(self, job: Job, writer) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        def is_terminal(event: dict) -> bool:
            return (
                event.get("type") == "status"
                and event.get("status") in TERMINAL_STATUSES
            )

        snapshot, queue = self.manager.subscribe(job)
        try:
            terminal = False
            for event in snapshot:
                await self._write_chunk(writer, event)
                terminal = terminal or is_terminal(event)
            if not terminal and job.status in TERMINAL_STATUSES:
                # Recovered terminal job: its pre-crash events are gone,
                # so synthesise the terminal marker the stream contract
                # promises.
                await self._write_chunk(
                    writer,
                    {"type": "status", "job_id": job.id, "status": job.status},
                )
                terminal = True
            while not terminal:
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=1.0)
                except asyncio.TimeoutError:
                    if not self.manager.running:
                        break
                    continue
                await self._write_chunk(writer, event)
                terminal = is_terminal(event)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            self.manager.unsubscribe(job, queue)

    async def _write_chunk(self, writer, event: dict) -> None:
        data = _json_bytes(event)
        writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        await writer.drain()

    async def _respond_text(self, writer, status: int, text: str) -> None:
        data = text.encode("utf-8")
        writer.write(
            f"HTTP/1.1 {status} OK\r\n"
            f"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
            + data
        )
        await writer.drain()

    async def _respond(self, writer, status: int, payload: Any) -> None:
        reasons = {
            200: "OK",
            201: "Created",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            429: "Too Many Requests",
        }
        data = _json_bytes(payload)
        writer.write(
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
            + data
        )
        await writer.drain()


def run_daemon(config: DaemonConfig) -> None:
    """Blocking CLI entry point: serve until SIGINT/SIGTERM."""
    ServiceDaemon(config).run()
