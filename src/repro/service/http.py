"""Stdlib-asyncio HTTP/JSON front end for the simulation service.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` — no
framework, no threads in the serving path.  Everything here runs on the
event loop and nothing here simulates: plans run in the dispatcher's
worker process (:mod:`~repro.service.dispatcher`), so a read only ever
waits for other reads, never for a simulation holding the interpreter
lock, and a worker crash never takes a read down with it.  Results are
read from the artifact cache, which the worker fills.  Routes:

* ``POST /plans`` — submit a plan request (:mod:`~repro.service.specs`
  wire format).  Idempotent: the job id is the plan fingerprint, so
  resubmitting the same spec set finds the same job.  A plan whose
  specs are all cached completes synchronously and returns ``200``
  with ``X-Cache: hit``; anything needing simulation returns ``202``
  with the job queued.
* ``GET /plans/{id}`` — job status: state, per-spec fingerprints,
  failure table, runner stats, and (once done) the plan-wide merged
  metrics snapshot.
* ``GET /results/{fingerprint}`` — one cached result, JSON-shaped,
  including its pickle ``digest`` (the repo's bit-identity currency).
* ``GET /healthz`` — liveness + job counts + store location.
* ``GET /metrics`` — the service's own MetricsRegistry dump (request
  counters, latency histogram, result hit/miss counters) merged with
  the ``runner.*`` counters the dispatcher summed over the jobs its
  worker ran (:attr:`~repro.service.dispatcher.Dispatcher.stats`).

Malformed frames fail closed: a ``Content-Length`` that is not a
non-negative decimal integer or a header line over the stream limit
gets a structured ``400``, and a body over :data:`MAX_BODY_BYTES` a
``413``; each closes the connection, since the request's end on the
wire is unknown or unread.

ETag contract: every completed resource carries ``ETag: "<fp>"`` — the
plan fingerprint for ``/plans``, the spec fingerprint for ``/results``.
Fingerprints are *content* addresses, so a matching ``If-None-Match``
can always short-circuit to ``304 Not Modified`` with no body; a
changed simulator (CACHE_SCHEMA bump) changes every fingerprint, so
stale ETags can never resurrect stale results.
"""

from __future__ import annotations

import asyncio
import json
import time

from ..harness import RunnerStats, cached_result
from ..harness.quarantine import result_digest
from ..telemetry import MetricsRegistry
from .dispatcher import Dispatcher
from .specs import (
    PlanRequestError,
    descriptor_label,
    parse_plan_request,
    plan_fingerprint,
)
from .store import JobStore

__all__ = ["ServiceApp", "result_payload"]

#: request-body bound (a full MAX_PLAN_SPECS plan is ~100 KB)
MAX_BODY_BYTES = 4 << 20

#: HTTP request-latency histogram bounds, in milliseconds
LATENCY_BOUNDS_MS = (0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000)

_REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def result_payload(key: str, result) -> dict:
    """JSON body for one cached :class:`~repro.cpu.MulticoreResult`.

    ``digest`` is the sha256 of the result's pickle — the same currency
    ``chaos_soak`` and the equivalence tests use — so a client can
    assert byte-identity with a locally simulated run without shipping
    the pickle itself.
    """
    return {
        "fingerprint": key,
        "digest": result_digest(result),
        "ipc": result.ipc,
        "ipcs": result.ipcs,
        "end_cycle": result.end_cycle,
        "cores": [
            {
                "core_id": c.core_id,
                "instructions": c.instructions,
                "cpu_cycles": c.cpu_cycles,
                "ipc": c.ipc,
                "reads": c.reads,
                "writes": c.writes,
            }
            for c in result.cores
        ],
        "stats": dict(vars(result.stats)),
        "rop_summary": result.rop_summary,
        "metrics": result.metrics or {},
    }


class _BadFrame(Exception):
    """A request frame the server cannot take; answered, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: dict, body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def if_none_match(self) -> str:
        return self.headers.get("if-none-match", "").strip().strip('"')


class _Response:
    """Status + JSON payload + extra headers, ready to serialize."""

    def __init__(self, status: int, payload: dict | None = None, **headers: str):
        self.status = status
        self.payload = payload
        self.headers = headers


class ServiceApp:
    """Routes requests against one store + dispatcher pair."""

    def __init__(self, store: JobStore, dispatcher: Dispatcher) -> None:
        self.store = store
        self.dispatcher = dispatcher
        self.registry = MetricsRegistry()
        self.started_s = time.time()

    # --------------------------------------------------------------- server

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Connection handler: keep-alive loop until EOF or close."""
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except _BadFrame as exc:
                    self.registry.count(f"http.status.{exc.status}")
                    await self._write_response(
                        writer, _Response(exc.status, {"error": str(exc)}),
                        keep_alive=False,
                    )
                    break
                if req is None:
                    break
                t0 = time.perf_counter()
                try:
                    resp = self._route(req)
                except PlanRequestError as exc:
                    resp = _Response(400, {"error": str(exc)})
                except Exception as exc:  # serving must survive any request
                    self.registry.count("http.errors.internal")
                    resp = _Response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                self._observe(req, resp, time.perf_counter() - t0)
                keep = req.headers.get("connection", "").lower() != "close"
                await self._write_response(writer, resp, keep_alive=keep)
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                hline = await reader.readline()
            except ValueError:  # a line over the stream's limit
                raise _BadFrame(400, "header line too long") from None
            if not hline or hline in (b"\r\n", b"\n"):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadFrame(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _BadFrame(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return _Request(method, path, headers, body)

    async def _write_response(self, writer: asyncio.StreamWriter,
                              resp: _Response, *, keep_alive: bool) -> None:
        body = b""
        if resp.payload is not None and resp.status != 304:
            body = json.dumps(resp.payload, sort_keys=True).encode()
        reason = _REASONS.get(resp.status, "Unknown")
        head = [f"HTTP/1.1 {resp.status} {reason}"]
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        for name, value in resp.headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    def _observe(self, req: _Request, resp: _Response, wall: float) -> None:
        route = req.path.split("/")[1] if "/" in req.path else ""
        self.registry.count(f"http.requests.{req.method.lower()}.{route or 'root'}")
        self.registry.count(f"http.status.{resp.status}")
        self.registry.observe(
            "http.latency_ms", wall * 1e3, bounds=LATENCY_BOUNDS_MS
        )

    # --------------------------------------------------------------- routes

    def _route(self, req: _Request) -> _Response:
        path = req.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/plans" and req.method == "POST":
            return self._post_plan(req)
        if path.startswith("/plans/") and req.method == "GET":
            return self._get_plan(req, path[len("/plans/"):])
        if path.startswith("/results/") and req.method == "GET":
            return self._get_result(req, path[len("/results/"):])
        if path == "/healthz" and req.method == "GET":
            return self._healthz()
        if path == "/metrics" and req.method == "GET":
            return self._metrics()
        if path in ("/plans", "/healthz", "/metrics") or path.startswith(
            ("/plans/", "/results/")
        ):
            return _Response(405, {"error": f"{req.method} not allowed on {path}"})
        return _Response(404, {"error": f"no route for {path}"})

    def _post_plan(self, req: _Request) -> _Response:
        try:
            doc = json.loads(req.body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _Response(400, {"error": f"body is not valid JSON: {exc}"})
        descriptors, specs, jobs = parse_plan_request(doc)
        keys = [s.key for s in specs]
        job_id = plan_fingerprint(specs)
        job, created = self.store.submit(
            job_id,
            descriptors,
            keys,
            [descriptor_label(d) for d in descriptors],
            jobs or self.dispatcher.default_jobs,
        )
        if req.if_none_match() == job_id and job.state == "done":
            return _Response(304, None, ETag=f'"{job_id}"')
        if created and job.state == "queued":
            # a plan already fully materialized in the store completes
            # synchronously — the 100-240x warm-replay path, now visible
            # to HTTP clients as an instant 200
            unique = job.unique_keys
            if all(cached_result(k) is not None for k in unique):
                self.store.finish(
                    job,
                    stats=_warm_stats(len(keys), len(unique)),
                    metrics=_merged_metrics(unique),
                )
            else:
                self.dispatcher.enqueue(job)
        payload = job.public()
        payload["created"] = created
        if job.state == "done":
            self.registry.count("service.plans.warm_hits")
            return _Response(
                200, payload, ETag=f'"{job_id}"', **{"X-Cache": "hit"}
            )
        status = 202 if job.state in ("queued", "running") else 200
        return _Response(status, payload, **{"X-Cache": "miss"})

    def _get_plan(self, req: _Request, job_id: str) -> _Response:
        job = self.store.get(job_id)
        if job is None:
            return _Response(404, {"error": f"unknown job {job_id!r}"})
        if job.state in ("done", "failed"):
            if req.if_none_match() == job.id:
                return _Response(304, None, ETag=f'"{job.id}"')
            return _Response(200, job.public(), ETag=f'"{job.id}"')
        return _Response(200, job.public())

    def _get_result(self, req: _Request, key: str) -> _Response:
        result = cached_result(key)
        if result is None:
            self.registry.count("service.results.miss")
            return _Response(
                404,
                {
                    "error": f"no cached result for fingerprint {key!r}",
                    "hint": "POST the spec to /plans first",
                },
            )
        self.registry.count("service.results.hit")
        if req.if_none_match() == key:
            return _Response(304, None, ETag=f'"{key}"', **{"X-Cache": "hit"})
        return _Response(
            200, result_payload(key, result), ETag=f'"{key}"', **{"X-Cache": "hit"}
        )

    def _healthz(self) -> _Response:
        return _Response(
            200,
            {
                "status": "ok",
                "uptime_s": round(time.time() - self.started_s, 3),
                "jobs": self.store.counts(),
                "dispatcher": self.dispatcher.describe(),
                "journal_errors": self.store.journal_errors,
                "store": str(self.store.dir),
            },
        )

    def _metrics(self) -> _Response:
        runner = MetricsRegistry()
        for name, value in vars(self.dispatcher.stats).items():
            runner.count(f"runner.{name}", value)
        merged = MetricsRegistry.merge([self.registry.snapshot(), runner.snapshot()])
        return _Response(200, merged)


def _warm_stats(requested: int, unique: int) -> dict:
    """A RunnerStats-shaped snapshot for a synchronously served plan."""
    import dataclasses

    return dataclasses.asdict(
        RunnerStats(requested=requested, unique=unique, cache_hits=unique)
    )


def _merged_metrics(keys: list[str]) -> dict:
    """Plan-wide merged metrics over already-cached results."""
    snaps = []
    for key in sorted(keys):
        result = cached_result(key)
        if result is not None and getattr(result, "metrics", None):
            snaps.append(result.metrics)
    return MetricsRegistry.merge(snaps)
