"""Simulation-as-a-service: async job plane + HTTP/JSON API.

The harness is a build system in disguise — content-keyed artifact
cache, shared-memory trace plane, resumable fault-tolerant plans — and
this package is the serving layer that exposes it to N concurrent
clients: the same read-heavy-cache-with-expensive-fill shape the paper
applies at the DRAM level (overlap the slow fill with serving; never
pay it twice).

Pieces (each its own module):

* :mod:`~repro.service.specs` — declarative JSON plan-request codec;
* :mod:`~repro.service.store` — job table with a crash-safe journal
  under ``<cache-dir>/service/jobs/``;
* :mod:`~repro.service.dispatcher` — background asyncio task running
  each job's ``execute_plan`` (full runner fault tolerance) in one
  forked worker process so the event loop keeps serving;
* :mod:`~repro.service.http` — the stdlib HTTP/1.1 front end with the
  fingerprint-as-ETag idempotency contract.

``repro serve`` (the CLI) and the tests both go through
:func:`start_service` / :func:`run_server` below.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass

from ..harness.cache import get_cache
from .dispatcher import Dispatcher
from .http import ServiceApp, result_payload
from .specs import (
    PlanRequestError,
    parse_plan_request,
    plan_fingerprint,
    spec_from_descriptor,
)
from .store import Job, JobStore

__all__ = [
    "Dispatcher",
    "Job",
    "JobStore",
    "PlanRequestError",
    "ServiceApp",
    "ServiceHandle",
    "parse_plan_request",
    "plan_fingerprint",
    "result_payload",
    "run_server",
    "spec_from_descriptor",
    "start_service",
]


@dataclass
class ServiceHandle:
    """A started service: its socket address and its moving parts."""

    server: asyncio.base_events.Server
    app: ServiceApp
    store: JobStore
    dispatcher: Dispatcher
    host: str
    port: int

    async def close(self) -> None:
        """Stop accepting, cancel the dispatcher, reap its worker."""
        self.server.close()
        await self.server.wait_closed()
        await self.dispatcher.stop()


async def start_service(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    jobs: int = 1,
    store: JobStore | None = None,
) -> ServiceHandle:
    """Start the job plane + HTTP server on the running event loop.

    ``port=0`` binds an ephemeral port (read it back off the handle).
    ``jobs`` sizes the per-plan simulation fleet — the
    ``ProcessPoolExecutor`` width ``execute_plan`` fans cache misses
    out over — unless a plan request overrides it.

    The artifact cache must be enabled: it is how results travel from
    the dispatcher's worker process to the server.  The dispatcher
    forks that worker here, before the socket is bound.
    """
    if getattr(get_cache(), "root", None) is None:
        raise RuntimeError("the service requires the artifact cache "
                           "(REPRO_CACHE is off)")
    store = store if store is not None else JobStore()
    dispatcher = Dispatcher(store, default_jobs=jobs)
    app = ServiceApp(store, dispatcher)
    dispatcher.start()  # fork before bind
    try:
        server = await asyncio.start_server(app.handle, host=host, port=port)
    except BaseException:
        await dispatcher.stop()
        raise
    bound = server.sockets[0].getsockname()
    return ServiceHandle(
        server=server,
        app=app,
        store=store,
        dispatcher=dispatcher,
        host=bound[0],
        port=bound[1],
    )


def run_server(host: str = "127.0.0.1", port: int = 8787, *, jobs: int = 1) -> int:
    """Blocking entry point behind ``repro serve`` (Ctrl-C or SIGTERM to stop).

    Either signal closes the service, so the dispatcher reaps its
    worker process before the server exits.
    """

    async def _main() -> None:
        handle = await start_service(host, port, jobs=jobs)
        terminated = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, terminated.set
        )
        root = get_cache().root
        print(
            f"repro serve: listening on http://{handle.host}:{handle.port} "
            f"(fleet: {jobs} worker{'s' if jobs != 1 else ''}, "
            f"store: {root})",
            flush=True,
        )
        try:
            await terminated.wait()  # start_server is already serving
        finally:
            await handle.close()
        print("repro serve: terminated; jobs journal persisted — restart to resume")

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: interrupted; jobs journal persisted — restart to resume")
    return 0
