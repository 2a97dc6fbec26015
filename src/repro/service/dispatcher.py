"""Async dispatcher: drains the job queue through a plan worker process.

One background asyncio task owns the queue.  Jobs run **one at a time**,
each as a single ``execute_plan`` call in one persistent worker process
(a one-worker ``ProcessPoolExecutor`` on the ``fork`` context), so the
event loop keeps serving reads while a plan simulates.  A thread could
not do that: the simulation is Python code, and a thread running it
shares the interpreter lock with the event loop, so every hand-over
between the two waits up to the 5 ms switch interval, in both
directions — a cache hit then costs as much as the plan's next slice.
The worker has its own interpreter, so the loop only ever waits on a
pipe.  It is forked rather than spawned so that it starts with the
server's modules already imported instead of importing the simulator
again in front of the first plan; the first fork happens in
:meth:`Dispatcher.start`, before the server has started any thread.

FIFO order is also the service-level dedup guarantee: when N clients
submit overlapping plans concurrently, the first job simulates the
shared specs and every later job finds them in the worker's memo or the
artifact cache — one simulation per unique spec, with the per-key file
locks covering the residual race of independent processes writing the
same entry.

Inside the worker the full runner machinery applies unchanged: chunked
``ProcessPoolExecutor`` fan-out for ``jobs>1`` (a pool nested in the
worker), failure taxonomy and retries, broken-pool rebuilds,
quarantine, chaos.  The dispatcher always runs plans with
``keep_going`` — a service must return a failure table, not tear down
the process.  The worker sends back only what the job record needs —
per-spec failures, the ``RunnerStats`` snapshot and the plan-wide
merged metrics — and the results themselves reach the server through
the artifact cache, which ``cached_result`` reads.  The dispatcher
sums every job's stats into :attr:`Dispatcher.stats`, the ``runner.*``
counters of ``/metrics``.

**Fork before bind.**  :meth:`Dispatcher.start` forks the worker eagerly,
before the HTTP server binds its socket: a child forked later inherits
the listening socket and every accepted client connection, and a
``Connection: close`` client whose socket a child still holds open never
sees EOF.  A worker forked after bind — the rebuild below — therefore
closes every socket it inherited before it runs anything.

**Crash and rebuild.**  If the worker dies mid-plan (``BrokenProcessPool``:
a SIGKILL, the OOM killer, a segfault), the dispatcher forks a new one
and runs the job once more.  Every result the dead worker finished is
already in the artifact cache, so the re-run resumes rather than starts
over.  A job that breaks the worker twice is recorded as a job-level
failure, and the next job runs on a fresh worker.  Reads never wait on
any of this: they are served from the cache by the event loop.
:meth:`Dispatcher.stop` stops and reaps the worker.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import stat
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..harness import (
    ExecutionPolicy,
    PlanResults,
    RunnerStats,
    RunSpec,
    current_policy,
    execute_plan,
)
from ..harness.runner import _worker_init as _pool_worker_init
from .specs import spec_from_descriptor
from .store import Job, JobStore

__all__ = ["Dispatcher"]

#: seconds :meth:`Dispatcher.stop` gives a worker running a parallel plan
#: to drain its pool after SIGTERM (the runner's signal guard) before SIGKILL
STOP_GRACE_S = 5.0


def _failure_rows(results: PlanResults) -> list[dict]:
    """The runner's failure table, JSON-shaped for the job journal."""
    return [
        {
            "fingerprint": f.key,
            "label": f.label,
            "kind": f.kind,
            "exc_type": f.exc_type,
            "message": f.message,
            "attempts": f.attempts,
        }
        for f in results.failures
    ]


def _worker_init(server: int) -> None:
    """Plan-worker hygiene, run once in the forked child.

    The runner's pool-worker set-up: Ctrl-C reaches only the server,
    which stops the worker itself; SIGTERM keeps its default except
    while a parallel plan's signal guard drains the plan's pool; and
    the worker dies with the server.  Sockets inherited from the server
    are closed so no client connection outlives the server's end of it.
    """
    _pool_worker_init(server)
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no procfs: only a worker forked after bind is exposed
        return
    for fd in fds:
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass


def _run_plan(specs: list[RunSpec], jobs: int, policy: ExecutionPolicy) -> dict:
    """Worker side of one job: the plan's job-record fields."""
    try:
        results = execute_plan(specs, jobs=jobs, policy=policy)
    except KeyboardInterrupt as exc:
        # a signal sent to the worker alone unwinds the plan; re-raised
        # as-is in the server it would stop the event loop
        raise RuntimeError(f"plan interrupted in the worker: {exc}") from None
    return {
        "failures": _failure_rows(results),
        "stats": dataclasses.asdict(results.stats),
        "metrics": results.merged_metrics(),
    }


class Dispatcher:
    """Background job plane bound to one event loop and one plan worker."""

    def __init__(self, store: JobStore, *, default_jobs: int = 1) -> None:
        self.store = store
        self.default_jobs = default_jobs
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._pool: ProcessPoolExecutor | None = None
        self._task: asyncio.Task | None = None
        self.completed = 0
        #: plan workers replaced after dying mid-plan
        self.worker_rebuilds = 0
        #: runner counters summed over every job the worker executed
        self.stats = RunnerStats()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Fork the plan worker, then start the drain task.

        Call before the HTTP server binds (see the module docstring).
        Crash-recovered jobs are requeued first.
        """
        self._pool = self._fork_worker()
        for job in self.store.recover():
            self._queue.put_nowait(job)
        self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Cancel the drain task, then stop and reap the worker."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.to_thread(_reap, pool)

    def enqueue(self, job: Job) -> None:
        self._queue.put_nowait(job)

    @property
    def depth(self) -> int:
        """Jobs waiting behind the one (maybe) in flight."""
        return self._queue.qsize()

    @property
    def worker_pid(self) -> int | None:
        """PID of the current plan worker (None once stopped)."""
        procs = getattr(self._pool, "_processes", None) or {}
        return next(iter(procs), None)

    # -------------------------------------------------------------- workers

    @staticmethod
    def _fork_worker() -> ProcessPoolExecutor:
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(os.getpid(),),
        )
        # a fork-context pool forks its worker inside the first submit
        pool.submit(os.getpid)
        return pool

    async def _drain(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # job-level fault: record, keep serving
                self.store.finish(
                    job,
                    error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                )
            finally:
                self.completed += 1
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        if job.state != "queued":  # a resubmission raced a finished job
            return
        specs = [
            spec_from_descriptor(raw, i) for i, raw in enumerate(job.request)
        ]
        self.store.mark_running(job)
        policy = dataclasses.replace(current_policy(), keep_going=True)
        jobs = job.jobs or self.default_jobs
        loop = asyncio.get_running_loop()
        for attempt in (1, 2):
            try:
                record = await loop.run_in_executor(
                    self._pool, _run_plan, specs, jobs, policy
                )
                break
            except BrokenProcessPool as exc:
                broken, self._pool = self._pool, self._fork_worker()
                self.worker_rebuilds += 1
                broken.shutdown(wait=False)
                if attempt == 2:
                    self.store.finish(
                        job,
                        error=f"BrokenProcessPool: the plan worker died twice "
                        f"running this job ({exc})",
                    )
                    return
        self.stats.absorb(RunnerStats(**record["stats"]))
        self.store.finish(job, **record)

    # fleet knobs surfaced for /healthz
    def describe(self) -> dict:
        return {
            "default_jobs": self.default_jobs,
            "queue_depth": self.depth,
            "worker_pid": self.worker_pid,
            "worker_rebuilds": self.worker_rebuilds,
        }


def _reap(pool: ProcessPoolExecutor) -> None:
    """Stop ``pool``'s worker: SIGTERM, then SIGKILL after the grace period.

    A worker running a parallel plan drains its pool and unwinds; any
    other exits at once.  Finished results are in the cache either way.
    ``_processes`` is private, but it is the only handle on the worker.
    """
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(STOP_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
