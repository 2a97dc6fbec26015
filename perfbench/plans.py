"""What each benchmark workload runs, derived from the benchmark seed.

Shared by the benchmark's processes (run.py, the batch pass, the server
launcher) and by ``record.py``, so a workload's inputs are defined in
exactly one place.  Pass (or server set-up) ``k`` of a run with
``--seed n`` uses plan seed ``plan_seed(n + k)``, one of
``N_PLAN_SEEDS`` seeds whose scalar-engine reference digests are
committed in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for caches, logs and traces (inside the checkout)
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("fig7-cold", "fig10-cold", "trace-characterize", "serve-mixed")
BATCH = WORKLOADS[:3]

#: plan seeds with committed scalar-engine reference digests
N_PLAN_SEEDS = 8

BENCHMARKS = (
    "GemsFDTD", "lbm", "bwaves", "gcc", "libquantum", "cactusADM",
    "wrf", "bzip2", "perlbench", "astar", "omnetpp", "gobmk",
)
#: the reduced inputs of the benchmark's self-tests
TINY_BENCHMARKS = ("lbm", "gobmk")
TINY_INSTRUCTIONS = 20_000

#: serve-mixed corpus spec length; new plans use the same length
SERVE_INSTRUCTIONS = 200_000
#: most new plans a serve-mixed run submits (reference digests exist
#: for each)
MAX_WRITES = 64


#: seconds the calibration loop takes at the reference interpreter speed
#: (about its median on the 2-vCPU VM the benchmark was defined on)
REF_LOOP_S = 0.0125


def loop_s() -> float:
    """Host seconds of a fixed pure-Python loop: on each CPU, best of three.

    The speed of a shared host drifts by tens of percent over seconds to
    minutes, for the program and this loop alike, and its CPUs drift
    apart.  The benchmark times the loop on every CPU it may run on,
    beside each timed region, and scales the region's times by
    ``REF_LOOP_S / loop_s()``, which reports them at one reference speed.
    The loop's result is the mean over the CPUs of each CPU's best time.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(3):
                t0 = time.monotonic()
                x = 0
                for i in range(150_000):
                    x += i * i
                best = min(best, time.monotonic() - t0)
            per_cpu.append(best)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu)


def cpu_ticks() -> list[int] | None:
    """The host's CPU time counters (``/proc/stat``), or None where there are none.

    The first eight fields of the ``cpu`` line, in clock ticks: user,
    nice, system, idle, iowait, irq, softirq, steal.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float:
    """Share of the host's busy CPU time the hypervisor took between two samples.

    Steal is time a virtual CPU had work but its host ran something else;
    busy time is everything but idle and iowait.  0 without counters.
    """
    if before is None or after is None:
        return 0.0
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d) - d[3] - d[4]
    return d[7] / busy if busy > 0 else 0.0


def plan_seed(seed: int) -> int:
    """The plan seed (``RunScale.seed`` / spec seed) for benchmark seed ``seed``."""
    return 1 + seed % N_PLAN_SEEDS


def cli_argv(workload: str, pseed: int, tiny: bool = False) -> list[str]:
    """The ``repro`` command line a batch workload runs."""
    if workload == "fig7-cold":
        argv = ["fig", "7"] + (list(TINY_BENCHMARKS) if tiny else [])
    elif workload == "fig10-cold":
        argv = ["fig", "10"] + (["WL1"] if tiny else [])
    elif workload == "trace-characterize":
        argv = ["characterize"] + list(TINY_BENCHMARKS if tiny else BENCHMARKS)
    else:
        raise ValueError(f"not a batch workload: {workload}")
    scale = "default" if workload == "trace-characterize" else "smoke"
    argv += ["--scale", scale, "--seed", str(pseed), "--jobs", "1"]
    return argv + (["--instructions", str(TINY_INSTRUCTIONS)] if tiny else [])


def serve_instructions(tiny: bool) -> int:
    return TINY_INSTRUCTIONS if tiny else SERVE_INSTRUCTIONS


def corpus_specs(pseed: int, tiny: bool = False) -> list[dict]:
    """The plan ``serve-mixed`` preloads: every benchmark × {baseline, rop}."""
    n = serve_instructions(tiny)
    specs = []
    for name in TINY_BENCHMARKS if tiny else BENCHMARKS:
        specs.append({"workloads": [name], "system": "baseline",
                      "instructions": n, "seed": pseed})
        specs.append({"workloads": [name], "system": "rop",
                      "instructions": n, "seed": pseed, "training_refreshes": 3})
    return specs


def write_specs(pseed: int, i: int, tiny: bool = False) -> list[dict]:
    """New plan number ``i`` of a serve-mixed run: two specs, never cached.

    The first reuses a corpus trace under a system config the corpus
    lacks (ROP trained for ``4 + i // len(benchmarks)`` refreshes); the
    second runs a corpus benchmark on a seed no earlier plan used, so its
    trace is synthesized and filtered on admission.
    """
    names = TINY_BENCHMARKS if tiny else BENCHMARKS
    n = serve_instructions(tiny)
    return [
        {"workloads": [names[i % len(names)]], "system": "rop", "instructions": n,
         "seed": pseed, "training_refreshes": 4 + i // len(names)},
        {"workloads": [names[(5 * i + 3) % len(names)]], "system": "baseline",
         "instructions": n, "seed": 1000 * pseed + i},
    ]


def hermetic_env(cache_dir: Path, engine: str = "epoch") -> dict[str, str]:
    """The environment a workload process runs under.

    Every ``REPRO_*`` knob of the caller is dropped (chaos, fault
    injection, validation, telemetry, audit, scale, jobs, cache quota...),
    then the engine, one job and a private cache dir are pinned.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_ENGINE=engine,
        REPRO_JOBS="1",
        REPRO_CACHE_DIR=str(cache_dir),
        PYTHONPATH=str(SRC),
    )
    return env


@contextlib.contextmanager
def hermetic(cache_dir: Path, engine: str = "epoch"):
    """Run in-process under :func:`hermetic_env`; restores the caller's env.

    Also clears the program's in-process result and trace memos on entry
    and exit, so no result survives from an earlier run in the process.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.harness import set_execution_policy
    from repro.harness.runner import clear_result_memo
    from repro.workloads import clear_trace_cache

    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(hermetic_env(cache_dir, engine))
    clear_result_memo()
    clear_trace_cache()
    try:
        yield
    finally:
        clear_result_memo()
        clear_trace_cache()
        set_execution_policy(None)
        os.environ.clear()
        os.environ.update(saved)
