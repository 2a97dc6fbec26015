"""PERF — micro-benchmark gating the set-parallel ``filter_trace``.

``cpu/llc.py::filter_trace`` runs on every cold trace (each trace is
filtered once per LLC geometry before it can be cached).  It steps all
LLC sets in lock-step as NumPy arrays and hands the last few busy sets
to a sequential dict walk.  This bench pits it against the per-access
dict walk, the straightforward reference implementation, and asserts:

* identical output (trace, counters, tail) on every case, and
* a speed bound per case, as a ratio of the reference time:

  ============== ============================================ =========
  case           what it stresses                             bound
  ============== ============================================ =========
  gcc/2MB        the default LLC: the lock-step path           ≤ 0.50×
  gcc/512KB      a smaller LLC, more misses and write-backs    ≤ 1.10×
  gcc/64KB       64 sets: the sequential tail does everything  ≤ 1.25×
  one-set/2MB    every access in one set: the tail again       ≤ 1.25×
  ============== ============================================ =========

The two adversarial cases bound the worst case at about the reference
cost; the 1.10 and 1.25 slack absorbs timer noise on loaded CI hosts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import run_once

from repro.config import LlcConfig
from repro.cpu.llc import Llc, filter_trace
from repro.workloads import profile
from repro.workloads.trace import AccessTrace


def filter_trace_reference(trace: AccessTrace, cfg: LlcConfig):
    """The per-access dict walk: one :class:`Llc` set lookup per access."""
    cache = Llc(cfg)
    sets = cache._sets
    ways = cache.ways
    mask = cache.num_sets - 1
    out_gaps: list[int] = []
    out_lines: list[int] = []
    out_writes: list[bool] = []
    pending = 0
    gaps = trace.gaps.tolist()
    lines = trace.lines.tolist()
    writes = trace.writes.tolist()
    misses = 0
    writebacks = 0
    for gap, line, wr in zip(gaps, lines, writes):
        pending += gap
        s = sets[line & mask]
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or wr
            continue
        misses += 1
        out_gaps.append(pending)
        out_lines.append(line)
        out_writes.append(False)
        pending = 0
        if len(s) >= ways:
            vline = next(iter(s))
            vdirty = s.pop(vline)
            if vdirty:
                writebacks += 1
                out_gaps.append(0)
                out_lines.append(vline)
                out_writes.append(True)
        s[line] = wr
    mem = AccessTrace(
        np.asarray(out_gaps, dtype=np.int64),
        np.asarray(out_lines, dtype=np.int64),
        np.asarray(out_writes, dtype=bool),
        tail_instructions=pending + trace.tail_instructions,
    )
    return mem, misses, writebacks


def _best_times(fns, *args, repeats: int = 7) -> list[float]:
    """Best-of-``repeats`` time of each function, the functions taking
    turns so that a burst of host load slows all of them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn(*args)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _gcc(instructions: int) -> AccessTrace:
    # gcc has the richest mix of misses, hits and dirty evictions
    return profile("gcc").cpu_trace(instructions, seed=1)


def _one_set(instructions: int, cfg: LlcConfig) -> AccessTrace:
    """gcc's gaps and write flags, every line in set 0 of ``cfg``."""
    cpu = _gcc(instructions)
    rng = np.random.default_rng(1)
    tags = rng.integers(0, 4 * cfg.ways, size=len(cpu))
    return AccessTrace(cpu.gaps, tags * cfg.sets, cpu.writes, cpu.tail_instructions)


#: case → (trace builder, LLC geometry, max new/reference time ratio)
CASES = {
    "gcc/2MB": (_gcc, LlcConfig(), 0.50),
    "gcc/512KB": (_gcc, LlcConfig(size_bytes=512 * 1024, ways=8), 1.10),
    "gcc/64KB": (_gcc, LlcConfig(size_bytes=64 * 1024), 1.25),
    "one-set/2MB": (lambda n: _one_set(n, LlcConfig()), LlcConfig(), 1.25),
}


@pytest.mark.parametrize("case", list(CASES))
def test_filter_trace_speed_and_equivalence(benchmark, scale, case):
    build, cfg, max_ratio = CASES[case]
    cpu = build(scale.instructions)

    def compare():
        ref_mem, ref_m, ref_w = filter_trace_reference(cpu, cfg)
        res = filter_trace(cpu, cfg)
        assert res.misses == ref_m and res.writebacks == ref_w
        assert res.accesses == len(cpu)
        assert np.array_equal(res.memory_trace.gaps, ref_mem.gaps)
        assert np.array_equal(res.memory_trace.lines, ref_mem.lines)
        assert np.array_equal(res.memory_trace.writes, ref_mem.writes)
        assert res.memory_trace.tail_instructions == ref_mem.tail_instructions
        return _best_times([filter_trace_reference, filter_trace], cpu, cfg)

    t_ref, t_new = run_once(benchmark, compare)
    speedup = t_ref / t_new if t_new > 0 else float("inf")
    print(f"\nfilter_trace {case}: reference {t_ref * 1e3:.1f} ms, "
          f"set-parallel {t_new * 1e3:.1f} ms (×{speedup:.2f})")
    assert t_new <= t_ref * max_ratio, (
        f"{case}: set-parallel filter_trace took {t_new:.4f}s, more than "
        f"{max_ratio}× the reference's {t_ref:.4f}s"
    )
