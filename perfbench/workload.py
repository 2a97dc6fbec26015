"""One cold pass of a batch workload, in the process that runs it.

``run.py`` spawns this file once per measured pass, so every pass starts
cold: a new interpreter, an empty artifact cache and trace plane.  The
pass runs the workload's ``repro`` command line in-process, then re-reads
each finished result from the store (the warm path a repeated command
takes), and prints one JSON record with its timings, digests and counts.

    REPRO_CACHE_DIR=<empty dir> python perfbench/workload.py \\
        --workload fig7-cold --plan-seed 1 [--traced] [--tiny]

The caller sets the environment (``plans.hermetic_env``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import plans
from tracer import PROBES, Tracer, layer_metrics

#: warm reads per pass (10 samples past one pass's p99)
HIT_READS = 1000


def _probe(path: str) -> float:
    """Host milliseconds of a stat and read of a small file, outside the program."""
    t = time.monotonic()
    os.stat(path)
    with open(path, "rb") as fh:
        fh.read()
    return (time.monotonic() - t) * 1e3


def _warm_reads(workload: str, keys: list, reads: int, probe_path: str) -> dict:
    """Re-read each result (or trace) from the store with memos cleared.

    A read is a few system calls and a decode, and the shared host's
    system-call latency drifts by tens of percent between seconds, which
    the CPU calibration loop does not follow.  So each read is paired
    with a probe (``_probe``) timed just before it, from which run.py
    scales the reads' percentiles to a reference host.  Returns the read
    and probe latencies in ms and the reads that missed.
    """
    from repro.harness import cached_result
    from repro.harness.runner import clear_result_memo
    from repro.workloads import clear_trace_cache, profile

    with open(probe_path, "wb") as fh:
        fh.write(bytes(2048))
    lat, probe, missed = [], [], 0
    for i in range(reads):
        key = keys[i % len(keys)]
        probe.append(_probe(probe_path))
        if workload == "trace-characterize":
            clear_trace_cache()
            name, instructions, llc, seed = key
            t = time.monotonic()
            trace = profile(name).memory_trace(instructions, llc, seed=seed)
            lat.append((time.monotonic() - t) * 1e3)
            missed += trace is None
        else:
            clear_result_memo()
            t = time.monotonic()
            result = cached_result(key)
            lat.append((time.monotonic() - t) * 1e3)
            missed += result is None
    return {"hit_ms": lat, "probe_ms": probe, "hit_missed": missed}


def trace_digest(traces: dict) -> str:
    """sha256 over every trace's arrays, in (benchmark, instructions, seed) order."""
    h = hashlib.sha256()
    for key in sorted(traces):
        trace = traces[key]
        h.update(repr((key, trace.tail_instructions)).encode())
        for arr in (trace.gaps, trace.lines, trace.writes):
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def run_pass(workload: str, pseed: int, *, tiny: bool = False, traced: bool = False,
             reads: int = HIT_READS) -> dict:
    """Run one cold pass in this process (caller provides the environment)."""
    t0 = time.monotonic()
    from repro import SystemConfig, cli
    from repro.harness.quarantine import result_digest
    from repro.harness.runner import clear_result_memo
    from repro.workloads import clear_trace_cache

    import_s = time.monotonic() - t0
    clear_result_memo()
    clear_trace_cache()
    t_cal = time.monotonic()
    loops = [plans.loop_s()]
    cal_s = time.monotonic() - t_cal
    tracer = Tracer().install(None if traced else PROBES)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(plans.cli_argv(workload, pseed, tiny))
        t_end = time.monotonic()
    finally:
        tracer.restore()
    starts = [s.start for s in tracer.spans
              if s.parent is None and s.name in ("runner.execute_plan", "workloads.memory_trace")]
    t_setup = min(starts) if starts else t_end
    wall_s = t_end - t_setup

    loops.append(plans.loop_s())
    rec = {"rc": rc, "import_s": import_s, "t_setup": t_setup, "cal_s": cal_s,
           "wall_s": wall_s}
    if workload == "trace-characterize":
        traces = [s for s in tracer.spans if s.name == "workloads.memory_trace"]
        rec["plan_s"] = sum(s.dur for s in traces)
        rec["attempted"] = len(traces)
        rec["failed"] = int(rc != 0)
        rec["instructions"] = sum(s.attrs["instructions"] for s in traces)
        rec["table_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        rec["trace_sha256"] = trace_digest(tracer.traces)
        llc = SystemConfig.single_core().llc
        keys = sorted({(s.attrs["trace"], s.attrs["instructions"], llc, s.attrs["seed"])
                       for s in traces})
    else:
        rec["plan_s"] = sum(s.dur for s in tracer.spans
                            if s.parent is None and s.name == "runner.execute_plan")
        digests, unique = [], {}
        failed = int(rc != 0)
        for spec_list, results in tracer.plans:
            failed += len(results.failures)
            for spec in spec_list:
                got = results.get(spec)
                digests.append(result_digest(got) if got is not None else "")
                unique[spec.key] = spec
        rec["attempted"] = sum(len(s) for s, _ in tracer.plans)
        rec["failed"] = failed
        rec["instructions"] = sum(s.instructions * len(s.workloads) for s in unique.values())
        rec["digests"] = digests
        keys = sorted(unique)
    if traced:
        rec["layers"] = layer_metrics(tracer.spans, wall_s)
        rec["spans"] = [s.to_json() for s in tracer.spans]
    if reads and keys:
        rec.update(_warm_reads(workload, keys, reads,
                               os.path.join(os.environ["REPRO_CACHE_DIR"], "probe.bin")))
    else:
        rec.update(hit_ms=[], probe_ms=[], hit_missed=0)
    loops.append(plans.loop_s())
    rec["loop_s"] = statistics.median(loops)
    rec["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=plans.BATCH)
    ap.add_argument("--plan-seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    rec = run_pass(args.workload, args.plan_seed, tiny=args.tiny, traced=args.traced)
    sys.stdout.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
