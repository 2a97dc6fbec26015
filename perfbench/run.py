"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fig7-cold --seed 0 --seconds 25 --trace 0

Run from the repository root.  Workloads:

* ``fig7-cold`` — ``repro fig 7 --scale smoke`` on an empty cache;
* ``fig10-cold`` — ``repro fig 10 --scale smoke`` on an empty cache;
* ``trace-characterize`` — ``repro characterize`` over all twelve
  benchmarks at default scale on an empty trace plane;
* ``serve-mixed`` — ``repro serve`` under a closed-loop read/write mix
  (``serve.py``).

A batch workload runs ``pass_count(workload, seconds)`` cold passes,
each in a fresh process (``workload.py``) on an empty cache dir; pass
``k`` uses plan seed ``plans.plan_seed(seed + k)``, and the metrics are
medians over passes.  The number of passes depends on ``--seconds``
alone, never on how fast the passes run, so a faster or slower program
measures the same inputs as its parent.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
passes alternate untraced and traced, and the per-layer metrics of the
traced passes are printed, with the tracing overhead and a Chrome
trace-event file under ``.bench_build/perfbench/traces/``.

End-to-end times are host times scaled to one reference interpreter
speed by a calibration loop timed beside them (``plans.loop_s``), since
a shared host's speed drifts by tens of percent within minutes; the
batch workloads' warm-read statistics are scaled instead by a paired
system-call probe (``probe_scaled``), and serve-mixed's request times are
reported at zero hypervisor steal (``serve.STEAL_K``).  The per-layer
metrics are raw host times; ``host.loop_ms`` gives the loop's raw time
and ``host.steal_frac`` the share of busy CPU time the hypervisor took.

Every pass is checked against ``reference.json`` (scalar-engine digests,
see ``record.py``); a mismatch or a failed operation exits 1.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plans
import serve
from tracer import median_metrics, spans_from_json, chrome_events, write_chrome_trace

MIN_PASSES = 3
#: seconds one cold pass takes, about its time on the 2-vCPU VM the
#: benchmark was defined on; sets the number of passes in a run
PASS_S = {"fig7-cold": 3.1, "fig10-cold": 5.3, "trace-characterize": 5.2}
#: the probe's p50, p99 and mean in ms at the reference host (about their
#: medians in trace-characterize on the 2-vCPU VM the benchmark was
#: defined on)
PROBE_REF_MS = {50: 0.018, 99: 0.038, "mean": 0.02}
#: no pass starts that could end later than this into the run (a guard
#: for a program several times slower than its parent)
BUDGET_S = 150.0

#: end-to-end metric → unit (BENCHMARK.json ``end_to_end``)
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "minstr_per_s": "Minstr/s", "hit_p50_ms": "ms",
    "hit_p99_ms": "ms", "plan_p50_s": "s", "rps": "1/s", "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}

_LAYER_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "store_s": "s", "load_s": "s",
    "put_s": "s", "get_s": "s", "put_calls": "count", "get_calls": "count",
    "requested": "count", "unique": "count", "store_bytes": "B", "put_bytes": "B",
    "hit_ratio": "frac", "fallback_ratio": "frac", "minstr_per_s": "Minstr/s",
    "maccesses_per_s": "Maccess/s", "mcycles_per_s": "Mcycle/s", "import_s": "s",
    "queue_depth_max": "count", "overhead": "x", "failed_frac": "frac",
    "steal_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric → unit (BENCHMARK.json ``per_layer``)."""
    from tracer import SHARE_LAYERS

    names = ["host.loop_ms", "host.steal_frac", "setup.import_s"]
    names += [f"workloads.{k}" for k in ("calls", "busy_s", "minstr_per_s")]
    names += [f"llc.{k}" for k in ("calls", "busy_s", "maccesses_per_s")]
    names += [f"trace_plane.{k}" for k in ("store_s", "store_bytes", "load_s", "hit_ratio")]
    for kind in ("kernel.epoch", "kernel.epoch_multi"):
        names += [f"{kind}.{k}" for k in ("calls", "busy_s", "mcycles_per_s")]
    names += ["kernel.fallback_ratio", "multicore.self_s", "energy.calls", "energy.busy_s"]
    names += [f"cache.{k}" for k in ("put_calls", "put_s", "put_bytes",
                                      "get_calls", "get_s", "hit_ratio")]
    names += ["runner.requested", "runner.unique", "runner.self_s"]
    names += ["service.handler_p50_ms", "service.handler_p99_ms", "service.wait_p99_ms",
              "service.queue_depth_max", "tracing.overhead", "run.failed_frac"]
    units = {n: _LAYER_UNITS[n.rsplit(".", 1)[1]] if not n.endswith("_ms") else "ms"
             for n in names}
    units.update({f"share.{layer}": "frac" for layer in SHARE_LAYERS})
    return units


def _spawn_pass(name: str, pseed: int, *, tiny: bool, traced: bool, n: int) -> dict:
    cache = plans.WORK / f"{name}-pass{n}"
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [sys.executable, str(plans.HERE / "workload.py"), "--workload", name,
           "--plan-seed", str(pseed)] + (["--tiny"] if tiny else []) \
        + (["--traced"] if traced else [])
    ticks = plans.cpu_ticks()
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=plans.hermetic_env(cache), cwd=plans.ROOT,
                              capture_output=True, text=True, timeout=BUDGET_S)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["steal"] = plans.steal_share(ticks, plans.cpu_ticks())
    # every time at the reference interpreter speed (plans.loop_s); set-up
    # excludes the calibration loop the pass ran before its command
    speed = plans.REF_LOOP_S / rec["loop_s"]
    rec["setup_s"] = (rec["t_setup"] - t_spawn - rec["cal_s"]) * speed
    rec["wall_s"] *= speed
    rec["plan_s"] *= speed
    rec["traced"] = traced
    rec["plan_seed"] = pseed
    return rec


def probe_scaled(passes: list[dict], stat) -> float:
    """A statistic (50, 99 or "mean") of the passes' warm reads at the reference host.

    The reads of every pass are pooled, and so are the probes paired with
    them (``workload._warm_reads``); the reads' statistic is scaled by
    ``PROBE_REF_MS[stat]`` over the probes' same statistic, so a slow
    period of the host, which slows reads and probes alike, cancels.
    """
    def of(values):
        return statistics.mean(values) if stat == "mean" else serve.percentile(values, stat)

    reads = [x for r in passes for x in r["hit_ms"]]
    probes = [x for r in passes for x in r["probe_ms"]]
    return of(reads) * PROBE_REF_MS[stat] / of(probes)


def pass_count(name: str, seconds: float) -> int:
    """Cold passes in a run of ``seconds``: distinct plan seeds, at least ``MIN_PASSES``."""
    return max(MIN_PASSES, min(plans.N_PLAN_SEEDS, round(seconds / PASS_S[name])))


def _check_pass(name: str, rec: dict, ref) -> list[str]:
    """Output check of one pass against the reference; mismatch messages."""
    if name == "trace-characterize":
        got = {"table": rec["table_sha256"], "traces": rec["trace_sha256"]}
        return [f"characterize {k} sha256 {got[k]} != reference {ref[k]}"
                for k in ("table", "traces") if got[k] != ref[k]]
    if len(rec["digests"]) != len(ref):
        return [f"{len(rec['digests'])} results != {len(ref)} in the reference"]
    return [f"spec {i}: digest {got} != reference {want}"
            for i, (got, want) in enumerate(zip(rec["digests"], ref)) if got != want]


def run_batch(name: str, seed: int, seconds: float, *, traced: bool, tiny: bool,
              refs: dict) -> dict:
    """``pass_count`` cold passes; medians over the untraced ones.

    Pass ``k`` runs plan seed ``plan_seed(seed + k)``: the inputs of one
    seed differ in memory intensity by about ten percent from the next,
    so a run rotates through the plan seeds instead of measuring one.
    With ``traced`` every second pass is traced.
    """
    passes: list[dict] = []
    t0 = time.monotonic()
    for k in range(pass_count(name, seconds)):
        t_pass = time.monotonic()
        passes.append(_spawn_pass(name, plans.plan_seed(seed + k), tiny=tiny, n=k,
                                  traced=traced and k % 2 == 1))
        now = time.monotonic()
        if now - t0 + (now - t_pass) > BUDGET_S:
            break
    mismatches = [m for r in passes for m in _check_pass(name, r, refs[str(r["plan_seed"])])]
    plain = [r for r in passes if not r["traced"]]

    def med(f):
        return statistics.median(f(r) for r in plain)

    out = {
        "metrics": {
            "setup_s": med(lambda r: r["setup_s"]),
            "wall_s": med(lambda r: r["wall_s"]),
            "minstr_per_s": med(lambda r: r["instructions"] / 1e6 / r["wall_s"]),
            "hit_p50_ms": probe_scaled(plain, 50),
            "hit_p99_ms": probe_scaled(plain, 99),
            "plan_p50_s": med(lambda r: r["plan_s"]),
            "rps": 1e3 / probe_scaled(plain, "mean"),
            "peak_rss_mib": med(lambda r: r["maxrss_kib"]) / 1024,
        },
        "attempted": sum(r["attempted"] + len(r["hit_ms"]) for r in passes),
        "failed": sum(r["failed"] + r["hit_missed"] for r in passes),
        "mismatches": mismatches,
        "failures": [f"pass {i}: {r['failed']} failed specs, {r['hit_missed']} missed reads"
                     for i, r in enumerate(passes) if r["failed"] or r["hit_missed"]],
        "counts": {"passes": len(plain), "hit_samples_per_pass": len(plain[0]["hit_ms"]),
                   "plan_seeds": sorted({r["plan_seed"] for r in passes})},
    }
    if traced:
        traced_passes = [r for r in passes if r["traced"]]
        out["layers"] = median_metrics([r["layers"] for r in traced_passes])
        out["layers"]["setup.import_s"] = statistics.median(r["import_s"] for r in passes)
        out["layers"]["host.loop_ms"] = statistics.median(r["loop_s"] for r in passes) * 1e3
        out["layers"]["host.steal_frac"] = statistics.median(r["steal"] for r in passes)
        # each traced pass against the untraced pass just before it
        out["overhead"] = statistics.median(
            passes[i]["wall_s"] / passes[i - 1]["wall_s"] for i in range(1, len(passes), 2))
        out["events"] = chrome_events(spans_from_json(traced_passes[-1]["spans"]), 1,
                                      f"repro {name}")
    return out


def _finish(name: str, seed: int, res: dict, traced: bool) -> dict:
    """Assemble the result line from a workload's raw results."""
    failed_frac = res["failed"] / res["attempted"]
    if traced:
        values = {n: 0.0 for n in per_layer_units()}
        values.update(res["layers"])
        values["tracing.overhead"] = res["overhead"]
        values["run.failed_frac"] = failed_frac
        units = per_layer_units()
        path = plans.WORK / "traces" / f"{name}-seed{seed}.trace.json"
        write_chrome_trace(path, res["events"])
        print(f"trace: {path.relative_to(plans.ROOT)}")
    else:
        values = dict(res["metrics"], ok_frac=1.0 - failed_frac)
        units = END_TO_END
    return {
        "correct": not res["mismatches"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced inputs (self-tests); needs --reference")
    ap.add_argument("--reference", type=Path, default=plans.REFERENCE,
                    help="reference outputs (default: perfbench/reference.json)")
    args = ap.parse_args(argv)

    if not (plans.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {plans.SRC}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(args.reference.read_text())
        refs = {str(p): doc[str(p)][args.workload]
                for p in range(1, plans.N_PLAN_SEEDS + 1)}
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no reference for {args.workload} at every plan seed: {exc!r}",
              file=sys.stderr)
        return 2
    # byte-compile once, outside every timed region: users pay it once
    compileall.compile_dir(str(plans.SRC), quiet=1)
    plans.WORK.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    if args.workload == "serve-mixed":
        work = plans.WORK / "serve"
        shutil.rmtree(work, ignore_errors=True)
        try:
            res = serve.run(args.seed, args.seconds, traced=traced, tiny=args.tiny,
                            refs=refs, work=work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        res = run_batch(args.workload, args.seed, args.seconds, traced=traced,
                        tiny=args.tiny, refs=refs)
    out = _finish(args.workload, args.seed, res, traced)
    print(f"{args.workload} seed {args.seed}: {res['counts']}")
    if traced:
        print(f"tracing overhead: traced wall / untraced wall = {res['overhead']:.3f}")
    for line in res["mismatches"][:20] + res["failures"][:20]:
        print(f"  {line}")
    print(json.dumps(out))
    return 0 if out["correct"] and not out["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
