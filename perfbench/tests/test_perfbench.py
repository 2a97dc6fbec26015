"""Self-tests of the benchmark (not part of the program's test suite).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The tiny-size passes record their own scalar-engine reference first, so
they need nothing committed beyond the benchmark's files.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import plans  # noqa: E402
import run  # noqa: E402
from tracer import PROBES, Tracer, boundaries  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    doc = _bench_json()
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(plans.WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)


def test_wrappers_restore_the_originals():
    table = boundaries()

    def bindings():
        seen = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "repro":
                for key, value in vars(mod).items():
                    if callable(value):
                        seen[(mod_name, key)] = value
        for owner, attr, _, _ in table.values():
            if isinstance(owner, type):
                seen[(owner.__qualname__, attr)] = owner.__dict__[attr]
        return seen

    before = bindings()
    tracer = Tracer().install()
    try:
        during = bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert len(changed) >= len(table)
        import repro.harness.runner as runner
        from repro.harness.cache import ArtifactCache

        assert runner.run_spec is not before[("repro.harness.runner", "run_spec")]
        assert ArtifactCache.get is not before[("ArtifactCache", "get")]
    finally:
        tracer.restore()
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_untraced_probes_import_nothing_the_command_does_not():
    code = (
        "import sys; from repro import cli; from tracer import PROBES, Tracer; "
        "before = set(sys.modules); t = Tracer().install(PROBES); t.restore(); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120,
                          env={"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert set(PROBES) <= set(boundaries(PROBES))


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory) -> Path:
    import record

    doc = {str(p): {w: record.reference(w, p, tiny=True) for w in plans.WORKLOADS}
           for p in range(1, plans.N_PLAN_SEEDS + 1)}
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps(doc))
    return path


def _run(workload: str, reference: Path, trace: int = 0) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny", "--reference", str(reference)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_tiny_pass_completes_with_no_failures(workload, tiny_reference):
    rc, out = _run(workload, tiny_reference)
    assert rc == 0, out
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    metrics = out["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", ["fig7-cold", "serve-mixed"])
def test_traced_tiny_pass_reports_every_layer(workload, tiny_reference):
    rc, out = _run(workload, tiny_reference, trace=1)
    assert rc == 0, out
    assert set(out["metrics"]) == set(run.per_layer_units())
    assert out["metrics"]["run.failed_frac"]["value"] == 0.0
    assert out["metrics"]["tracing.overhead"]["value"] > 0


@pytest.mark.parametrize("workload", ["fig7-cold", "trace-characterize", "serve-mixed"])
def test_tampered_reference_fails_the_run(workload, tiny_reference, tmp_path):
    doc = json.loads(tiny_reference.read_text())
    entry = doc[str(plans.plan_seed(SEED + 1))]  # the second pass or set-up
    if workload == "serve-mixed":
        entry[workload]["corpus"][0] = "0" * 64
    elif workload == "trace-characterize":
        entry[workload]["traces"] = "0" * 64
    else:
        entry[workload][0] = "0" * 64
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(doc))
    rc, out = _run(workload, tampered)
    assert rc == 1
    assert out["correct"] is False
