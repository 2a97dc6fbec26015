"""Record the reference outputs the benchmark checks every run against.

    PYTHONPATH=src python perfbench/record.py

Each workload's outputs are computed with the scalar engine, the
bit-exactness reference, in an empty cache dir: per-spec result digests
(sha256 of the pickled ``MulticoreResult``) of the ``fig 7`` and
``fig 10`` plans, the sha256 of the rendered ``characterize`` table and
of the trace arrays behind it, and the digests of the serve-mixed corpus
and of every new plan a run may submit, for every workload at plan seeds
``1..N_PLAN_SEEDS``.  The result goes to ``perfbench/reference.json``.
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import plans
import workload


def _serve_digests(pseed: int, tiny: bool) -> dict:
    from repro.harness import execute_plan
    from repro.harness.quarantine import result_digest
    from repro.service import spec_from_descriptor

    def digests(descriptors):
        specs = [spec_from_descriptor(d, i) for i, d in enumerate(descriptors)]
        results = execute_plan(specs, jobs=1)
        return [result_digest(results[s]) for s in specs]

    writes = [plans.write_specs(pseed, i, tiny) for i in range(plans.MAX_WRITES)]
    flat = digests([d for pair in writes for d in pair])
    return {
        "corpus": digests(plans.corpus_specs(pseed, tiny)),
        "writes": [flat[i:i + 2] for i in range(0, len(flat), 2)],
    }


def reference(name: str, pseed: int, tiny: bool = False) -> object:
    """Scalar-engine reference output of one workload at one plan seed."""
    plans.WORK.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=plans.WORK)
    try:
        with plans.hermetic(Path(tmp) / "cache", engine="scalar"):
            if name == "serve-mixed":
                return _serve_digests(pseed, tiny)
            rec = workload.run_pass(name, pseed, tiny=tiny, reads=0)
            if rec["rc"] != 0 or rec["failed"]:
                raise RuntimeError(f"{name} failed while recording its reference")
            if name == "trace-characterize":
                return {"table": rec["table_sha256"], "traces": rec["trace_sha256"]}
            return rec["digests"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    doc = {}
    for pseed in range(1, plans.N_PLAN_SEEDS + 1):
        doc[str(pseed)] = {}
        for name in plans.WORKLOADS:
            print(f"recording {name} at plan seed {pseed}", file=sys.stderr, flush=True)
            doc[str(pseed)][name] = reference(name, pseed)
    plans.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
