"""Spans around the program's layer boundaries, recorded from outside.

The benchmark times each layer by wrapping the public function the
layer exposes (``Tracer.install``); the program itself is unchanged.
Every binding of a wrapped function inside ``repro`` is replaced, since
modules import each other's functions by name, and ``restore`` puts the
originals back.  Spans stay in memory until the caller exports them.

A span records its name, layer, start, end, parent span and the spec
fingerprint it works for (inherited from the enclosing ``run_spec``
span), so spans of one spec share an id.  All times are host
``time.monotonic()`` seconds, a clock shared by every process on the
host, so client and server spans line up in one trace.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    layer: str
    start: float = 0.0
    end: float = 0.0
    parent: "Span | None" = None
    tid: int = 0
    fp: str = ""
    id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name, "layer": self.layer, "start": self.start,
            "end": self.end, "parent": self.parent.id if self.parent else None,
            "tid": self.tid, "fp": self.fp, "id": self.id, "attrs": self.attrs,
        }


def spans_from_json(rows: list[dict]) -> list[Span]:
    """Rebuild spans (with parent links) from :meth:`Span.to_json` rows."""
    spans = {}
    for row in rows:
        spans[row["id"]] = Span(
            row["name"], row["layer"], row["start"], row["end"], None,
            row["tid"], row["fp"], row["id"], row["attrs"],
        )
    for row in rows:
        if row["parent"] is not None:
            spans[row["id"]].parent = spans.get(row["parent"])
    return list(spans.values())


# ------------------------------------------------------------------ hooks
#
# A hook runs before the wrapped call with (tracer, span, args, kwargs).
# It may set attributes on the span and return ``(args, kwargs, after)``,
# where ``after(out)`` runs once the call returned.


def _execute_plan_hook(tracer, span, args, kwargs):
    from repro.harness.runner import RunPlan

    specs = args[0]
    if not isinstance(specs, (RunPlan, list, tuple)):
        specs = list(specs)  # keep the caller's one-shot iterable usable
        args = (specs,) + tuple(args[1:])
    spec_list = list(specs.specs if isinstance(specs, RunPlan) else specs)

    def after(out):
        span.attrs.update(requested=out.stats.requested, unique=out.stats.unique)
        tracer.plans.append((spec_list, out))

    return args, kwargs, after


def _run_spec_hook(tracer, span, args, kwargs):
    span.fp = args[0].key
    return args, kwargs, None


def _memory_trace_hook(tracer, span, args, kwargs):
    profile, instructions = args[0], args[1]
    seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
    span.attrs.update(trace=profile.name, instructions=int(instructions), seed=int(seed))

    def after(out):
        tracer.traces[(profile.name, int(instructions), int(seed))] = out

    return args, kwargs, after


def _generate_hook(tracer, span, args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["total_instructions"]
    span.attrs["instructions"] = int(n)
    return args, kwargs, None


def _filter_hook(tracer, span, args, kwargs):
    span.attrs["accesses"] = len(args[0])
    return args, kwargs, None


def _plane_load_hook(tracer, span, args, kwargs):
    def after(out):
        span.attrs["hit"] = out is not None

    return args, kwargs, after


def _bytes_written_hook(tracer, span, args, kwargs):
    owner = args[0]
    before = owner.bytes_written

    def after(out):
        span.attrs["bytes"] = owner.bytes_written - before

    return args, kwargs, after


def _cache_get_hook(tracer, span, args, kwargs):
    default = args[2] if len(args) > 2 else kwargs.get("default")

    def after(out):
        span.attrs["hit"] = out is not default

    return args, kwargs, after


def _kernel_hook(tracer, span, args, kwargs):
    memory, cores = args[0], args[1]
    org = memory.config.organization
    single = org.channels == 1 and org.ranks == 1 and len(cores) == 1

    def after(out):
        if out is not None:
            span.name = span.layer = "kernel.declined"
            span.attrs["reason"] = str(out)
        else:
            span.name = span.layer = "kernel.epoch" if single else "kernel.epoch_multi"
            span.attrs["cycles"] = int(memory.now)

    return args, kwargs, after


#: every wrapped boundary: name → (module, attribute, layer, hook); the
#: attribute is ``Class.method`` for a method
BOUNDARIES = {
    "runner.execute_plan": ("repro.harness.runner", "execute_plan", "runner",
                            _execute_plan_hook),
    "runner.run_spec": ("repro.harness.runner", "run_spec", "runner", _run_spec_hook),
    "workloads.memory_trace": ("repro.workloads.spec_profiles", "SpecProfile.memory_trace",
                               "workloads", _memory_trace_hook),
    "workloads.generate_trace": ("repro.workloads.synthetic", "generate_trace", "workloads",
                                 _generate_hook),
    "workloads.characterize": ("repro.workloads.analysis", "characterize", "workloads", None),
    "llc.filter_trace": ("repro.cpu.llc", "filter_trace", "llc", _filter_hook),
    "trace_plane.load": ("repro.harness.trace_plane", "TracePlane.load", "trace_plane",
                         _plane_load_hook),
    "trace_plane.store": ("repro.harness.trace_plane", "TracePlane.store", "trace_plane",
                          _bytes_written_hook),
    "multicore.run_cores": ("repro.cpu.multicore", "run_cores", "multicore", None),
    "kernel.run_epoch_kernel": ("repro.kernel.epoch", "run_epoch_kernel", "kernel",
                                _kernel_hook),
    "energy.system_energy": ("repro.energy.dram_power", "system_energy", "energy", None),
    "cache.get": ("repro.harness.cache", "ArtifactCache.get", "cache.get",
                  _cache_get_hook),
    "cache.put": ("repro.harness.cache", "ArtifactCache.put", "cache.put",
                  _bytes_written_hook),
}


def boundaries(names=None) -> dict[str, tuple]:
    """The named boundaries (default: all): name → (owner, attribute, layer, hook).

    Only the modules behind the requested names are imported, so an
    untraced run imports nothing its command would not.  The full set
    also imports every module that binds a wrapped function by name
    (the CLI, the service, the multi-core kernel), so ``restore`` finds
    every binding it replaced.
    """
    if names is None:
        names = list(BOUNDARIES)
        for mod in ("repro.cli", "repro.service", "repro.kernel.epoch_multi"):
            importlib.import_module(mod)
    table = {}
    for name in names:
        mod, attr, layer, hook = BOUNDARIES[name]
        owner = importlib.import_module(mod)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        table[name] = (owner, attr, layer, hook)
    return table


#: the boundaries an untraced run keeps: where set-up ends, per-spec
#: times and the plan results the output check needs
PROBES = ("runner.execute_plan", "runner.run_spec", "workloads.memory_trace")


class Tracer:
    """Wraps layer boundaries and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (requested specs, PlanResults) of every execute_plan call
        self.plans: list[tuple[list, object]] = []
        #: (benchmark, instructions, seed) → trace of every memory_trace call
        self.traces: dict[tuple, object] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, hook=None):
        """``fn`` wrapped so each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent=parent, tid=threading.get_ident(),
                        fp=parent.fp if parent is not None else "", id=next(self._ids))
            after = None
            if hook is not None:
                args, kwargs, after = hook(self, span, args, kwargs)
            self.spans.append(span)
            stack.append(span)
            span.start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def install(self, names=None) -> "Tracer":
        """Wrap the named boundaries (default: all of them)."""
        for name, (owner, attr, layer, hook) in boundaries(names).items():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, layer, original, hook))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, layer, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        return self

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------- metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.id in own:
            own[s.parent.id] -= s.dur
    return own


#: layers whose self time the traced run reports as a share of wall time
SHARE_LAYERS = (
    "workloads", "llc", "trace_plane", "kernel.epoch", "kernel.epoch_multi",
    "multicore", "energy", "cache.get", "cache.put", "runner", "service",
)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer counts, busy and self times from one traced unit of work."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.dur for s in named(name))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    gen, filt = named("workloads.generate_trace"), named("llc.filter_trace")
    loads, stores = named("trace_plane.load"), named("trace_plane.store")
    gets, puts = named("cache.get"), named("cache.put")
    kernels = [s for s in spans if s.layer.startswith("kernel.")]
    plans = named("runner.execute_plan")
    m = {
        "workloads.calls": len(gen),
        "workloads.busy_s": busy("workloads.generate_trace"),
        "workloads.minstr_per_s": rate(
            sum(s.attrs["instructions"] for s in gen) / 1e6, busy("workloads.generate_trace")),
        "llc.calls": len(filt),
        "llc.busy_s": busy("llc.filter_trace"),
        "llc.maccesses_per_s": rate(
            sum(s.attrs["accesses"] for s in filt) / 1e6, busy("llc.filter_trace")),
        "trace_plane.store_s": busy("trace_plane.store"),
        "trace_plane.store_bytes": sum(s.attrs.get("bytes", 0) for s in stores),
        "trace_plane.load_s": busy("trace_plane.load"),
        "trace_plane.hit_ratio": rate(sum(1 for s in loads if s.attrs.get("hit")), len(loads)),
        "kernel.fallback_ratio": rate(
            sum(1 for s in kernels if s.name == "kernel.declined"), len(kernels)),
        "multicore.self_s": sum(own[s.id] for s in named("multicore.run_cores")),
        "energy.calls": len(named("energy.system_energy")),
        "energy.busy_s": busy("energy.system_energy"),
        "cache.put_calls": len(puts),
        "cache.put_s": busy("cache.put"),
        "cache.put_bytes": sum(s.attrs.get("bytes", 0) for s in puts),
        "cache.get_calls": len(gets),
        "cache.get_s": busy("cache.get"),
        "cache.hit_ratio": rate(sum(1 for s in gets if s.attrs.get("hit")), len(gets)),
        "runner.requested": sum(s.attrs.get("requested", 0) for s in plans),
        "runner.unique": sum(s.attrs.get("unique", 0) for s in plans),
        "runner.self_s": sum(own[s.id] for s in spans if s.layer == "runner"),
    }
    for kind in ("kernel.epoch", "kernel.epoch_multi"):
        ks = named(kind)
        m[f"{kind}.calls"] = len(ks)
        m[f"{kind}.busy_s"] = busy(kind)
        m[f"{kind}.mcycles_per_s"] = rate(sum(s.attrs["cycles"] for s in ks) / 1e6, busy(kind))
    by_layer: dict[str, float] = {}
    for s in spans:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + own[s.id]
    for layer in SHARE_LAYERS:
        m[f"share.{layer}"] = rate(by_layer.get(layer, 0.0), wall_s)
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced units of work."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ----------------------------------------------------------------- export


def chrome_events(spans: list[Span], pid: int, label: str) -> list[dict]:
    """Chrome trace-event rows (Perfetto loads them) for one process."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for s in spans:
        events.append({
            "ph": "X", "name": s.name, "cat": s.layer, "pid": pid, "tid": s.tid,
            "ts": s.start * 1e6, "dur": s.dur * 1e6,
            "args": {"fp": s.fp, "id": s.id,
                     "parent": s.parent.id if s.parent else None, **s.attrs},
        })
    return events


def write_chrome_trace(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
