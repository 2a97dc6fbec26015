"""serve-mixed: ``repro serve`` under a closed loop of two keep-alive clients.

Set-up spawns the server on an empty cache dir, waits for ``/healthz``
and fills it with the corpus plan.  Two client threads in this process
each hold one keep-alive connection and send their next request only
after the previous reply.  Neither follows an invented mix; each runs a
flow the repository documents:

* the reader runs the per-client schedule of ``scripts/load_soak.py``
  over the finished corpus: request ``i`` polls the corpus job if
  ``i % 7 == 3``, else re-POSTs the corpus plan if ``i % 5 == 2``, else
  fetches ``GET /results/{fp}`` of corpus fingerprint ``i % n``.  The
  re-POST carries the plan's ETag in ``If-None-Match`` and so gets the
  ``304`` the README's idempotency contract describes;
* the writer runs the README's submit flow back to back: POST a new
  two-spec plan (``plans.write_specs``), poll ``GET /plans/{id}`` every
  ``POLL_S`` until it is done, then ``GET /results/{fp}`` of each spec.

A run is ``SETUPS`` segments, each on a fresh server: set-up, corpus
fill, then load.  A segment's load is a fixed amount of work: it ends
when the writer has finished ``write_count(seconds)`` plans, so a faster
or slower program measures the same inputs.  Every result body fetched is
checked against the scalar-engine reference digest.  The hit latencies
and ``rps`` are reported at zero hypervisor steal (``STEAL_K``).
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import plans
from tracer import chrome_events, layer_metrics, spans_from_json

#: poll interval for a pending new plan (a plan takes about 0.1 s)
POLL_S = 0.004
#: writer plans per second of ``--seconds``; a plan cycle (POST, polls,
#: fetches) takes about 0.11 s on the 2-vCPU VM the benchmark was defined
#: on, so the load is about two thirds of the run
PLANS_PER_S = 6.0
#: stretch of a request time per unit of steal during the load
#: (``plans.steal_share``), for the hit p50, the hit p99 and the time per
#: request (1 / rps); those metrics are reported at zero steal, as
#: ``measured / (1 + k * steal)``.  On a shared VM the hypervisor's steal
#: drifts over minutes and stretches request times far more than the
#: calibration loop's speed shows, since a stalled virtual CPU stalls
#: every request in flight.  Fitted by least squares, ``metric = base *
#: (1 + k * steal)``, over 20 runs (seeds 30-41 and 50-57, steal 2-21%) on
#: the 2-vCPU VM the benchmark was defined on.  The fits of the two
#: halves alone agree (p99 2.94 / 2.98, p50 2.24 / 1.74, time per request
#: 1.38 / 1.27); with these k the spread (IQR / median) over the runs of
#: each half is .05 / .03 for p99, .05 / .04 for p50 and .06 / .06 for
#: rps, against .20 / .21, .11 / .12 and .10 / .16 when they were scaled
#: by the calibration loop instead.
STEAL_K = {99: 3.0, 50: 2.0, "request": 1.3}
#: servers (segments) per run; set-up and rate metrics are their medians
SETUPS = 5
#: /healthz probe interval of the traced run (queue depth)
HEALTH_EVERY_S = 0.1
#: longest the load may take before the run fails
LOAD_LIMIT_S = 120.0


def write_count(seconds: float) -> int:
    """New plans the writer submits in each segment of a run of ``seconds``."""
    return max(1, min(plans.MAX_WRITES, round(seconds * PLANS_PER_S / SETUPS)))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def hist_percentile(hist: dict, q: float) -> float:
    """Percentile of a MetricsRegistry histogram, linear within a bucket."""
    bounds, counts = hist["bounds"], hist["counts"]
    total = sum(counts)
    if not total:
        return 0.0
    rank, seen = q / 100 * total, 0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            if i == len(bounds):
                return bounds[-1]
            lo = bounds[i - 1] if i else 0.0
            return lo + (bounds[i] - lo) * (rank - seen) / c
        seen += c
    return bounds[-1]


def hist_delta(after: dict, before: dict | None) -> dict:
    if before is None:
        return after
    return {"bounds": after["bounds"],
            "counts": [a - b for a, b in zip(after["counts"], before["counts"])],
            "sum": after["sum"] - before["sum"]}


class Conn:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None,
             headers: dict | None = None) -> tuple[int, bytes, float, float]:
        t0 = time.monotonic()
        self.http.request(method, path, body=body, headers=headers or {})
        resp = self.http.getresponse()
        data = resp.read()
        return resp.status, data, t0, time.monotonic()

    def close(self) -> None:
        self.http.close()


class Server:
    """A ``repro serve`` process on an empty cache dir."""

    def __init__(self, work: Path, trace_out: Path | None = None) -> None:
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(plans.HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log = open(work / "server.log", "wb")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, env=plans.hermetic_env(work / "cache"), cwd=plans.ROOT,
            stdout=subprocess.PIPE, stderr=self.log,
        )
        self.port = self._read_port(deadline=self.t_spawn + 60)

    def _read_port(self, deadline: float) -> int:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("repro serve did not report a listening port")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                line = self.proc.stdout.readline().decode(errors="replace")
                found = re.search(r"http://[\d.]+:(\d+)", line)
                if found:
                    return int(found.group(1))

    def wait_healthy(self) -> float:
        """Poll ``/healthz`` until it answers 200; returns that moment."""
        while True:
            conn = Conn(self.port)
            try:
                status, _, _, t1 = conn.call("GET", "/healthz")
                if status == 200:
                    return t1
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


@dataclass
class Shared:
    """State the two clients share."""

    pseed: int
    tiny: bool
    refs: dict
    corpus_fps: list[str]
    corpus_id: str
    corpus_body: bytes
    expected: dict[str, str]
    writes: int
    traced: bool
    deadline: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)
    lock: threading.Lock = field(default_factory=threading.Lock)
    mismatches: list[str] = field(default_factory=list)


class Client(threading.Thread):
    """One closed-loop client on its own keep-alive connection."""

    def __init__(self, idx: int, port: int, shared: Shared) -> None:
        super().__init__(name=f"client-{idx}")
        self.idx = idx
        self.conn = Conn(port)
        self.shared = shared
        #: (kind, t_send, t_reply, status) per request
        self.samples: list[tuple[str, float, float, int]] = []
        #: (POST sent, done observed) of each new plan
        self.plans: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.queue_depths: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            if self.idx == 0:
                self._read_loop()
            else:
                self._write_loop()
        except BaseException as exc:  # run() reports it as a failed run
            self.error = exc
        finally:
            if self.idx != 0:
                self.shared.done.set()
            self.conn.close()

    def _call(self, kind, method, path, body=None, headers=None, ok=(200,)):
        status, data, t0, t1 = self.conn.call(method, path, body, headers)
        self.samples.append((kind, t0, t1, status))
        if status not in ok:
            self.failures.append(f"{kind} {method} {path}: HTTP {status}")
            return None
        return data

    def _read_loop(self) -> None:
        """``scripts/load_soak.py``'s schedule until the writer is done."""
        sh = self.shared
        etag = {"If-None-Match": f'"{sh.corpus_id}"'}
        next_health = time.monotonic()
        for i in itertools.count():
            if sh.done.is_set():
                return
            if sh.traced and time.monotonic() >= next_health:
                next_health = time.monotonic() + HEALTH_EVERY_S
                data = self._call("healthz", "GET", "/healthz")
                if data is not None:
                    self.queue_depths.append(json.loads(data)["dispatcher"]["queue_depth"])
            if i % 7 == 3:
                self._call("poll_done", "GET", f"/plans/{sh.corpus_id}")
            elif i % 5 == 2:
                self._call("repost", "POST", "/plans", body=sh.corpus_body, headers=etag,
                           ok=(304,))
            else:
                self._fetch(sh.corpus_fps[i % len(sh.corpus_fps)], "result")

    def _write_loop(self) -> None:
        """The README's submit flow, back to back, for ``writes`` new plans."""
        sh = self.shared
        for i in range(sh.writes):
            body = json.dumps({"specs": plans.write_specs(sh.pseed, i, sh.tiny)}).encode()
            data = self._call("write", "POST", "/plans", body, ok=(200, 202))
            if data is None:
                return
            t_post = self.samples[-1][1]
            job = json.loads(data)
            fps = [s["fingerprint"] for s in job["specs"]]
            with sh.lock:
                sh.expected.update(zip(fps, sh.refs["writes"][i]))
            while job["state"] not in ("done", "failed"):
                if time.monotonic() > sh.deadline:
                    self.failures.append(f"plan {job['id']} not done in {LOAD_LIMIT_S} s")
                    return
                time.sleep(POLL_S)
                data = self._call("poll", "GET", f"/plans/{job['id']}")
                if data is None:
                    return
                job = json.loads(data)
            self.plans.append((t_post, self.samples[-1][2]))
            if job["state"] == "failed" or job["failures"]:
                self.failures.append(f"plan {job['id']}: {job['state']} {job['failures']}")
                return
            for fp in fps:
                self._fetch(fp, "fetch")

    def _fetch(self, fp: str, kind: str) -> None:
        data = self._call(kind, "GET", f"/results/{fp}")
        if data is None:
            return
        digest = json.loads(data)["digest"]
        with self.shared.lock:
            want = self.shared.expected.get(fp)
        if digest != want:
            self.shared.mismatches.append(f"result {fp}: digest {digest} != reference {want}")


def _fill(server: Server, body: bytes) -> tuple[float, dict]:
    """POST the corpus plan and poll it to completion; (seconds, job)."""
    conn = Conn(server.port)
    try:
        status, data, t0, t1 = conn.call("POST", "/plans", body)
        if status not in (200, 202):
            raise RuntimeError(f"corpus POST answered HTTP {status}")
        job = json.loads(data)
        while job["state"] not in ("done", "failed"):
            time.sleep(POLL_S)
            status, data, _, t1 = conn.call("GET", f"/plans/{job['id']}")
            if status != 200:
                raise RuntimeError(f"corpus poll answered HTTP {status}")
            job = json.loads(data)
        if job["state"] != "done" or job["failures"]:
            raise RuntimeError(f"corpus plan {job['state']}: {job['failures']}")
        return t1 - t0, job
    finally:
        conn.close()


def _metrics(server: Server) -> dict:
    conn = Conn(server.port)
    try:
        return json.loads(conn.call("GET", "/metrics")[1])
    finally:
        conn.close()


def _segment(pseed: int, writes: int, *, tiny: bool, refs: dict, work: Path,
             trace_out: Path | None, mismatches: list[str]) -> dict:
    """One server on an empty cache dir: set-up, corpus fill, then ``writes`` plans of load.

    Times are raw host seconds; ``loops`` holds the calibration loop
    (``plans.loop_s``) timed before the spawn, before the load and after
    it, never inside the load, where it would stall the clients.
    """
    corpus = plans.corpus_specs(pseed, tiny)
    body = json.dumps({"specs": corpus}).encode()
    loops = [plans.loop_s()]
    server = Server(work, trace_out)
    try:
        healthy = server.wait_healthy()
        fill_s, job = _fill(server, body)
        corpus_fps = [s["fingerprint"] for s in job["specs"]]
        shared = Shared(
            pseed=pseed, tiny=tiny, refs=refs[str(pseed)], corpus_fps=corpus_fps,
            corpus_id=job["id"], corpus_body=body,
            expected=dict(zip(corpus_fps, refs[str(pseed)]["corpus"])),
            writes=writes, traced=trace_out is not None, mismatches=mismatches,
        )
        # every corpus result once, checked, outside the timed regions
        check = Client(0, server.port, shared)
        for fp in corpus_fps:
            check._fetch(fp, "result")
        check.conn.close()
        loops.append(plans.loop_s())
        before = _metrics(server) if trace_out else None
        ticks = plans.cpu_ticks()
        t_load = time.monotonic()
        shared.deadline = t_load + LOAD_LIMIT_S
        clients = [Client(i, server.port, shared) for i in range(2)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=LOAD_LIMIT_S + 60)
        t_end = time.monotonic()
        steal = plans.steal_share(ticks, plans.cpu_ticks())
        after = _metrics(server) if trace_out else None
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    loops.append(plans.loop_s())
    failures = [f for c in (check, *clients) for f in c.failures]
    failures += [f"{c.name}: {c.error!r}" for c in clients if c.error or c.is_alive()]
    return {
        "setup_s": healthy - server.t_spawn + fill_s, "fill_s": fill_s,
        "instructions": sum(s["instructions"] for s in corpus),
        "t_load": t_load, "t_end": t_end, "loops": loops, "steal": steal, "rss_mib": rss,
        "clients": clients, "checked": len(check.samples), "failures": failures,
        "metrics_before": before, "metrics_after": after,
    }


def run(seed: int, seconds: float, *, traced: bool, tiny: bool, refs: dict,
        work: Path) -> dict:
    """One serve-mixed run: ``SETUPS`` segments, each on its own server.

    Segment ``k`` fills a corpus of plan seed ``plan_seed(seed + k)`` and
    takes ``write_count(seconds)`` new plans of load, so a drift in the
    shared host's speed during one segment moves one of several samples.
    With ``traced`` the last segment's server records spans.
    """
    trace_out = work / "server-spans.json"
    mismatches: list[str] = []
    segs = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        segs.append(_segment(plans.plan_seed(seed + k), write_count(seconds), tiny=tiny,
                             refs=refs, work=work / f"server{k}",
                             trace_out=trace_out if traced and last else None,
                             mismatches=mismatches))

    # set-up scales by the loop timed before the spawn; plan times by the
    # loops on either side of the load (plans.loop_s); request times by
    # the steal during the load (STEAL_K)
    setups, fills, reads50, reads99, plan_s, rps = [], [], [], [], [], []
    for seg in segs:
        loop_setup, loop_before, loop_after = seg["loops"]
        setups.append(seg["setup_s"] * plans.REF_LOOP_S / loop_setup)
        fills.append(seg["fill_s"] * plans.REF_LOOP_S / loop_setup)
        speed = plans.REF_LOOP_S / statistics.mean((loop_before, loop_after))
        samples = [s for c in seg["clients"] for s in c.samples]
        # every read of finished work is a hit sample: the reader's
        # requests and the writer's result fetches, not its POSTs or
        # pending polls
        hit_ms = [(t1 - t0) * 1e3 for kind, t0, t1, _ in samples
                  if kind not in ("write", "poll", "healthz")]
        steal = seg["steal"]
        reads50 += [x / (1 + STEAL_K[50] * steal) for x in hit_ms]
        reads99 += [x / (1 + STEAL_K[99] * steal) for x in hit_ms]
        plan_s += [(t1 - t0) * speed for c in seg["clients"] for t0, t1 in c.plans]
        rps.append(len(samples) * (1 + STEAL_K["request"] * steal)
                   / (seg["t_end"] - seg["t_load"]))
    failures = [f for seg in segs for f in seg["failures"]]
    requests = sum(len(c.samples) for seg in segs for c in seg["clients"])
    out = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(fills),
            "minstr_per_s": statistics.median(
                seg["instructions"] / 1e6 / f for seg, f in zip(segs, fills)),
            "hit_p50_ms": percentile(reads50, 50) if reads50 else 0.0,
            "hit_p99_ms": percentile(reads99, 99) if reads99 else 0.0,
            "plan_p50_s": statistics.median(plan_s) if plan_s else 0.0,
            "rps": statistics.median(rps),
            "peak_rss_mib": statistics.median(seg["rss_mib"] for seg in segs),
        },
        "attempted": requests + sum(seg["checked"] for seg in segs),
        "failed": len(failures),
        "mismatches": mismatches,
        "failures": failures,
        "counts": {"hits": len(reads50), "plans": len(plan_s), "requests": requests,
                   "load_s": [round(seg["t_end"] - seg["t_load"], 3) for seg in segs],
                   "steal": [round(seg["steal"], 4) for seg in segs],
                   "plan_seeds": [plans.plan_seed(seed + k) for k in range(SETUPS)]},
    }
    if traced:
        seg = segs[-1]
        t_load, t_end, clients = seg["t_load"], seg["t_end"], seg["clients"]
        dump = json.loads(trace_out.read_text())
        spans = [s for s in spans_from_json(dump["spans"])
                 if s.end and t_load <= s.start and s.end <= t_end]
        load_s = t_end - t_load
        layers = layer_metrics(spans, load_s)
        hist = hist_delta(seg["metrics_after"]["histograms"]["http.latency_ms"],
                          seg["metrics_before"]["histograms"].get("http.latency_ms"))
        handler_s = hist["sum"] / 1e3
        nested = sum(s.dur for s in spans
                     if s.parent is None and s.tid == dump["main_tid"])
        p99 = hist_percentile(hist, 99)
        # the handler histogram counts every request of the window, so the
        # client side takes every request too, in raw host time
        client_ms = [(t1 - t0) * 1e3 for c in clients for _, t0, t1, _ in c.samples]
        layers.update({
            "host.loop_ms": statistics.median(x for seg in segs for x in seg["loops"]) * 1e3,
            "host.steal_frac": statistics.median(seg["steal"] for seg in segs),
            "setup.import_s": dump["import_s"],
            "service.handler_p50_ms": hist_percentile(hist, 50),
            "service.handler_p99_ms": p99,
            "service.wait_p99_ms": percentile(client_ms, 99) - p99,
            "service.queue_depth_max": max((d for c in clients for d in c.queue_depths),
                                           default=0),
            "share.service": max(handler_s - nested, 0.0) / load_s,
        })
        out["layers"] = layers
        out["overhead"] = fills[-1] / statistics.median(fills[:-1])
        client_spans = [
            {"ph": "X", "name": kind, "cat": "client", "pid": 1, "tid": i,
             "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6, "args": {"status": st}}
            for i, c in enumerate(clients) for kind, t0, t1, st in c.samples
        ]
        out["events"] = (chrome_events(spans_from_json(dump["spans"]), 2, "repro serve")
                         + [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                             "args": {"name": "benchmark client"}}] + client_spans)
    return out
