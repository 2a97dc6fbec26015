"""End-to-end tests for the simulation service (ISSUE 8).

Drives the real asyncio HTTP server (``start_service`` on an ephemeral
port) with a raw asyncio-streams client — the same wire path ``curl``
and ``scripts/load_soak.py`` use. Covers the acceptance list:
submit→poll→fetch with bit-identical digests, idempotent resubmission
through the fingerprint-as-ETag contract, concurrent clients collapsing
to one simulation per unique spec, failed-spec plans surfacing the
failure table, and jobs=N ≡ jobs=1 over HTTP.

The suite forces ``REPRO_CACHE=on`` with a fresh ``REPRO_CACHE_DIR``
per test (CI runs the wider suite with the cache off), so service
state never leaks between tests.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.harness import cached_result, execute_plan, spec_fingerprint
from repro.harness.cache import get_cache
from repro.harness.cache_gc import usage
from repro.harness.quarantine import result_digest
from repro.harness.runner import clear_result_memo, run_spec
from repro.service import (
    PlanRequestError,
    parse_plan_request,
    plan_fingerprint,
    spec_from_descriptor,
    start_service,
)
from repro.service.store import JobStore, jobs_dir

#: tiny instruction budget: every simulation here is ~tens of ms
INSTRUCTIONS = 60_000


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    """Cache ON, pointed at a per-test dir, memo cleared around each test."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_memo()
    yield
    clear_result_memo()


def descriptor(workload: str, system: str = "baseline", **extra) -> dict:
    return {
        "workloads": [workload],
        "system": system,
        "instructions": INSTRUCTIONS,
        "seed": 2,
        **extra,
    }


PLAN = {"specs": [descriptor("lbm"), descriptor("gobmk")]}


# --------------------------------------------------------------------------
# raw asyncio HTTP client (one-shot connections, Connection: close)


async def request(port: int, method: str, path: str, body: dict | None = None,
                  headers: dict | None = None):
    """Returns (status, headers-dict, parsed-JSON-or-None)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: test",
        "Connection: close",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    head_lines = head.decode().split("\r\n")
    status = int(head_lines[0].split()[1])
    hdrs = {}
    for hline in head_lines[1:]:
        name, _, value = hline.partition(":")
        hdrs[name.strip().lower()] = value.strip()
    doc = json.loads(rest) if rest else None
    return status, hdrs, doc


async def wait_done(port: int, job_id: str, timeout_s: float = 90) -> dict:
    async def poll():
        while True:
            status, _, doc = await request(port, "GET", f"/plans/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                return doc
            await asyncio.sleep(0.05)

    return await asyncio.wait_for(poll(), timeout_s)


def serve(coro_fn, *, jobs: int = 1):
    """Run ``coro_fn(handle)`` against a live service, then tear down."""

    async def _main():
        handle = await start_service(jobs=jobs)
        try:
            return await coro_fn(handle)
        finally:
            await handle.close()

    return asyncio.run(_main())


# --------------------------------------------------------------------------
# the wire codec


class TestPlanRequestCodec:
    def test_descriptor_round_trips_to_runspec(self):
        spec = spec_from_descriptor(descriptor("lbm", system="rop",
                                               training_refreshes=3), 0)
        assert spec.workloads == ("lbm",)
        assert spec.instructions == INSTRUCTIONS
        assert spec.config.rop is not None

    def test_plan_fingerprint_is_order_and_dup_independent(self):
        a = [spec_from_descriptor(descriptor("lbm"), 0),
             spec_from_descriptor(descriptor("gobmk"), 1)]
        b = [spec_from_descriptor(descriptor("gobmk"), 0),
             spec_from_descriptor(descriptor("lbm"), 1),
             spec_from_descriptor(descriptor("lbm"), 2)]
        assert plan_fingerprint(a) == plan_fingerprint(b)

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            {},
            {"specs": []},
            {"specs": [{"workloads": [], "system": "baseline"}]},
            {"specs": [{"workloads": ["nope"], "system": "baseline"}]},
            {"specs": [{"workloads": ["lbm"], "system": "warp-drive"}]},
            {"specs": [{"workloads": ["lbm"], "system": "baseline",
                        "instructions": 1}]},
            {"specs": [{"workloads": ["lbm"], "system": "baseline",
                        "seed": -4}]},
            {"specs": [{"workloads": ["lbm"], "system": "baseline",
                        "training_refreshes": 3}]},  # non-ROP system
            {"specs": [descriptor("lbm")], "jobs": 0},
        ],
    )
    def test_bad_requests_raise_client_safe_errors(self, doc):
        with pytest.raises(PlanRequestError):
            parse_plan_request(doc)


# --------------------------------------------------------------------------
# the public fingerprint / cached-result API (satellite 1)


class TestFingerprintApi:
    def test_spec_fingerprint_is_the_cache_address(self):
        spec = spec_from_descriptor(descriptor("lbm"), 0)
        assert spec_fingerprint(spec) == spec.key
        assert cached_result(spec.key) is None
        results = execute_plan([spec], jobs=1)
        assert cached_result(spec.key) is not None
        assert result_digest(cached_result(spec.key)) == result_digest(
            results[spec]
        )


# --------------------------------------------------------------------------
# HTTP end-to-end


class TestSubmitPollFetch:
    def test_cold_submit_poll_fetch_digest_identity(self):
        async def scenario(handle):
            port = handle.port
            status, hdrs, doc = await request(port, "POST", "/plans", PLAN)
            assert status == 202
            assert hdrs.get("x-cache") == "miss"
            assert doc["created"] is True
            job = await wait_done(port, doc["id"])
            assert job["state"] == "done"
            assert job["failures"] == []
            assert job["stats"]["executed"] == 2
            assert job["metrics"]  # plan-wide merged metrics present
            out = {}
            for spec in job["specs"]:
                status, hdrs, body = await request(
                    port, "GET", f"/results/{spec['fingerprint']}"
                )
                assert status == 200
                assert hdrs.get("x-cache") == "hit"
                assert hdrs.get("etag") == f'"{spec["fingerprint"]}"'
                out[spec["fingerprint"]] = body["digest"]
            return out

        digests = serve(scenario)
        # byte-identity with the CLI path: same digests as run_spec
        for raw in PLAN["specs"]:
            spec = spec_from_descriptor(raw, 0)
            assert digests[spec.key] == result_digest(run_spec(spec))

    def test_idempotent_resubmit_hits_cache_with_etag(self):
        async def scenario(handle):
            port = handle.port
            _, _, doc = await request(port, "POST", "/plans", PLAN)
            job_id = doc["id"]
            await wait_done(port, job_id)
            # resubmit: instant 200, same id, nothing re-simulated
            status, hdrs, doc = await request(port, "POST", "/plans", PLAN)
            assert status == 200
            assert doc["id"] == job_id
            assert doc["created"] is False
            assert hdrs.get("x-cache") == "hit"
            assert hdrs.get("etag") == f'"{job_id}"'
            # 304 via If-None-Match on both POST and GET
            status, _, body = await request(
                port, "POST", "/plans", PLAN,
                headers={"If-None-Match": f'"{job_id}"'})
            assert (status, body) == (304, None)
            status, _, body = await request(
                port, "GET", f"/plans/{job_id}",
                headers={"If-None-Match": f'"{job_id}"'})
            assert (status, body) == (304, None)
            _, _, metrics = await request(port, "GET", "/metrics")
            return metrics

        metrics = serve(scenario)
        assert metrics["counters"]["service.plans.warm_hits"] >= 1

    def test_warm_store_completes_new_job_synchronously(self):
        # pre-fill the artifact cache through the CLI-equivalent path
        execute_plan(
            [spec_from_descriptor(raw, i) for i, raw in enumerate(PLAN["specs"])],
            jobs=1,
        )
        clear_result_memo()  # force the service through the disk store

        async def scenario(handle):
            return await request(handle.port, "POST", "/plans", PLAN)

        status, hdrs, doc = serve(scenario)
        assert status == 200  # no 202/poll cycle: served from the store
        assert hdrs.get("x-cache") == "hit"
        assert doc["state"] == "done"
        assert doc["stats"]["cache_hits"] == 2

    def test_concurrent_clients_one_simulation_per_unique_spec(self):
        async def scenario(handle):
            port = handle.port
            posts = await asyncio.gather(
                *(request(port, "POST", "/plans", PLAN) for _ in range(6))
            )
            ids = {doc["id"] for _, _, doc in posts}
            assert len(ids) == 1  # all six collapse onto one job
            assert sum(doc["created"] for _, _, doc in posts) == 1
            job = await wait_done(port, ids.pop())
            return job

        job = serve(scenario, jobs=2)
        assert job["state"] == "done"
        # 6 submissions × 2 specs, but exactly 2 simulations happened
        assert job["stats"]["executed"] == 2

    def test_failed_spec_surfaces_failure_table(self, tmp_path, monkeypatch):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "error"}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))

        async def scenario(handle):
            port = handle.port
            _, _, doc = await request(port, "POST", "/plans", PLAN)
            return await wait_done(port, doc["id"])

        job = serve(scenario)
        assert job["state"] == "failed"
        assert len(job["failures"]) == 1
        failure = job["failures"][0]
        assert failure["label"].startswith("lbm")
        assert failure["kind"] == "error"
        # the healthy spec still simulated despite its sibling's fault
        assert job["stats"]["failed"] == 1

    def test_http_jobs2_digest_equals_inprocess_jobs1(self, tmp_path,
                                                      monkeypatch):
        async def scenario(handle):
            port = handle.port
            _, _, doc = await request(
                port, "POST", "/plans", {**PLAN, "jobs": 2}
            )
            job = await wait_done(port, doc["id"])
            assert job["state"] == "done"
            out = {}
            for spec in job["specs"]:
                _, _, body = await request(
                    port, "GET", f"/results/{spec['fingerprint']}"
                )
                out[spec["fingerprint"]] = body["digest"]
            return out

        via_http = serve(scenario)
        # independent jobs=1 run in a *different* fresh cache dir
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        clear_result_memo()
        for raw in PLAN["specs"]:
            spec = spec_from_descriptor(raw, 0)
            assert via_http[spec.key] == result_digest(run_spec(spec))


class TestHttpEdges:
    def test_routing_and_error_statuses(self):
        async def scenario(handle):
            port = handle.port
            out = {}
            out["health"] = await request(port, "GET", "/healthz")
            out["unknown_job"] = await request(port, "GET", "/plans/deadbeef")
            out["unknown_result"] = await request(
                port, "GET", "/results/deadbeef")
            out["bad_json"] = await request(
                port, "POST", "/plans", {"specs": "nope"})
            out["no_route"] = await request(port, "GET", "/nope")
            out["bad_method"] = await request(port, "DELETE", "/plans")
            return out

        out = serve(scenario)
        status, _, doc = out["health"]
        assert status == 200 and doc["status"] == "ok"
        assert doc["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        assert out["unknown_job"][0] == 404
        assert out["unknown_result"][0] == 404
        assert "hint" in out["unknown_result"][2]
        assert out["bad_json"][0] == 400
        assert out["no_route"][0] == 404
        assert out["bad_method"][0] == 405

    def test_metrics_counts_requests(self):
        async def scenario(handle):
            port = handle.port
            await request(port, "GET", "/healthz")
            await request(port, "GET", "/healthz")
            _, _, doc = await request(port, "GET", "/metrics")
            return doc

        doc = serve(scenario)
        assert doc["counters"]["http.requests.get.healthz"] == 2
        assert "http.latency_ms" in doc["histograms"]


# --------------------------------------------------------------------------
# store: journal + crash recovery


class TestJobStore:
    def test_submit_is_idempotent_and_journaled(self):
        store = JobStore()
        job, created = store.submit("fp1", PLAN["specs"], ["k1", "k2"],
                                    ["lbm/baseline", "gobmk/baseline"], 1)
        again, created2 = store.submit("fp1", PLAN["specs"], ["k1", "k2"],
                                       ["lbm/baseline", "gobmk/baseline"], 1)
        assert created and not created2
        assert again is job
        files = list(jobs_dir(get_cache().root).glob("*.json"))
        assert len(files) == 1

    def test_recovery_requeues_interrupted_jobs(self):
        store = JobStore()
        queued, _ = store.submit("fp-q", PLAN["specs"], ["k1"], ["l"], 1)
        running, _ = store.submit("fp-r", PLAN["specs"], ["k2"], ["l"], 1)
        store.mark_running(running)
        done, _ = store.submit("fp-d", PLAN["specs"], ["k3"], ["l"], 1)
        store.finish(done, stats={"executed": 1})
        # a fresh store over the same journal dir = a restarted server
        reborn = JobStore()
        requeued = {job.id for job in reborn.recover()}
        assert requeued == {"fp-q", "fp-r"}
        assert reborn.get("fp-r").state == "queued"
        assert reborn.get("fp-r").started_s is None
        assert reborn.get("fp-d").state == "done"

    def test_torn_journal_entries_are_skipped(self):
        store = JobStore()
        store.submit("fp-ok", PLAN["specs"], ["k1"], ["l"], 1)
        torn = jobs_dir(get_cache().root) / "torn.json"
        torn.write_text('{"id": "torn", "sch')
        reborn = JobStore()
        recovered = {job.id for job in reborn.recover()}
        assert recovered == {"fp-ok"}


# --------------------------------------------------------------------------
# cache stats extensions (satellite 2)


class TestCacheStatsExtensions:
    def test_usage_reports_quarantine_and_chaos(self):
        root = get_cache().root
        (root / "quarantine").mkdir(parents=True)
        (root / "quarantine" / "case.json").write_text("{}" * 40)
        (root / "chaos" / "seed-7").mkdir(parents=True)
        (root / "chaos" / "seed-7" / "marker").write_text("x")
        stats = usage(root)
        assert stats["quarantined"] == 1
        assert stats["quarantine_bytes"] == 80
        assert stats["chaos_seeds"] == ["seed-7"]
        assert stats["chaos_markers"] == 1
        assert stats["chaos_bytes"] == 1

    def test_usage_zero_when_dirs_absent(self):
        stats = usage(get_cache().root)
        assert stats["quarantined"] == 0
        assert stats["chaos_seeds"] == []


# --------------------------------------------------------------------------
# plans in the dispatcher's worker process


def corpus_plan() -> dict:
    """``scripts/load_soak.py``'s corpus shape: 12 benchmarks × 2 systems."""
    from repro.workloads import SPEC_PROFILES

    specs = []
    for name in SPEC_PROFILES:
        specs.append(descriptor(name))
        specs.append(descriptor(name, system="rop", training_refreshes=3))
    return {"specs": specs}


def socket_fds(pid: int) -> list[int]:
    """Open socket descriptors of process ``pid``."""
    import os
    import stat

    out = []
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            if stat.S_ISSOCK(os.stat(f"/proc/{pid}/fd/{name}").st_mode):
                out.append(int(name))
        except OSError:
            pass
    return out


class TestPlanWorker:
    def test_metrics_reports_runner_counters_of_worker_jobs(self):
        async def scenario(handle):
            port = handle.port
            _, _, doc = await request(port, "POST", "/plans", PLAN)
            await wait_done(port, doc["id"])
            _, _, metrics = await request(port, "GET", "/metrics")
            return metrics, handle.dispatcher.worker_pid

        metrics, worker_pid = serve(scenario)
        assert metrics["counters"]["runner.executed"] == 2
        assert metrics["counters"]["runner.requested"] == 2
        import os

        assert worker_pid is not None and worker_pid != os.getpid()

    def test_service_refuses_a_disabled_artifact_cache(self, monkeypatch):
        # results travel from the worker to the server through the cache
        monkeypatch.setenv("REPRO_CACHE", "off")
        with pytest.raises(RuntimeError, match="artifact cache"):
            serve(lambda handle: None)

    def test_sigkilled_worker_is_rebuilt_and_the_job_rerun(
        self, tmp_path, monkeypatch
    ):
        import os
        import signal

        cached = spec_from_descriptor(descriptor("gobmk"), 0)
        execute_plan([cached], jobs=1)
        cached_digest = result_digest(cached_result(cached.key))
        clear_result_memo()
        # lbm sleeps 2 s at the top of each attempt: the kill lands mid-plan
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "hang", "seconds": 2}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))
        second = {"specs": [descriptor("gcc")]}

        async def scenario(handle):
            port = handle.port
            first_pid = handle.dispatcher.worker_pid
            _, _, doc = await request(port, "POST", "/plans", PLAN)
            job_id = doc["id"]
            while (await request(port, "GET", f"/plans/{job_id}"))[2][
                "state"
            ] != "running":
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            os.kill(first_pid, signal.SIGKILL)
            while handle.dispatcher.worker_pid == first_pid:
                await asyncio.sleep(0.01)
            # a cached read answers while the new worker re-runs the plan
            status, _, body = await request(
                port, "GET", f"/results/{cached.key}")
            _, _, during = await request(port, "GET", f"/plans/{job_id}")
            job = await wait_done(port, job_id)
            digests = {}
            for spec in job["specs"]:
                _, _, res = await request(
                    port, "GET", f"/results/{spec['fingerprint']}")
                digests[spec["fingerprint"]] = res["digest"]
            new_pid = handle.dispatcher.worker_pid
            _, _, doc2 = await request(port, "POST", "/plans", second)
            job2 = await wait_done(port, doc2["id"])
            return {
                "read": (status, body["digest"]), "during": during["state"],
                "job": job, "digests": digests, "job2": job2,
                "pids": (first_pid, new_pid, handle.dispatcher.worker_pid),
                "rebuilds": handle.dispatcher.worker_rebuilds,
                "sockets": socket_fds(new_pid),
            }

        out = serve(scenario)
        assert out["read"] == (200, cached_digest)
        assert out["during"] == "running"
        assert out["job"]["state"] == "done" and out["job"]["failures"] == []
        assert out["job2"]["state"] == "done"
        first_pid, new_pid, last_pid = out["pids"]
        assert new_pid != first_pid and last_pid == new_pid
        assert out["rebuilds"] == 1
        # forked after bind, the new worker closed every inherited socket
        assert out["sockets"] == []
        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        clear_result_memo()
        for raw in PLAN["specs"]:
            spec = spec_from_descriptor(raw, 0)
            assert out["digests"][spec.key] == result_digest(run_spec(spec))

    def test_pool_processes_die_with_a_killed_worker(
        self, tmp_path, monkeypatch
    ):
        import os
        import signal
        import subprocess

        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "hang", "seconds": 2}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))

        def alive(pid: str) -> bool:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    return "\nState:\tZ" not in fh.read()
            except FileNotFoundError:
                return False

        async def scenario(handle):
            port = handle.port
            worker = handle.dispatcher.worker_pid
            _, _, doc = await request(port, "POST", "/plans", {**PLAN, "jobs": 2})
            pool = []
            for _ in range(500):  # until the plan's pool has forked
                pool = subprocess.run(
                    ["ps", "-o", "pid=", "--ppid", str(worker)],
                    capture_output=True, text=True,
                ).stdout.split()
                if pool:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            os.kill(worker, signal.SIGKILL)
            for _ in range(500):
                if not any(alive(pid) for pid in pool):
                    break
                await asyncio.sleep(0.01)
            survivors = [pid for pid in pool if alive(pid)]
            for pid in survivors:  # a survivor would also hide the crash
                os.kill(int(pid), signal.SIGKILL)
            job = await wait_done(port, doc["id"])
            return pool, survivors, job

        pool, survivors, job = serve(scenario)
        assert pool and survivors == []
        assert job["state"] == "done"

    def test_sigterm_to_the_worker_fails_the_job_not_the_server(
        self, tmp_path, monkeypatch
    ):
        import os
        import signal

        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "hang", "seconds": 1}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))

        async def scenario(handle):
            port = handle.port
            # a parallel plan: the runner's signal guard turns SIGTERM
            # into an unwind that ends in KeyboardInterrupt
            _, _, doc = await request(port, "POST", "/plans", {**PLAN, "jobs": 2})
            while (await request(port, "GET", f"/plans/{doc['id']}"))[2][
                "state"
            ] != "running":
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            os.kill(handle.dispatcher.worker_pid, signal.SIGTERM)
            job = await wait_done(port, doc["id"])
            health, _, _ = await request(port, "GET", "/healthz")
            return job, health

        job, health = serve(scenario)
        assert job["state"] == "failed"
        assert "interrupted in the worker" in job["error"]
        assert health == 200

    def test_job_that_kills_the_worker_twice_fails_structurally(
        self, tmp_path, monkeypatch
    ):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"lbm": {"mode": "crash"}}))
        monkeypatch.setenv("REPRO_FAULTS", str(faults))

        async def scenario(handle):
            port = handle.port
            _, _, doc = await request(
                port, "POST", "/plans", {"specs": [descriptor("lbm")]})
            job = await wait_done(port, doc["id"])
            _, _, doc2 = await request(
                port, "POST", "/plans", {"specs": [descriptor("gobmk")]})
            job2 = await wait_done(port, doc2["id"])
            return job, job2, handle.dispatcher.worker_rebuilds

        job, job2, rebuilds = serve(scenario)
        assert job["state"] == "failed"
        assert job["error"].startswith("BrokenProcessPool")
        assert rebuilds == 2
        assert job2["state"] == "done"


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "value, status",
        [("abc", 400), ("-5", 400), ("", 400), (str((4 << 20) + 1), 413)],
    )
    def test_bad_content_length_is_answered_then_closed(self, value, status):
        async def scenario(handle):
            leaked = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: leaked.append(ctx))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", handle.port)
            writer.write(
                f"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {value}\r\n\r\n".encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)  # EOF: closed
            writer.close()
            await writer.wait_closed()
            health, _, _ = await request(handle.port, "GET", "/healthz")
            return raw, leaked, health

        raw, leaked, health = serve(scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split(b" ")[1] == str(status).encode()
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        assert leaked == []
        assert health == 200  # the server kept serving


# --------------------------------------------------------------------------
# fingerprints are computed once per spec and never move


#: fingerprints computed before ``RunSpec.key`` was memoized
PINNED_SPEC_FP = "3849e8e538dd0e0d6cf351257cfb9705431dccf3"
PINNED_PLAN_FP = "ff191840fc0a4183dadbbc447253a7af3e3bae57"


class TestFingerprintMemo:
    def test_spec_and_plan_fingerprints_are_pinned(self):
        rop = spec_from_descriptor(
            descriptor("lbm", system="rop", training_refreshes=3), 0)
        mix = spec_from_descriptor(
            {"workloads": ["gcc", "lbm", "gobmk", "astar"],
             "system": "baseline", "instructions": INSTRUCTIONS, "seed": 2}, 1)
        assert spec_fingerprint(rop) == PINNED_SPEC_FP
        assert plan_fingerprint([rop, mix, rop]) == PINNED_PLAN_FP

    def test_corpus_post_fingerprints_each_spec_once(self, monkeypatch):
        import repro.harness.runner as runner_mod
        import repro.service.specs as specs_mod
        from repro.harness import cache as cache_mod

        calls = []

        def counting(*parts):
            calls.append(parts[0])
            return cache_mod.fingerprint(*parts)

        monkeypatch.setattr(runner_mod, "fingerprint", counting)
        monkeypatch.setattr(specs_mod, "fingerprint", counting)
        plan = corpus_plan()

        async def scenario(handle):
            calls.clear()
            status, _, doc = await request(handle.port, "POST", "/plans", plan)
            return status, len(doc["specs"]), list(calls)

        status, n_specs, seen = serve(scenario)
        assert status == 202 and n_specs == 24
        assert seen.count("run") <= 24
        assert seen.count("plan") == 1

    def test_unpickled_spec_recomputes_its_key(self, monkeypatch):
        import pickle

        from repro.harness import cache as cache_mod

        spec = spec_from_descriptor(descriptor("lbm"), 0)
        key = spec.key
        loaded = pickle.loads(pickle.dumps(spec))
        assert "key" not in vars(loaded)
        assert loaded.key == key
        # replayed under a later schema, the bundle gets the new address
        replayed = pickle.loads(pickle.dumps(spec))
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        assert replayed.key != key
        assert spec.key == key  # the live instance keeps its memo
