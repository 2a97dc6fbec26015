"""Unit + property tests for the last-level cache filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LlcConfig
from repro.cpu import llc as llc_module
from repro.cpu.llc import Llc, filter_trace
from repro.workloads.trace import AccessTrace

SMALL = LlcConfig(size_bytes=16 * 1024, ways=4)  # 64 sets


def trace_of(lines, writes=None, gaps=None):
    n = len(lines)
    return AccessTrace.from_lists(
        gaps if gaps is not None else [1] * n,
        lines,
        writes if writes is not None else [False] * n,
    )


class TestLlcObject:
    def test_first_access_misses(self):
        c = Llc(SMALL)
        miss, victim = c.access(5, False)
        assert miss and victim is None

    def test_second_access_hits(self):
        c = Llc(SMALL)
        c.access(5, False)
        miss, _ = c.access(5, False)
        assert not miss

    def test_lru_eviction_order(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]  # all map to set 0
        for l in lines[:-1]:
            c.access(l, False)
        c.access(lines[0], False)  # touch to make MRU
        miss, victim = c.access(lines[-1], False)
        assert miss
        # victim is the least recently used = lines[1] (clean → no WB line)
        assert victim is None
        assert not c.contains(lines[1])
        assert c.contains(lines[0])

    def test_dirty_eviction_returns_victim(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]
        c.access(lines[0], True)  # dirty
        for l in lines[1:-1]:
            c.access(l, False)
        miss, victim = c.access(lines[-1], False)
        assert victim == lines[0]

    def test_write_hit_dirties(self):
        c = Llc(SMALL)
        nsets = c.num_sets
        c.access(0, False)
        c.access(0, True)  # dirty via write hit
        for i in range(1, SMALL.ways + 1):
            _, victim = c.access(i * nsets, False)
        assert victim == 0

    def test_occupancy(self):
        c = Llc(SMALL)
        for i in range(10):
            c.access(i, False)
        assert c.occupancy == 10


class TestFilterTrace:
    def test_all_misses_pass_through(self):
        tr = trace_of(list(range(100)))
        res = filter_trace(tr, SMALL)
        assert res.misses == 100
        assert len(res.memory_trace) == 100
        assert res.miss_rate == 1.0

    def test_hits_filtered_out(self):
        tr = trace_of([1, 2, 3, 1, 2, 3, 1, 2, 3])
        res = filter_trace(tr, SMALL)
        assert res.misses == 3
        assert len(res.memory_trace) == 3

    def test_gaps_accumulate_across_hits(self):
        tr = trace_of([1, 1, 1, 2], gaps=[10, 20, 30, 40])
        res = filter_trace(tr, SMALL)
        mt = res.memory_trace
        assert list(mt.gaps) == [10, 90]
        assert mt.total_instructions == tr.total_instructions

    def test_store_miss_fetches_line(self):
        # write-allocate: a store miss appears as a memory *read*
        tr = trace_of([7], writes=[True])
        mt = filter_trace(tr, SMALL).memory_trace
        assert len(mt) == 1 and not mt.writes[0]

    def test_writeback_emitted_on_dirty_eviction(self):
        nsets = SMALL.sets
        lines = [i * nsets for i in range(SMALL.ways + 1)]
        writes = [True] + [False] * SMALL.ways
        res = filter_trace(trace_of(lines, writes=writes), SMALL)
        assert res.writebacks == 1
        mt = res.memory_trace
        assert int(mt.writes.sum()) == 1
        wb_idx = int(np.argmax(mt.writes))
        assert mt.lines[wb_idx] == lines[0]
        assert mt.gaps[wb_idx] == 0  # write-backs carry no program progress

    def test_tail_instructions_preserved(self):
        tr = AccessTrace.from_lists([5], [1], [False], tail_instructions=100)
        mt = filter_trace(tr, SMALL).memory_trace
        assert mt.tail_instructions == 100

    def test_larger_cache_fewer_misses(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2048, size=5000)
        tr = trace_of(lines.tolist())
        small = filter_trace(tr, LlcConfig(size_bytes=16 * 1024, ways=4))
        big = filter_trace(tr, LlcConfig(size_bytes=256 * 1024, ways=4))
        assert big.misses < small.misses

    def test_working_set_fits_no_capacity_misses(self):
        # 64 distinct lines fit a 16 KB cache: repeat passes all hit
        lines = list(range(64)) * 10
        res = filter_trace(trace_of(lines), SMALL)
        assert res.misses == 64


# ---------------------------------------------------------------- properties


def reference_filter(tr, cfg):
    """Explicit-LRU reference LLC: per-set lists of ``[line, dirty]``, LRU first.

    Returns ``(gaps, lines, writes, tail_instructions, misses, writebacks)``
    of the memory-level trace the LLC emits.
    """
    nsets = cfg.sets
    sets = {s: [] for s in range(nsets)}
    gaps, lines, writes = [], [], []
    pending = misses = writebacks = 0
    for gap, line, wr in zip(tr.gaps.tolist(), tr.lines.tolist(), tr.writes.tolist()):
        pending += gap
        s = sets[line % nsets]
        entry = next((e for e in s if e[0] == line), None)
        if entry:
            s.remove(entry)
            entry[1] = entry[1] or wr
            s.append(entry)
            continue
        misses += 1
        gaps.append(pending)
        lines.append(line)
        writes.append(False)
        pending = 0
        if len(s) >= cfg.ways:
            victim = s.pop(0)
            if victim[1]:
                writebacks += 1
                gaps.append(0)
                lines.append(victim[0])
                writes.append(True)
        s.append([line, wr])
    return gaps, lines, writes, pending + tr.tail_instructions, misses, writebacks


def assert_matches_reference(tr, cfg):
    res = filter_trace(tr, cfg)
    gaps, lines, writes, tail, misses, writebacks = reference_filter(tr, cfg)
    mt = res.memory_trace
    assert mt.lines.tolist() == lines
    assert mt.writes.tolist() == writes
    assert mt.gaps.tolist() == gaps
    assert mt.tail_instructions == tail
    assert (res.accesses, res.misses, res.writebacks) == (len(tr), misses, writebacks)


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    writes_seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_filter_matches_reference_model(lines, writes_seed):
    """The streaming filter agrees with a straightforward reference LLC."""
    rng = np.random.default_rng(writes_seed)
    writes = rng.random(len(lines)) < 0.3
    tr = trace_of(lines, writes=writes.tolist())
    cfg = LlcConfig(size_bytes=4 * 1024, ways=2)  # 32 sets: evictions likely
    assert_matches_reference(tr, cfg)


@st.composite
def geometry_and_trace(draw):
    """A power-of-two LLC (1-16 ways, 1-4096 sets) and a trace for it.

    * ``hot``: every access in one set, so the whole trace runs on the
      sequential tail;
    * ``lockstep``: 256-4096 sets, 1500-3000 accesses over 160 or 512 of
      them, so the sets step in lock-step (for many steps with 160)
      before the tail takes the last ones;
    * ``spread``: any geometry, any length, up to 512 sets touched.

    Tags come from a small alphabet, so hits, repeats of one line,
    evictions and dirty write-backs are all common.
    """
    mode = draw(st.sampled_from(["hot", "lockstep", "spread"]))
    ways = 2 ** draw(st.integers(0, 4))
    sets = 2 ** draw(st.integers(8 if mode == "lockstep" else 0, 12))
    n = draw(st.integers(1500, 3000) if mode == "lockstep" else st.integers(0, 3000))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    if mode == "hot":
        set_ids = np.full(n, int(rng.integers(0, sets)), dtype=np.int64)
    else:
        spread = draw(st.sampled_from([160, 512]))
        set_ids = rng.integers(0, min(sets, spread), size=n)
    tags = rng.integers(0, 3 * ways, size=n)
    tr = AccessTrace(
        rng.integers(0, 5, size=n).astype(np.int64),
        (tags * sets + set_ids).astype(np.int64),
        rng.random(n) < rng.random(),
        tail_instructions=int(rng.integers(0, 50)),
    )
    return LlcConfig(size_bytes=sets * ways * 64, ways=ways), tr


@given(case=geometry_and_trace())
@settings(max_examples=120, deadline=None)
def test_filter_matches_reference_on_random_geometries(case):
    """Set-parallel lock-step and sequential tail both match the reference."""
    cfg, tr = case
    assert_matches_reference(tr, cfg)


@pytest.mark.parametrize("tail_sets", [2, 64, 1 << 20])
@pytest.mark.parametrize("seed", range(4))
def test_lockstep_tail_handover_is_exact(monkeypatch, tail_sets, seed):
    """Wherever the lock-step hands over to the dict walk, output is unchanged.

    ``_TAIL_SETS`` = 2 runs the lock-step almost to the end; 2**20 never
    starts it.
    """
    monkeypatch.setattr(llc_module, "_TAIL_SETS", tail_sets)
    rng = np.random.default_rng(seed)
    cfg = LlcConfig(size_bytes=64 * 1024, ways=4)  # 256 sets
    n = 4000
    lines = rng.integers(0, 3 * cfg.ways, size=n) * cfg.sets + rng.integers(
        0, cfg.sets, size=n
    )
    tr = AccessTrace(
        rng.integers(0, 9, size=n).astype(np.int64),
        lines.astype(np.int64),
        rng.random(n) < 0.4,
        tail_instructions=7,
    )
    assert_matches_reference(tr, cfg)


def test_profile_trace_matches_reference():
    """A real benchmark trace through the default LLC and a 512-set one."""
    from repro.workloads import profile

    tr = profile("gcc").cpu_trace(200_000, seed=1)
    assert_matches_reference(tr, LlcConfig())
    assert_matches_reference(tr, LlcConfig(size_bytes=256 * 1024, ways=8))


def test_empty_trace():
    tr = AccessTrace.from_lists([], [], [], tail_instructions=5)
    res = filter_trace(tr, SMALL)
    assert (res.accesses, res.misses, res.writebacks) == (0, 0, 0)
    assert len(res.memory_trace) == 0
    assert res.memory_trace.tail_instructions == 5


@given(lines=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_instruction_conservation(lines):
    tr = trace_of(lines, gaps=[3] * len(lines))
    res = filter_trace(tr, SMALL)
    assert res.memory_trace.total_instructions == tr.total_instructions
