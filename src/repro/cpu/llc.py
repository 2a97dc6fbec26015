"""Last-level cache model: a set-associative, write-back, write-allocate
LRU cache that filters a CPU-level access trace into the memory-level
trace the DRAM controller sees.

Cache hit/miss outcomes depend only on the *order* of accesses, never on
their timing, so the filter runs once as a pure function and the resulting
memory trace can be reused across every memory configuration — the
decoupling that keeps the paper's LLC-size sensitivity sweeps affordable
(see DESIGN.md §5).

Two forms of one cache:

* :class:`Llc` is the per-access model, one dict per set in LRU order;
* :func:`filter_trace` filters a whole trace with the same outcome, all
  sets stepped side by side as NumPy arrays and the last few busy sets
  finished on the dict walk.

The LLC is the component that creates the bursty, pattern-bearing traffic
ROP's profiler exploits: hit runs produce silence at the memory level,
miss runs produce dense multi-delta request trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LlcConfig
from ..workloads.trace import AccessTrace

__all__ = ["LlcResult", "Llc", "filter_trace"]


@dataclass(frozen=True)
class LlcResult:
    """Output of one LLC filtering pass."""

    memory_trace: AccessTrace  #: misses + write-backs, in program order
    accesses: int  #: CPU-level accesses observed
    misses: int  #: demand misses (loads and stores)
    writebacks: int  #: dirty evictions emitted

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (misses / accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Llc:
    """Streaming set-associative LRU cache (write-back, write-allocate).

    Each set is a dict mapping line → dirty flag; dict insertion order
    doubles as LRU order (oldest first), so a hit is re-inserted to move it
    to MRU and eviction pops the first key.
    """

    def __init__(self, cfg: LlcConfig) -> None:
        self.cfg = cfg
        self.num_sets = cfg.sets
        self.ways = cfg.ways
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """One access; returns ``(miss, evicted_dirty_line_or_None)``."""
        self.accesses += 1
        s = self._sets[line & (self.num_sets - 1)]
        if line in s:
            dirty = s.pop(line)
            s[line] = dirty or is_write
            return False, None
        self.misses += 1
        victim: int | None = None
        if len(s) >= self.ways:
            vline, vdirty = next(iter(s.items()))
            del s[vline]
            if vdirty:
                self.writebacks += 1
                victim = vline
        s[line] = is_write
        return True, victim

    def contains(self, line: int) -> bool:
        """True if ``line`` is currently cached."""
        return line in self._sets[line & (self.num_sets - 1)]

    @property
    def occupancy(self) -> int:
        """Lines currently resident."""
        return sum(len(s) for s in self._sets)


#: below this many sets with accesses left, a lock-step array step costs
#: more per access than the dict walk, so those sets finish sequentially
_TAIL_SETS = 128


def filter_trace(trace: AccessTrace, cfg: LlcConfig) -> LlcResult:
    """Filter a CPU-level trace through the LLC (pure function).

    Misses become memory reads (write-allocate fetches stores too);
    dirty evictions become memory writes with a zero instruction gap,
    placed right after the miss that evicted them.  The output is the
    same as streaming the trace through :class:`Llc`, access by access.

    Sets never interact, so the filter runs them side by side:

    1. Stable-sort the accesses by set index.  Within a set, a run of
       consecutive accesses to one line collapses into its first access
       with the run's write flags OR-ed: the later ones are hits on the
       MRU line and change nothing but its dirty bit.
    2. Step the k-th remaining access of every set at once over
       ``[sets, ways]`` arrays of tags, last-use steps and dirty bits.
       The victim is the way with the oldest step; an empty way has
       step -1, so it fills first.  Sets are ordered by run count, so
       the sets still active at step k are a prefix of the arrays.
    3. Once fewer than ``_TAIL_SETS`` sets have accesses left, finish
       those sets with the sequential dict walk, seeded from the array
       state.  A trace that hammers one set, or an LLC with few sets,
       thus costs about one dict walk, never much more.

    Miss gaps are differences of the gap prefix sum at the miss
    positions; each write-back is keyed to its evicting miss and the two
    streams are interleaved with vectorized NumPy.
    """
    gaps = np.asarray(trace.gaps, dtype=np.int64)
    lines = np.asarray(trace.lines, dtype=np.int64)
    miss_pos, wb_pos, wb_lines = _misses_and_writebacks(
        lines, np.asarray(trace.writes, dtype=bool), cfg.sets, cfg.ways
    )
    n_miss = len(miss_pos)
    n_wb = len(wb_pos)
    # the instructions before each miss since the previous one
    done = np.cumsum(gaps)[miss_pos]
    pending = int(gaps.sum()) - (int(done[-1]) if n_miss else 0)
    # interleave: each write-back lands right after the miss that evicted
    # it, so miss m shifts right by the number of earlier write-backs
    wseq = np.searchsorted(miss_pos, wb_pos)
    pos_miss = np.arange(n_miss, dtype=np.int64) + np.searchsorted(
        wseq, np.arange(n_miss, dtype=np.int64), side="left"
    )
    pos_wb = pos_miss[wseq] + 1
    total = n_miss + n_wb
    out_gaps = np.zeros(total, dtype=np.int64)
    out_lines = np.empty(total, dtype=np.int64)
    out_writes = np.zeros(total, dtype=bool)
    out_gaps[pos_miss] = np.diff(done, prepend=0)
    out_lines[pos_miss] = lines[miss_pos]
    out_lines[pos_wb] = wb_lines
    out_writes[pos_wb] = True
    mem = AccessTrace(
        out_gaps,
        out_lines,
        out_writes,
        tail_instructions=pending + trace.tail_instructions,
    )
    return LlcResult(mem, len(lines), n_miss, n_wb)


def _misses_and_writebacks(
    lines: np.ndarray, writes: np.ndarray, num_sets: int, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace positions of the misses; of the misses that evict a dirty
    line; and those lines.  All in trace order (see :func:`filter_trace`)."""
    n = len(lines)
    if not n:
        return lines, lines, lines
    mask = num_sets - 1
    order = np.argsort(
        (lines & mask).astype(np.uint16 if num_sets <= 1 << 16 else np.int64),
        kind="stable",
    )
    sorted_lines = lines[order]
    # a run starts where the line changes (a set change is one too)
    head = np.flatnonzero(np.concatenate(([True], sorted_lines[1:] != sorted_lines[:-1])))
    run_lines = sorted_lines[head]
    run_writes = np.logical_or.reduceat(writes[order], head)
    run_pos = order[head]  #: trace position of each run's first access
    del order, sorted_lines  # trace-length temporaries: free before the steps
    run_sets = run_lines & mask
    starts = np.flatnonzero(np.concatenate(([True], run_sets[1:] != run_sets[:-1])))
    counts = np.diff(np.append(starts, len(head)))
    # busiest set first: the sets active at step k are rows [:active[k]]
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_count], counts[by_count]
    active = len(counts) - np.cumsum(np.bincount(counts))[:-1]
    steps = int(np.count_nonzero(active >= _TAIL_SETS))

    run_miss = np.zeros(len(head), dtype=bool)
    wb_runs: list = []  #: runs whose miss evicted a dirty line
    wb_lines: list = []  #: the evicted lines, same order
    # an empty way holds a line of another set, so it never matches
    # (the lock-step needs _TAIL_SETS >= 2 sets, so another set exists)
    tags = np.repeat(run_lines[starts] ^ 1, ways).reshape(-1, ways)
    ages = np.full((len(counts), ways), -1, dtype=np.int32)
    dirty = np.zeros((len(counts), ways), dtype=bool)
    flat_tags, flat_ages, flat_dirty = tags.ravel(), ages.ravel(), dirty.ravel()
    row_base = np.arange(len(counts), dtype=np.int64) * ways
    for k in range(steps):
        live = int(active[k])
        src = starts[:live] + k
        line = run_lines[src]
        match = tags[:live] == line[:, None]
        cell = row_base[:live] + match.argmax(axis=1)
        hit = match.ravel()[cell]
        miss = ~hit
        cell[miss] = row_base[:live][miss] + ages[:live][miss].argmin(axis=1)
        was_dirty = flat_dirty[cell]
        wb = miss & was_dirty
        if wb.any():
            wb_runs.append(src[wb])
            wb_lines.append(flat_tags[cell[wb]])
        run_miss[src] = miss
        flat_tags[cell] = line
        flat_ages[cell] = k
        flat_dirty[cell] = run_writes[src] | (hit & was_dirty)

    # the tail: the sets still active walk their remaining runs on dicts
    tail_misses: list[int] = []
    tail_wb_runs: list[int] = []
    tail_wb_lines: list[int] = []
    on_miss, on_wb_run, on_wb_line = (
        tail_misses.append, tail_wb_runs.append, tail_wb_lines.append
    )
    for row in range(int(active[steps]) if steps < len(active) else 0):
        lru = np.argsort(ages[row])
        lru = lru[ages[row][lru] >= 0]
        s = dict(zip(tags[row][lru].tolist(), dirty[row][lru].tolist()))
        first, stop = int(starts[row]) + steps, int(starts[row] + counts[row])
        for i, line, wr in zip(
            range(first, stop),
            run_lines[first:stop].tolist(),
            run_writes[first:stop].tolist(),
        ):
            if line in s:
                s[line] = s.pop(line) or wr
                continue
            on_miss(i)
            if len(s) >= ways:
                vline = next(iter(s))
                if s.pop(vline):
                    on_wb_run(i)
                    on_wb_line(vline)
            s[line] = wr
    run_miss[tail_misses] = True
    wb_runs.append(np.asarray(tail_wb_runs, dtype=np.int64))
    wb_lines.append(np.asarray(tail_wb_lines, dtype=np.int64))

    is_miss = np.zeros(n, dtype=bool)
    is_miss[run_pos[run_miss]] = True
    wb_pos = run_pos[np.concatenate(wb_runs)]
    by_pos = np.argsort(wb_pos)
    return np.flatnonzero(is_miss), wb_pos[by_pos], np.concatenate(wb_lines)[by_pos]
