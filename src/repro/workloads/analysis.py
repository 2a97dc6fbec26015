"""Trace characterization: the statistics that drove profile calibration.

Quantifies the properties of a (CPU- or memory-level) trace that ROP's
behaviour depends on:

* **intensity** — misses per kilo-instruction (MPKI);
* **burstiness** — busy-fraction of fixed instruction windows and the
  window-to-window activity correlation (the time-domain quantity behind
  the paper's λ and β);
* **delta predictability** — the fraction of accesses whose address a
  cyclic delta matcher of order ≤ 3 would have predicted (an upper-bound
  proxy for the prefetcher's accuracy);
* **bank locality** — how long the stream dwells in one bank under a
  given address mapping.

All computations are NumPy-vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AddressMapScheme, MemoryOrganization
from ..dram.address_mapping import AddressMapper
from .trace import AccessTrace

__all__ = ["TraceProfile", "characterize", "delta_predictability", "bank_dwells"]


@dataclass(frozen=True)
class TraceProfile:
    """Summary statistics of one trace (see module docstring)."""

    accesses: int
    instructions: int
    mpki: float
    write_fraction: float
    footprint_lines: int
    #: fraction of fixed windows containing ≥1 access
    busy_window_fraction: float
    #: P(window busy | previous window busy) — the λ analogue
    busy_persistence: float
    #: P(window quiet | previous window quiet) — the β analogue
    quiet_persistence: float
    #: fraction of accesses predicted by an order-≤3 cyclic delta matcher
    delta_predictability: float
    #: mean consecutive accesses to the same bank (given a mapping)
    mean_bank_dwell: float


def _window_activity(trace: AccessTrace, window_instr: int) -> np.ndarray:
    """Boolean activity per fixed instruction window."""
    positions = np.cumsum(trace.gaps)
    total = trace.total_instructions
    n_windows = max(1, int(total // window_instr))
    idx = np.minimum(positions // window_instr, n_windows - 1).astype(np.int64)
    busy = np.zeros(n_windows, dtype=bool)
    busy[idx] = True
    return busy


def delta_predictability(lines: np.ndarray, max_order: int = 3) -> float:
    """Fraction of accesses an order-≤``max_order`` cyclic matcher predicts.

    Mirrors :class:`repro.core.prediction_table.BankEntry`'s matchers on a
    single undivided stream: an access counts as predicted if *any* order's
    current pattern forecasts its delta.
    """
    if len(lines) < max_order + 2:
        return 0.0
    deltas = np.diff(lines)
    deltas = deltas[deltas != 0]
    n = len(deltas)
    if n < max_order + 1:
        return 0.0
    # the order-k matcher arms at delta k-1 with the last k deltas as its
    # pattern and from then on forecasts the delta k places back, whether
    # it matched (the cycle advances) or re-anchored
    predicted = np.zeros(n, dtype=bool)
    for k in range(1, max_order + 1):
        predicted[k:] |= deltas[k:] == deltas[:-k]
    return int(predicted.sum()) / n


def bank_dwells(
    lines: np.ndarray,
    org: MemoryOrganization,
    scheme: AddressMapScheme = AddressMapScheme.BANK_LOCALITY,
) -> np.ndarray:
    """Lengths of consecutive same-(rank, bank) access runs."""
    if len(lines) == 0:
        return np.empty(0, dtype=np.int64)
    chan, rank, bank, _, _ = AddressMapper(org, scheme).decode_array(lines)
    keys = chan * 1_000_000 + rank * 1_000 + bank
    change = np.nonzero(np.diff(keys))[0]
    boundaries = np.concatenate([[-1], change, [len(keys) - 1]])
    return np.diff(boundaries).astype(np.int64)


def characterize(
    trace: AccessTrace,
    *,
    window_instr: int = 25_000,
    org: MemoryOrganization | None = None,
    scheme: AddressMapScheme = AddressMapScheme.BANK_LOCALITY,
) -> TraceProfile:
    """Compute a :class:`TraceProfile` for one trace.

    ``window_instr`` defaults to ≈ one refresh interval at 1 IPC (the
    paper's observational window), so ``busy_persistence`` and
    ``quiet_persistence`` approximate λ and β.
    """
    org = org if org is not None else MemoryOrganization()
    instructions = trace.total_instructions
    busy = _window_activity(trace, window_instr)
    if len(busy) > 1:
        prev, nxt = busy[:-1], busy[1:]
        n_busy = int(prev.sum())
        n_quiet = int((~prev).sum())
        busy_persist = float((prev & nxt).sum() / n_busy) if n_busy else float("nan")
        quiet_persist = (
            float((~prev & ~nxt).sum() / n_quiet) if n_quiet else float("nan")
        )
    else:
        busy_persist = quiet_persist = float("nan")
    dwells = bank_dwells(trace.lines, org, scheme)
    return TraceProfile(
        accesses=len(trace),
        instructions=instructions,
        mpki=len(trace) / max(1, instructions) * 1000,
        write_fraction=trace.write_count / max(1, len(trace)),
        footprint_lines=trace.footprint_lines,
        busy_window_fraction=float(busy.mean()),
        busy_persistence=busy_persist,
        quiet_persistence=quiet_persist,
        delta_predictability=delta_predictability(trace.lines),
        mean_bank_dwell=float(dwells.mean()) if len(dwells) else 0.0,
    )
