"""Tests for the trace-characterization utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AddressMapScheme, LlcConfig, MemoryOrganization
from repro.dram.address_mapping import AddressMapper
from repro.workloads import profile
from repro.workloads.analysis import (
    bank_dwells,
    characterize,
    delta_predictability,
)
from repro.workloads.trace import AccessTrace


def trace_of(lines, gap=10, writes=None, tail=0):
    n = len(lines)
    return AccessTrace.from_lists(
        [gap] * n,
        lines,
        writes if writes is not None else [False] * n,
        tail_instructions=tail,
    )


def predictability_reference(lines, max_order=3):
    """The order-k cyclic matchers of ``delta_predictability``, stepped per delta.

    Each order keeps a pattern and a phase: a delta equal to
    ``pattern[phase]`` is predicted and advances the phase; any other
    re-anchors the pattern on the last ``k`` deltas once ``k-1`` deltas of
    history exist.
    """
    if len(lines) < max_order + 2:
        return 0.0
    deltas = np.diff(lines)
    deltas = deltas[deltas != 0]
    n = len(deltas)
    if n < max_order + 1:
        return 0.0
    hits = 0
    patterns = [None] * max_order
    history = []
    for d in deltas.tolist():
        predicted = False
        for k in range(1, max_order + 1):
            state = patterns[k - 1]
            if state is not None:
                pat, phase = state
                if d == pat[phase]:
                    patterns[k - 1] = (pat, (phase + 1) % k)
                    predicted = True
                    continue
            if len(history) >= k - 1:
                anchor = tuple(history[len(history) - (k - 1):]) + (d,)
                patterns[k - 1] = (anchor, 0)
        hits += predicted
        history.append(d)
        if len(history) > max_order:
            history.pop(0)
    return hits / n


def bank_dwells_reference(lines, org, scheme):
    """Same-(channel, rank, bank) run lengths from a per-line ``decode``."""
    mapper = AddressMapper(org, scheme)
    keys = [(c.channel, c.rank, c.bank) for c in map(mapper.decode, lines.tolist())]
    runs = []
    for i, key in enumerate(keys):
        if i and key == keys[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


class TestDeltaPredictability:
    def test_pure_stream_near_one(self):
        lines = np.arange(1000, dtype=np.int64)
        assert delta_predictability(lines) > 0.99

    def test_stride_near_one(self):
        lines = np.arange(0, 7000, 7, dtype=np.int64)
        assert delta_predictability(lines) > 0.99

    def test_period3_pattern_high(self):
        deltas = [1, 1, 6] * 300
        lines = np.cumsum(np.asarray([0] + deltas, dtype=np.int64))
        assert delta_predictability(lines) > 0.9

    def test_random_near_zero(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 1 << 30, size=2000).astype(np.int64)
        assert delta_predictability(lines) < 0.05

    def test_tiny_trace(self):
        assert delta_predictability(np.asarray([1, 2], dtype=np.int64)) == 0.0


    @given(
        deltas=st.lists(st.integers(-2, 2), min_size=0, max_size=80),
        max_order=st.integers(1, 4),
        start=st.integers(0, 1 << 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_matcher_loop(self, deltas, max_order, start):
        """Small-alphabet deltas (zeros included) hit every matcher state."""
        lines = np.cumsum(np.asarray([start] + deltas, dtype=np.int64))
        assert delta_predictability(lines, max_order) == predictability_reference(
            lines, max_order
        )


#: small organizations whose address maps wrap quickly, plus the default
ORGS = [
    MemoryOrganization(channels=2, ranks=2, banks=4, rows=256, columns=32),
    MemoryOrganization(channels=1, ranks=4, banks=8, rows=128, columns=16),
    MemoryOrganization(),
]


class TestBankDwells:
    @pytest.mark.parametrize("scheme", list(AddressMapScheme))
    @given(
        org_index=st.integers(0, len(ORGS) - 1),
        lines=st.lists(st.integers(0, 1 << 24), max_size=200),
        stride=st.integers(1, 4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_line_decode(self, scheme, org_index, lines, stride):
        org = ORGS[org_index]
        # random lines hop banks; a strided run dwells
        arr = np.asarray(lines + [i * stride for i in range(len(lines))], dtype=np.int64)
        assert bank_dwells(arr, org, scheme).tolist() == bank_dwells_reference(
            arr, org, scheme
        )

    @pytest.mark.parametrize("scheme", list(AddressMapScheme))
    def test_memmap_input(self, tmp_path, scheme):
        org = ORGS[0]
        rng = np.random.default_rng(3)
        arr = np.cumsum(rng.integers(0, 64, size=5000)).astype(np.int64)
        np.save(tmp_path / "lines.npy", arr)
        mapped = np.load(tmp_path / "lines.npy", mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        assert bank_dwells(mapped, org, scheme).tolist() == bank_dwells_reference(
            arr, org, scheme
        )

    def test_single_bank_stream(self):
        org = MemoryOrganization()
        lines = np.arange(100, dtype=np.int64)  # within one dwell region
        d = bank_dwells(lines, org)
        assert d.tolist() == [100]

    def test_bank_hop(self):
        org = MemoryOrganization()
        from repro.dram.address_mapping import AddressMapper

        m = AddressMapper(org, AddressMapScheme.BANK_LOCALITY)
        dwell = m.bank_dwell_lines
        lines = np.arange(dwell - 2, dwell + 2, dtype=np.int64)
        d = bank_dwells(lines, org)
        assert d.tolist() == [2, 2]

    def test_interleaved_mapping_short_dwells(self):
        org = MemoryOrganization()
        lines = np.arange(1024, dtype=np.int64)
        loc = bank_dwells(lines, org, AddressMapScheme.BANK_LOCALITY)
        conv = bank_dwells(lines, org, AddressMapScheme.ROW_RANK_BANK_COL)
        assert loc.mean() > conv.mean()

    def test_empty(self):
        assert len(bank_dwells(np.empty(0, dtype=np.int64), MemoryOrganization())) == 0


class TestMemmapTrace:
    def test_characterize_memmap_equals_in_memory(self, tmp_path):
        """A trace-plane style memory-mapped trace profiles like its copy."""
        llc = LlcConfig(size_bytes=2 * 1024 * 1024)
        tr = profile("bzip2").memory_trace(300_000, llc, seed=2)
        fields = ("gaps", "lines", "writes")
        for name in fields:
            np.save(tmp_path / f"{name}.npy", np.asarray(getattr(tr, name)))
        mapped = AccessTrace(
            *(np.load(tmp_path / f"{name}.npy", mmap_mode="r") for name in fields),
            tail_instructions=tr.tail_instructions,
        )
        in_memory = AccessTrace(
            np.array(tr.gaps), np.array(tr.lines), np.array(tr.writes), tr.tail_instructions
        )
        assert characterize(mapped) == characterize(in_memory)
        assert delta_predictability(mapped.lines) == predictability_reference(
            np.array(tr.lines)
        )


class TestCharacterize:
    def test_mpki(self):
        tr = trace_of(list(range(100)), gap=10)
        prof = characterize(tr)
        assert prof.mpki == pytest.approx(100 / 1000 * 1000)

    def test_write_fraction(self):
        tr = trace_of(list(range(10)), writes=[True] * 4 + [False] * 6)
        assert characterize(tr).write_fraction == pytest.approx(0.4)

    def test_continuous_trace_fully_busy(self):
        tr = trace_of(list(range(5000)), gap=10)
        prof = characterize(tr, window_instr=1000)
        assert prof.busy_window_fraction == 1.0
        assert prof.busy_persistence == 1.0

    def test_bursty_trace_persistences(self):
        # 1 access, then silence for many windows, repeatedly
        gaps, lines = [], []
        for burst in range(20):
            for i in range(50):
                gaps.append(10)
                lines.append(burst * 10_000 + i)
            gaps.append(100_000)  # long idle
            lines.append(burst * 10_000 + 999)
        tr = AccessTrace.from_lists(gaps, lines, [False] * len(lines))
        prof = characterize(tr, window_instr=10_000)
        assert prof.busy_window_fraction < 0.5
        assert prof.quiet_persistence > 0.5

    def test_profiles_match_intensity_class(self):
        llc = LlcConfig(size_bytes=2 * 1024 * 1024)
        heavy = characterize(profile("lbm").memory_trace(500_000, llc, seed=1))
        light = characterize(profile("gobmk").memory_trace(500_000, llc, seed=1))
        assert heavy.mpki > light.mpki
        assert heavy.busy_window_fraction > light.busy_window_fraction

    def test_stream_profile_predictable(self):
        llc = LlcConfig(size_bytes=2 * 1024 * 1024)
        tr = profile("libquantum").memory_trace(500_000, llc, seed=1)
        prof = characterize(tr)
        assert prof.delta_predictability > 0.5
        # interleaved write-backs chop same-bank runs; the dwell still far
        # exceeds the ~1 of a uniformly random stream
        assert prof.mean_bank_dwell > 3
