"""Differential fuzz harness for the incremental STA engine.

Each fuzz case builds a seeded random design, then applies a randomized
sequence of the mutations the CCD engines actually perform — cell resizes,
buffer insertions, useful-skew commits, margin apply/change/remove — and
after every mutation asserts that the incrementally maintained report
matches a from-scratch full analysis to 1e-9 across slacks, arrivals,
required times and per-cell worst slacks.

Run under ``REPRO_STA_CHECK=1`` (the ``sta-differential`` CI job does)
every incremental analysis is *additionally* shadow-verified inside
``analyze()`` itself; the assertions here stay on so the suite is also
meaningful without the env var.
"""

from __future__ import annotations

import operator
import pickle

import numpy as np
import pytest

from repro.ccd.flow import FlowConfig, run_flow
from repro.netlist.generator import quick_design
from repro.placement import PlacementConfig, place_design
from repro.timing import incremental as incr
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

ATOL = 1e-9

#: Report fields the differential harness compares (ISSUE acceptance set
#: plus everything else cheap to check).
FIELDS = (
    "arrival",
    "required",
    "slack",
    "cell_arrival",
    "cell_slew",
    "cell_required",
    "cell_worst_slack",
    "cell_worst_slack_margined",
)


def _build(seed: int, n_cells: int = 160):
    netlist = quick_design(name=f"fuzz{seed}", n_cells=n_cells, seed=seed)
    place_design(netlist, PlacementConfig(seed=seed + 1))
    nominal = netlist.library.default_clock_period
    scratch = TimingAnalyzer(netlist, incremental=False)
    report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    return netlist, ClockModel.for_netlist(netlist, period)


def _assert_matches_full(netlist, analyzer, clock, margins, context: str):
    incremental = analyzer.analyze(clock, margins)
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock, margins)
    assert np.array_equal(incremental.endpoints, full.endpoints), context
    for name in FIELDS:
        a = getattr(incremental, name)
        b = getattr(full, name)
        assert np.allclose(a, b, rtol=0.0, atol=ATOL), (
            f"{context}: field {name} drifted beyond {ATOL} "
            f"(max |Δ|={np.nanmax(np.abs(np.where(np.isfinite(a - b), a - b, 0.0))):.3e})"
        )


def _random_mutation(rng, netlist, analyzer, clock, margins):
    """Apply one randomly chosen CCD-style mutation; returns new margins."""
    kind = rng.choice(["resize", "buffer", "skew", "margins"], p=[0.45, 0.1, 0.3, 0.15])

    if kind == "resize":
        comb = [
            c.index
            for c in netlist.cells
            if not c.cell_type.is_port and not c.is_sequential
        ]
        cell = netlist.cells[int(rng.choice(comb))]
        netlist.resize_cell(
            cell.index, int(rng.integers(0, cell.cell_type.max_size_index + 1))
        )
        analyzer.notify_resize(cell.index)

    elif kind == "buffer":
        candidates = [net for net in netlist.nets if net.fanout >= 2]
        if candidates:
            net = candidates[int(rng.integers(0, len(candidates)))]
            keep = int(rng.integers(1, net.fanout))
            netlist.insert_buffer(net.index, net.sinks[:keep])
            analyzer.invalidate()  # structural edit: full-recompute fallback

    elif kind == "skew":
        flops = netlist.sequential_cells()
        flop = int(rng.choice(flops))
        room = clock.bound(flop) - clock.arrival(flop)
        if room > 1e-9:
            clock.adjust_arrival(flop, float(rng.uniform(0.0, room)))
            if rng.random() < 0.8:
                analyzer.notify_skew((flop,))
            # else: un-notified — the clock-diff safety net must catch it

    else:
        endpoints = netlist.endpoints()
        if margins or rng.random() < 0.5:
            margins = {}  # remove
        else:
            chosen = rng.choice(endpoints, size=min(4, len(endpoints)), replace=False)
            margins = {int(e): float(rng.uniform(0.01, 0.3)) for e in chosen}
    return margins


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_incremental_matches_full(seed):
    netlist, clock = _build(seed)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(seed)

    _assert_matches_full(netlist, analyzer, clock, margins, f"seed {seed} initial")
    for step in range(12):
        margins = _random_mutation(rng, netlist, analyzer, clock, margins)
        _assert_matches_full(
            netlist, analyzer, clock, margins, f"seed {seed} step {step}"
        )


def test_unnotified_resize_cannot_be_read_stale():
    """Regression: notify_resize patches load_cap[driver] — and the analyzer
    must treat the patched cells as timing-stale.  A resize that skips the
    hook entirely must be caught by the mutation-version guard: either way
    a stale read is impossible."""
    netlist, clock = _build(seed=99)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)

    target = next(
        c
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
    )

    # Notified path: the driver whose load cap moved must be re-propagated.
    netlist.resize_cell(target.index, target.size_index + target.sizing_headroom)
    analyzer.notify_resize(target.index)
    _assert_matches_full(netlist, analyzer, clock, None, "notified resize")

    # Un-notified path: the version guard must force a recompile.
    netlist.resize_cell(target.index, 0)
    _assert_matches_full(netlist, analyzer, clock, None, "un-notified resize")


def _mutation_trace(seed: int, threshold: int, steps: int = 12):
    """Run the fuzz mutation sequence at one vector threshold; returns the
    per-step report field arrays (copies) for cross-threshold comparison."""
    netlist, clock = _build(seed)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(seed)
    prev = incr.set_vector_threshold(threshold)
    try:
        reports = [analyzer.analyze(clock, margins)]
        for step in range(steps):
            margins = _random_mutation(rng, netlist, analyzer, clock, margins)
            if step == steps // 2:
                # Forced fallback mid-sequence: the full-recompute path must
                # rebuild state the kernels then extend, at any threshold.
                analyzer.invalidate()
            reports.append(analyzer.analyze(clock, margins))
    finally:
        incr.set_vector_threshold(prev)
    return [
        {name: np.array(getattr(r, name), copy=True) for name in FIELDS}
        for r in reports
    ]


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_vectorized_byte_identical_to_scalar(seed):
    """The density switch must be invisible: forcing every frontier batch
    through the vectorized kernels (threshold 0) and forcing every batch
    through the scalar path (huge threshold) must produce *byte-identical*
    reports at every step of the mutation sequence."""
    scalar = _mutation_trace(seed, threshold=1 << 30)
    vector = _mutation_trace(seed, threshold=0)
    assert len(scalar) == len(vector)
    for step, (s, v) in enumerate(zip(scalar, vector)):
        for name in FIELDS:
            assert np.array_equal(s[name], v[name], equal_nan=True), (
                f"seed {seed} step {step}: field {name} differs between "
                "scalar and vectorized frontier kernels"
            )


@pytest.mark.parametrize("threshold", (0, 1, 2, 4, incr.DEFAULT_VEC_THRESHOLD))
def test_density_threshold_boundaries_match_full(threshold):
    """Mixed scalar/vector batches around the density-switch boundary (tiny
    thresholds make single-cell batches flip between paths) stay equal to
    the from-scratch engine."""
    netlist, clock = _build(seed=7)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(7)
    prev = incr.set_vector_threshold(threshold)
    try:
        _assert_matches_full(
            netlist, analyzer, clock, margins, f"threshold {threshold} initial"
        )
        for step in range(8):
            margins = _random_mutation(rng, netlist, analyzer, clock, margins)
            _assert_matches_full(
                netlist, analyzer, clock, margins, f"threshold {threshold} step {step}"
            )
    finally:
        incr.set_vector_threshold(prev)


def test_vectorized_byte_identical_at_10k_cells():
    """Scale-path equivalence: at 10K cells (fast generator, always above
    the density threshold) a resize+skew mutation burst yields byte-equal
    reports from the scalar and vectorized kernels."""
    from repro.benchsuite.scale import fast_design
    from repro.netlist.generator import GeneratorConfig

    def run(threshold: int):
        netlist = fast_design(
            GeneratorConfig(
                name="scale10k", n_cells=10_000, seed=42, n_inputs=256, n_outputs=128
            )
        )
        nominal = netlist.library.default_clock_period
        clock = ClockModel.for_netlist(netlist, nominal)
        analyzer = TimingAnalyzer(netlist, incremental=True)
        rng = np.random.default_rng(42)
        prev = incr.set_vector_threshold(threshold)
        try:
            analyzer.analyze(clock)
            comb = np.array(
                [
                    c.index
                    for c in netlist.cells
                    if not c.cell_type.is_port and not c.is_sequential
                ]
            )
            flops = np.asarray(netlist.sequential_cells())
            for _ in range(3):
                for i in rng.choice(comb, size=48, replace=False):
                    cell = netlist.cells[int(i)]
                    netlist.resize_cell(
                        cell.index,
                        int(rng.integers(0, cell.cell_type.max_size_index + 1)),
                    )
                    analyzer.notify_resize(cell.index)
                moved = rng.choice(flops, size=64, replace=False)
                for f in moved:
                    f = int(f)
                    room = clock.bound(f) - clock.arrival(f)
                    if room > 1e-9:
                        clock.adjust_arrival(f, float(rng.uniform(0.0, room)))
                analyzer.notify_skew(int(f) for f in moved)
                report = analyzer.analyze(clock)
            return {
                name: np.array(getattr(report, name), copy=True) for name in FIELDS
            }
        finally:
            incr.set_vector_threshold(prev)

    scalar = run(1 << 30)
    vector = run(0)
    for name in FIELDS:
        assert np.array_equal(scalar[name], vector[name], equal_nan=True), (
            f"10K-cell field {name} differs between scalar and vectorized paths"
        )


@pytest.mark.parametrize("seed", (3, 11))
def test_flow_results_identical_incremental_on_vs_off(seed):
    """End-to-end equivalence: the whole CCD flow — skew, margins, datapath
    probes with rollbacks, final cleanup — produces *byte-identical* results
    whichever STA engine serves it."""

    def run(incremental: bool):
        netlist = quick_design(name=f"flow{seed}", n_cells=220, seed=seed)
        place_design(netlist, PlacementConfig(seed=seed))
        nominal = netlist.library.default_clock_period
        scratch = TimingAnalyzer(netlist, incremental=False)
        report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
        period = choose_clock_period(report, nominal, 0.35)
        prioritized = netlist.endpoints()[:4]
        return run_flow(
            netlist,
            FlowConfig(clock_period=period, incremental_sta=incremental),
            prioritized_endpoints=prioritized,
        )

    on = run(True)
    off = run(False)
    assert on.final == off.final  # TNS/WNS/NVE summary, bit-for-bit
    assert on.begin == off.begin
    assert on.arrival_adjustments == off.arrival_adjustments  # skew schedule
    assert on.skew_result.commits == off.skew_result.commits
    assert on.datapath_result.total_moves == off.datapath_result.total_moves


# ---------------------------------------------------------------------- #
# Clock edits without notify_skew: every write path must reach the diff
# ---------------------------------------------------------------------- #
def _warm_skewed(seed: int = 31):
    """A design, its clock with two skewed flops, and an analyzer whose
    cached state has read that clock; returns four skewable flops."""
    netlist, clock = _build(seed)
    flops = [f for f in netlist.sequential_cells() if clock.bound(f) > 1e-6][:4]
    assert len(flops) == 4
    clock.set_arrival(flops[0], 0.5 * clock.bound(flops[0]))
    clock.set_arrival(flops[1], -0.5 * clock.bound(flops[1]))
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)
    return netlist, clock, analyzer, flops


#: Every way to write a clock's arrivals, none of them followed by
#: notify_skew.  Each changes at least one flop's arrival.
_UNNOTIFIED_CLOCK_WRITES = {
    "set_arrival": lambda c, fl: c.set_arrival(fl[2], -0.5 * c.bound(fl[2])),
    "adjust_arrival": lambda c, fl: c.adjust_arrival(fl[0], -0.25 * c.bound(fl[0])),
    "setitem": lambda c, fl: c.arrivals.__setitem__(fl[3], 0.3 * c.bound(fl[3])),
    "delitem": lambda c, fl: c.arrivals.__delitem__(fl[0]),
    "pop": lambda c, fl: c.arrivals.pop(fl[1]),
    "popitem": lambda c, fl: c.arrivals.popitem(),
    "update": lambda c, fl: c.arrivals.update({fl[0]: 0.0, fl[2]: 0.2 * c.bound(fl[2])}),
    "ior": lambda c, fl: operator.ior(c.arrivals, {fl[1]: 0.1 * c.bound(fl[1])}),
    "setdefault": lambda c, fl: c.arrivals.setdefault(fl[3], 0.4 * c.bound(fl[3])),
    "clear": lambda c, fl: c.arrivals.clear(),
    "reassign": lambda c, fl: setattr(c, "arrivals", {fl[3]: 0.1 * c.bound(fl[3])}),
}


@pytest.mark.parametrize("write", sorted(_UNNOTIFIED_CLOCK_WRITES))
def test_unnotified_clock_write_cannot_be_read_stale(write):
    netlist, clock, analyzer, flops = _warm_skewed()
    before = dict(clock.arrivals)
    _UNNOTIFIED_CLOCK_WRITES[write](clock, flops)
    assert dict(clock.arrivals) != before, f"{write} changed no arrival"
    _assert_matches_full(netlist, analyzer, clock, None, f"after {write}")
    # The diff's read position moved past the write: a further edit is
    # picked up too, and a repeat analysis with no edit stays equal.
    clock.adjust_arrival(flops[2], 0.125 * clock.bound(flops[2]))
    _assert_matches_full(netlist, analyzer, clock, None, f"{write} then adjust")
    _assert_matches_full(netlist, analyzer, clock, None, f"{write} repeat")


def test_fresh_clock_on_warm_analyzer_matches_full():
    """A different ClockModel object: flops skewed in the old clock but
    absent from the new one must return to zero arrival."""
    netlist, clock, analyzer, flops = _warm_skewed()
    fresh = ClockModel.for_netlist(netlist, clock.period)
    fresh.set_arrival(flops[2], 0.5 * fresh.bound(flops[2]))
    _assert_matches_full(netlist, analyzer, fresh, None, "fresh clock")
    _assert_matches_full(netlist, analyzer, clock, None, "back to the old clock")


def test_clock_copy_matches_full():
    netlist, clock, analyzer, flops = _warm_skewed()
    copy = clock.copy()
    copy.adjust_arrival(flops[0], -0.5 * copy.bound(flops[0]))
    _assert_matches_full(netlist, analyzer, copy, None, "edited copy")
    # The original kept its own arrivals; writes to it after the copy are
    # not the copy's, and switching back diffs the original in full.
    clock.set_arrival(flops[3], 0.25 * clock.bound(flops[3]))
    _assert_matches_full(netlist, analyzer, clock, None, "original after copy")
    _assert_matches_full(netlist, analyzer, copy, None, "copy again")


@pytest.mark.parametrize("protocol", (2, pickle.HIGHEST_PROTOCOL))
def test_pickled_clock_matches_full(protocol):
    """The rollout pool ships clocks and designs pickled; the round-tripped
    clock is a new journal, so the first analysis diffs it in full."""
    netlist, clock, analyzer, flops = _warm_skewed()
    clock.adjust_arrival(flops[1], 0.75 * clock.bound(flops[1]))  # not analyzed yet
    shipped = pickle.loads(pickle.dumps(clock, protocol=protocol))
    assert shipped.arrivals == clock.arrivals
    _assert_matches_full(netlist, analyzer, shipped, None, "unpickled clock")
    shipped.set_arrival(flops[3], -0.5 * shipped.bound(flops[3]))
    _assert_matches_full(netlist, analyzer, shipped, None, "unpickled clock edited")
