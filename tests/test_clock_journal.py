"""Clock-arrival journal, lazy report fields and the O(changed) clock diff.

The incremental STA engine diffs only the clock arrivals written since its
last analysis (``ClockModel.written_since``), so every write to a clock's
arrivals must land in the journal; reports derive their per-cell worst
slacks lazily from arrays they own, so a held report must never change.
The cross-engine equality of unnotified clock edits lives in
``test_sta_differential.py``; this file pins the journal itself, the
``sta.clock_diff_flops`` work counter, report immutability and the one
clock-key gather rule.
"""

from __future__ import annotations

import copy
import operator
import pickle

import numpy as np
import pytest

from repro import obs
from repro.benchsuite.scale import fast_design
from repro.netlist.generator import GeneratorConfig
from repro.timing import clock as clock_mod
from repro.timing import incremental as incr
from repro.timing.clock import ArrivalJournal, ClockModel
from repro.timing.paths import trace_critical_path
from repro.timing.sta import TimingAnalyzer


@pytest.fixture
def counters():
    """Enable the recorder for one test; yields its live counter dict."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        yield obs.get_recorder().counters
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


@pytest.fixture
def no_shadow_check():
    """Shadow checking reads every report's lazy fields at creation; tests
    about *when* those fields are first read switch it off."""
    previous = incr.set_check(False)
    try:
        yield
    finally:
        incr.set_check(previous)


def _skewable(netlist, clock):
    return [f for f in netlist.sequential_cells() if clock.bound(f) > 1e-6]


# ---------------------------------------------------------------------- #
# The journal
# ---------------------------------------------------------------------- #
_WRITES = {
    "setitem": (lambda d: d.__setitem__(7, 0.5), [7]),
    "delitem": (lambda d: d.__delitem__(1), [1]),
    "update": (lambda d: d.update({2: 0.1}, **{}), [2]),
    "ior": (lambda d: operator.ior(d, {3: 0.2}), [3]),
    "setdefault-new": (lambda d: d.setdefault(9, 0.3), [9]),
    "setdefault-present": (lambda d: d.setdefault(1, 0.3), []),
    "pop": (lambda d: d.pop(1), [1]),
    "pop-absent": (lambda d: d.pop(42, None), []),
    "popitem": (lambda d: d.popitem(), [2]),
    "clear": (lambda d: d.clear(), [1, 2]),
}


@pytest.mark.parametrize("write", sorted(_WRITES))
def test_every_write_path_is_logged(write):
    journal = ArrivalJournal({1: 0.1, 2: -0.1})
    assert journal.log == []
    apply, logged = _WRITES[write]
    apply(journal)
    assert journal.log == logged


def test_reads_are_not_logged():
    journal = ArrivalJournal({1: 0.1})
    _ = journal[1], journal.get(5, 0.0), dict(journal), list(journal.items())
    assert 1 in journal and journal.log == []


def test_clock_arrivals_are_always_a_journal():
    clock = ClockModel(period=1.0, bounds={1: 0.2, 2: 0.2}, arrivals={1: 0.1})
    assert isinstance(clock.arrivals, ArrivalJournal)
    clock.arrivals = {2: 0.05}
    assert isinstance(clock.arrivals, ArrivalJournal)
    assert clock.arrivals == {2: 0.05}
    shared = clock.arrivals
    clock.arrivals = shared  # an existing journal is kept, not copied
    assert clock.arrivals is shared


def test_written_since_dedupes_in_first_write_order():
    clock = ClockModel(period=1.0, bounds={f: 0.5 for f in range(6)})
    cursor = clock.arrival_cursor()
    clock.set_arrival(4, 0.1)
    clock.adjust_arrival(2, 0.1)
    clock.adjust_arrival(4, 0.1)
    assert clock.written_since(cursor) == [4, 2]
    assert clock.written_since(clock.arrival_cursor()) == []
    assert clock.written_since(None) is None


@pytest.mark.parametrize(
    "duplicate",
    [
        ClockModel.copy,
        copy.copy,
        copy.deepcopy,
        lambda c: pickle.loads(pickle.dumps(c)),
    ],
    ids=["copy-method", "copy.copy", "copy.deepcopy", "pickle"],
)
def test_duplicates_start_a_new_journal(duplicate):
    clock = ClockModel(period=1.0, bounds={1: 0.2, 2: 0.2}, arrivals={1: 0.1})
    cursor = clock.arrival_cursor()
    other = duplicate(clock)
    assert other.arrivals == clock.arrivals
    assert isinstance(other.arrivals, ArrivalJournal)
    if other.arrivals is not clock.arrivals:  # copy.copy shares the journal
        assert other.arrivals.log == []
        assert other.written_since(cursor) is None
    other.set_arrival(2, 0.1)
    assert other.written_since(other.arrival_cursor()) == []


def test_journal_compaction_invalidates_old_cursors():
    clock = ClockModel(period=1.0, bounds={1: 0.5})
    cursor = clock.arrival_cursor()
    for k in range(clock_mod._COMPACT_FLOOR + 1):
        clock.set_arrival(1, 0.1 if k % 2 else 0.2)
    assert clock.arrivals.epoch == 1
    assert len(clock.arrivals.log) <= clock_mod._COMPACT_FLOOR
    assert clock.written_since(cursor) is None


def test_compacted_journal_still_cannot_be_read_stale(small_design):
    netlist, period = small_design
    clock = ClockModel.for_netlist(netlist, period)
    flop = _skewable(netlist, clock)[0]
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)
    for k in range(clock_mod._COMPACT_FLOOR + 1):
        clock.set_arrival(flop, (0.1 + 0.2 * (k % 2)) * clock.bound(flop))
    assert clock.arrivals.epoch >= 1
    report = analyzer.analyze(clock)
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock)
    assert np.array_equal(report.cell_arrival, full.cell_arrival)
    assert np.array_equal(report.slack, full.slack)


# ---------------------------------------------------------------------- #
# The work counter: the clock diff is O(flops written)
# ---------------------------------------------------------------------- #
def test_clock_diff_visits_only_written_flops(counters):
    netlist = fast_design(
        GeneratorConfig(name="journal8k", n_cells=8_000, seed=3, n_inputs=200, n_outputs=120)
    )
    clock = ClockModel.for_netlist(netlist, netlist.library.default_clock_period)
    flops = _skewable(netlist, clock)[:1_000]
    assert len(flops) == 1_000
    for f in flops:
        clock.set_arrival(f, 0.5 * clock.bound(f))
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)  # full build: reads the journal position

    def diffed() -> float:
        before = counters.get("sta.clock_diff_flops", 0.0)
        analyzer.analyze(clock)
        return counters.get("sta.clock_diff_flops", 0.0) - before

    assert diffed() == 0
    clock.adjust_arrival(flops[500], -0.25 * clock.bound(flops[500]))
    assert diffed() == 1
    clock.adjust_arrival(flops[7], 0.1 * clock.bound(flops[7]))
    clock.adjust_arrival(flops[7], 0.1 * clock.bound(flops[7]))
    analyzer.notify_skew((flops[7],))
    assert diffed() == 1
    # Another clock object: one full diff, then back to O(changed).
    clock = clock.copy()
    assert diffed() == 1_000
    assert diffed() == 0


# ---------------------------------------------------------------------- #
# Lazy worst-slack fields and report immutability
# ---------------------------------------------------------------------- #
def test_held_report_never_changes(small_design, no_shadow_check):
    """Reports held across later analyses that move arrivals and margins
    read their worst slacks for the first time afterwards and still equal
    the full engine at their own state, bit for bit."""
    netlist, period = small_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)
    flops = _skewable(netlist, clock)[:6]
    endpoints = [int(e) for e in netlist.endpoints()]

    clock.adjust_arrival(flops[0], 0.5 * clock.bound(flops[0]))
    analyzer.notify_skew((flops[0],))
    r0 = analyzer.analyze(clock)  # incremental, no margins
    state0 = (clock.copy(), {})
    margins = {endpoints[0]: 0.2, endpoints[3]: 0.1}
    clock.adjust_arrival(flops[1], -0.5 * clock.bound(flops[1]))
    r1 = analyzer.analyze(clock, margins)  # incremental, margins appear
    state1 = (clock.copy(), dict(margins))
    assert r1.cell_required_margined is not None and r0.cell_required_margined is None

    for k in range(2, 6):
        clock.adjust_arrival(flops[k], 0.4 * clock.bound(flops[k]))
        margins = {endpoints[k]: 0.05 * k}
        analyzer.analyze(clock, margins)
    analyzer.analyze(clock)  # margins removed

    full = TimingAnalyzer(netlist, incremental=False)
    for held, (at_clock, at_margins) in ((r0, state0), (r1, state1)):
        ref = full.analyze(at_clock, at_margins)
        assert np.array_equal(held.cell_worst_slack, ref.cell_worst_slack)
        assert np.array_equal(held.cell_worst_slack_margined, ref.cell_worst_slack_margined)
    assert not np.array_equal(r1.cell_worst_slack, r1.cell_worst_slack_margined)
    assert np.array_equal(r0.cell_worst_slack, r0.cell_worst_slack_margined)
    # Cached on first read: the same array object every time.
    assert r1.cell_worst_slack is r1.cell_worst_slack


# ---------------------------------------------------------------------- #
# One gather rule for clock keys
# ---------------------------------------------------------------------- #
def test_out_of_range_clock_keys_are_ignored_everywhere(small_design):
    """Negative or too-large keys name no flop: the full engine, the state
    build and the incremental diff all ignore them (a negative key must not
    wrap onto the last cell)."""
    netlist, period = small_design
    n = netlist.num_cells
    last_flop = max(netlist.sequential_cells())
    neg = last_flop - n  # would wrap onto last_flop
    bounds = dict(netlist.skew_bounds)
    bounds.update({neg: 0.3, n: 0.3, n + 5: 0.3})
    clean = ClockModel(period=period, bounds=dict(netlist.skew_bounds))
    dirty = ClockModel(period=period, bounds=bounds, arrivals={neg: 0.25, n: 0.2})
    reference = TimingAnalyzer(netlist, incremental=False).analyze(clean)

    full = TimingAnalyzer(netlist, incremental=False).analyze(dirty)
    assert np.array_equal(full.cell_arrival, reference.cell_arrival)

    analyzer = TimingAnalyzer(netlist, incremental=True)
    built = analyzer.analyze(dirty)  # build_state
    assert np.array_equal(built.cell_arrival, reference.cell_arrival)
    dirty.set_arrival(neg, -0.25)
    dirty.set_arrival(n + 5, 0.1)
    again = analyzer.analyze(dirty)  # incremental diff
    assert np.array_equal(again.cell_arrival, reference.cell_arrival)
    assert np.array_equal(again.slack, reference.slack)


# ---------------------------------------------------------------------- #
# Critical-path endpoint lookup
# ---------------------------------------------------------------------- #
def test_trace_critical_path_endpoint_lookup(small_design):
    netlist, period = small_design
    analyzer = TimingAnalyzer(netlist)
    report = analyzer.analyze(ClockModel.for_netlist(netlist, period))
    compiled = analyzer.compiled
    for k in (0, report.endpoints.size // 2, report.endpoints.size - 1):
        e = int(report.endpoints[k])
        path = trace_critical_path(compiled, report, e)
        assert path.cells[-1] == e
        assert path.slack == float(report.slack[k])
        assert path.arrival == float(report.arrival[k])
    comb = next(c.index for c in netlist.cells if not c.cell_type.is_port and not c.is_sequential)
    # A negative index must not wrap onto an endpoint at the array's end.
    wraps_onto_endpoint = int(report.endpoints[-1]) - netlist.num_cells
    for bad in (comb, wraps_onto_endpoint, netlist.num_cells):
        with pytest.raises(KeyError, match="not an endpoint"):
            trace_critical_path(compiled, report, bad)
