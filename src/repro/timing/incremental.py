"""Incremental STA: dirty-set–driven re-propagation inside ``analyze()``.

The full engine in :mod:`repro.timing.sta` recomputes every level on every
call even when a single cell was resized or a single flop's clock arrival
moved — and the CCD inner loops (:mod:`repro.ccd.datapath_opt` probes,
:mod:`repro.ccd.useful_skew` commit batches) call ``analyze()`` thousands of
times per flow run.  This module keeps the *last* analysis alive as an
:class:`IncrementalState` and re-propagates only what changed:

* **dirty cells** arrive from :meth:`TimingAnalyzer.notify_resize` (delay
  coefficients / load caps patched), :meth:`TimingAnalyzer.notify_skew`
  (clock arrivals moved) and — as a safety net — from diffing the clock
  model's per-flop arrivals against the cached vector, so an un-notified
  skew edit can never be read stale; the clock's arrival journal limits
  that diff to the keys written since the last analysis;
* the **forward pass** seeds a frontier from the dirty cells and walks the
  topological levels in order, recomputing only frontier cells and pruning
  any cell whose ``(arrival, slew)`` pair is unchanged within
  :data:`PRUNE_TOL`;
* the **backward pass** is symmetric: endpoints whose required time or
  margin changed, cells whose slew changed and the fan-in of re-coefficiented
  cells seed a reverse frontier that walks the levels backwards with the
  same pruning rule;
* **margins stay a view**: they only reseed the margin-aware backward pass
  (``required_eff``); arrivals, slews and true required times are never
  dirtied by applying or removing them (that is why
  :meth:`TimingAnalyzer.notify_margins` is a documented no-op).

Every recomputation mirrors the full pass' arithmetic *expression by
expression*, so a recomputed value from unchanged inputs is bitwise equal
and prunes exactly; differences against a from-scratch run can only come
from pruned sub-:data:`PRUNE_TOL` residues.

**Two kernels per level, one arithmetic.**  The frontier is bucketed by
topological level; each level-slice runs either a Python-scalar loop (below
:func:`vector_threshold` cells — the typical smoke-scale frontier of a
handful of cells, where numpy's per-call overhead dominates) or a vectorized
NumPy kernel (one gather over the dense ``fanin_idx`` rows / the CSR fanout
slices of :class:`~repro.timing.sta.CompiledTiming`, a batched max/min
reduction, a vectorized ``|Δ| > ε`` prune and a CSR frontier expansion).
Both paths evaluate the *same* IEEE-754 expression trees — max/min
reductions over non-NaN doubles are exact and order-independent — so the
switch is bitwise invisible, which the differential fuzz suite asserts
byte-for-byte.  Scratch (the seen mask, level buckets) is preallocated in
the state and reset in O(frontier), so repeated ``analyze()`` calls allocate
O(frontier), not O(n).

Fallback rules (handled by :class:`~repro.timing.sta.TimingAnalyzer`):
structural edits (``invalidate()`` or an unnotified netlist mutation caught
by the mutation-version guard), a clock-period change, the first analysis of
a corner, and ``include_hold=True`` all run the full engine and refresh the
cached state.

Shadow-check mode (``REPRO_STA_CHECK=1``) re-runs the full engine after
every incremental analysis and asserts the two reports agree within
:data:`CHECK_ATOL` — the differential harness CI runs the fuzz suite under.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.timing.clock import ArrivalCursor, ClockModel
from repro.timing.sta import (
    _NO_DRIVER,
    CompiledTiming,
    TimingReport,
    analyze,
    csr_edge_indices,
    flop_clock_arrivals,
)

#: A frontier cell whose recomputed arrival *and* slew both moved by no more
#: than this is pruned: its cached values are kept and its fanout is not
#: re-propagated.  The same tolerance prunes the backward pass.
PRUNE_TOL = 1e-12

#: Shadow-check agreement tolerance (absolute).  Looser than the pruning
#: tolerance because pruned residues may accumulate along deep paths.
CHECK_ATOL = 1e-9

#: Default-on switch for the incremental engine; set to a falsy value
#: (``0``/``false``/``no``/``off``) to force every analysis down the full
#: path.  Per-analyzer and per-flow overrides beat this global.
ENV_INCREMENTAL = "REPRO_STA_INCREMENTAL"

#: Truthy value turns on differential shadow checking of every incremental
#: analysis (expensive: each one also pays a full analysis).
ENV_CHECK = "REPRO_STA_CHECK"

#: Density switch: a frontier level-slice with at least this many cells runs
#: the vectorized kernel, smaller slices the scalar loop.  ``0`` forces the
#: kernel path everywhere, a huge value forces the scalar path (both used by
#: the differential fuzz suite to pin byte-equality of the two paths).
ENV_VEC_THRESHOLD = "REPRO_STA_VEC_THRESHOLD"

#: Default frontier-size threshold for the vectorized kernels.  Measured
#: crossover on the smoke designs is a few dozen cells per level; below it
#: numpy's per-call overhead loses to the scalar loop.
DEFAULT_VEC_THRESHOLD = 64

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")

_incremental: bool = (
    os.environ.get(ENV_INCREMENTAL, "").strip().lower() not in _FALSY
)
_check: bool = os.environ.get(ENV_CHECK, "").strip().lower() in _TRUTHY


def _env_threshold() -> int:
    raw = os.environ.get(ENV_VEC_THRESHOLD, "").strip()
    if not raw:
        return DEFAULT_VEC_THRESHOLD
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_VEC_THRESHOLD


_vec_threshold: int = _env_threshold()

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def incremental_enabled() -> bool:
    """Whether the incremental engine is globally enabled (default: yes)."""
    return _incremental


def set_incremental(value: bool) -> bool:
    """Set the global incremental switch; returns the previous value."""
    global _incremental
    previous = _incremental
    _incremental = bool(value)
    return previous


def check_enabled() -> bool:
    """Whether shadow-check mode is on (``REPRO_STA_CHECK=1``)."""
    return _check


def set_check(value: bool) -> bool:
    """Set shadow-check mode; returns the previous value."""
    global _check
    previous = _check
    _check = bool(value)
    return previous


def vector_threshold() -> int:
    """Current frontier-size threshold for the vectorized level kernels."""
    return _vec_threshold


def set_vector_threshold(value: int) -> int:
    """Set the density-switch threshold; returns the previous value.

    ``0`` forces every level-slice down the vectorized kernel; a huge value
    forces the scalar loop.  The differential fuzz suite toggles this to
    assert both paths produce byte-identical reports.
    """
    global _vec_threshold
    previous = _vec_threshold
    _vec_threshold = max(0, int(value))
    return previous


class _Frontier:
    """Preallocated frontier scratch: seen mask + per-level buckets.

    Buckets hold a mix of Python ints (scalar pushes) and int64 arrays
    (vectorized pushes); :func:`_batch_array` / :func:`_batch_list`
    materialize a level's batch in whichever form its kernel wants.
    ``reset()`` clears only what was touched, so the per-analysis cost is
    O(frontier) even though the mask is O(n).
    """

    __slots__ = ("seen", "buckets", "src_batch", "touched")

    def __init__(self, num_levels: int, n: int) -> None:
        self.seen = np.zeros(n, dtype=bool)
        self.buckets: List[List[Any]] = [[] for _ in range(max(num_levels, 1))]
        self.src_batch: List[Any] = []
        self.touched: List[Any] = []

    def reset(self) -> None:
        seen = self.seen
        for item in self.touched:
            seen[item] = False
        self.touched.clear()
        self.src_batch.clear()
        for bucket in self.buckets:
            if bucket:
                del bucket[:]


def _batch_size(items: Sequence[Any]) -> int:
    total = 0
    for item in items:
        total += item.size if isinstance(item, np.ndarray) else 1
    return total


def _batch_list(items: Sequence[Any]) -> List[int]:
    out: List[int] = []
    for item in items:
        if isinstance(item, np.ndarray):
            out.extend(item.tolist())
        else:
            out.append(item)
    return out


def _batch_array(items: Sequence[Any]) -> np.ndarray:
    arrays: List[np.ndarray] = []
    ints: List[int] = []
    for item in items:
        if isinstance(item, np.ndarray):
            arrays.append(item)
        else:
            ints.append(item)
    if ints:
        arrays.append(np.asarray(ints, dtype=np.int64))
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays)


@dataclass
class IncrementalState:
    """One corner's cached analysis in array form.

    The cached timing vectors are the canonical state both kernel paths
    read and write in place; topology, levels and delay coefficients are
    *not* mirrored — both paths index the compiled arrays directly, so a
    ``notify_resize`` coefficient patch is immediately visible.

    Report assembly copies the vectors a report holds (cell arrival, slew,
    true and — when margins apply — margin-aware required times, the
    endpoint arrays), because the kernels keep mutating them in place; a
    caller-held :class:`~repro.timing.sta.TimingReport` therefore never
    changes retroactively.  The per-cell worst slacks are not assembled
    here: the report derives them from its own copies on first read.
    """

    compiled: CompiledTiming
    period: float
    num_levels: int
    # Cached analysis state (the "last report", unpacked):
    clock_arrival: np.ndarray  # cached per-cell clock arrival
    arrival: np.ndarray  # cell output arrival
    slew: np.ndarray  # cell output slew
    ep_arrival: np.ndarray  # endpoint data arrival
    ep_required: np.ndarray  # endpoint required time
    margin_vec: np.ndarray  # last applied margins per endpoint position
    required_true: np.ndarray  # true backward required
    #: Margin-aware required view; ``None`` while margins are all zero (the
    #: full engine aliases the true view then, and so do we).
    required_eff: Optional[np.ndarray]
    #: Flops with a non-zero cached clock arrival (what a full clock diff
    #: must visit besides the clock's own keys).
    skewed_flops: Set[int] = field(default_factory=set)
    #: Read position in the arrival journal of the clock last diffed; the
    #: next diff visits only the keys written since (see
    #: :meth:`~repro.timing.clock.ClockModel.written_since`).
    clock_cursor: Optional[ArrivalCursor] = None
    #: Endpoint positions with a non-zero cached margin (keeps the margin
    #: diff O(#margined)).
    margined: Set[int] = field(default_factory=set)
    #: Cells dirtied by notify_* since the last analysis of this corner.
    pending: Set[int] = field(default_factory=set)
    #: Preallocated frontier scratch, shared by the forward and backward
    #: sweeps of one analysis (reset between passes).
    scratch: Optional[_Frontier] = None


def build_state(
    compiled: CompiledTiming,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
    include_hold: bool = False,
) -> Tuple[TimingReport, IncrementalState]:
    """Run the full engine once and capture its state for future increments."""
    report = analyze(compiled, clock, margins, include_hold=include_hold)
    n = compiled.fanin_idx.shape[0]

    clock_arrival = np.zeros(n)
    skewed: Set[int] = set()
    for f, value in flop_clock_arrivals(compiled, clock.arrivals):
        clock_arrival[f] = value
        if value != 0.0:
            skewed.add(f)

    margin_vec = report.margins.copy()
    required_eff = report.cell_required_margined
    if required_eff is not None:
        required_eff = required_eff.copy()

    state = IncrementalState(
        compiled=compiled,
        period=clock.period,
        num_levels=len(compiled.levels),
        clock_arrival=clock_arrival,
        arrival=report.cell_arrival.copy(),
        slew=report.cell_slew.copy(),
        ep_arrival=report.arrival.copy(),
        ep_required=report.required.copy(),
        margin_vec=margin_vec,
        required_true=report.cell_required.copy(),
        required_eff=required_eff,
        skewed_flops=skewed,
        clock_cursor=clock.arrival_cursor(),
        margined=set(np.nonzero(margin_vec)[0].tolist()),
    )
    return report, state


class _Counters:
    """Per-analysis kernel-dispatch tally (flushed once into obs counters)."""

    __slots__ = ("vectorized", "scalar", "frontier")

    def __init__(self) -> None:
        self.vectorized = 0
        self.scalar = 0
        self.frontier = 0


def incremental_analyze(
    state: IncrementalState,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
) -> Tuple[TimingReport, int]:
    """Re-propagate from the dirty set; returns ``(report, frontier_cells)``.

    The caller (:class:`~repro.timing.sta.TimingAnalyzer`) guarantees the
    compiled view is current (mutation-version guard) and the clock period
    matches the cached one; everything else — pending dirty cells, moved
    clock arrivals, changed margins — is discovered and handled here.
    """
    compiled = state.compiled
    is_flop = compiled.is_flop
    level_of = compiled.level_of
    ep_pos = compiled.ep_pos
    eps = compiled.endpoint_cells
    arrival = state.arrival
    ca = state.clock_arrival

    dirty = state.pending
    state.pending = set()

    fr = state.scratch
    if fr is None:
        fr = state.scratch = _Frontier(state.num_levels, arrival.shape[0])
    else:
        fr.reset()  # clear the previous analysis' backward-pass residue
    counters = _Counters()

    # Frontier cells are bucketed by topological level; the sweep touches
    # only levels that hold work and each cell is recomputed at most once.
    seen = fr.seen
    buckets = fr.buckets
    touched = fr.touched
    for c in dirty:
        if not seen[c]:
            seen[c] = True
            touched.append(c)
            buckets[level_of[c]].append(c)
    ep_arr_dirty: Set[int] = set()
    ep_req_dirty: List[int] = []

    # ---- clock diff: the stale-skew safety net ----------------------- #
    # notify_skew() marks moved flops eagerly, but analyze() never trusts
    # it alone — a flop whose arrival differs from the cached vector is
    # dirtied regardless of whether anyone notified.  The clock's arrival
    # journal logs every write, so only keys written since this state's
    # cursor can differ and the diff is O(changed).  A clock this state has
    # not read before (another object, a copy, an unpickled clock, a
    # compacted journal) gets one full diff: every key it holds plus every
    # flop cached as skewed.
    skewed = state.skewed_flops
    candidates = clock.written_since(state.clock_cursor)
    if candidates is None:
        candidates = set(clock.arrivals)
        candidates.update(skewed)
    state.clock_cursor = clock.arrival_cursor()
    visited = flop_clock_arrivals(compiled, clock.arrivals, candidates)
    obs.incr("sta.clock_diff_flops", len(visited))
    for f, value in visited:
        if value != ca[f]:
            ca[f] = value
            ep_req_dirty.append(int(ep_pos[f]))
            if not seen[f]:
                seen[f] = True
                touched.append(f)
                buckets[level_of[f]].append(f)
        if value != 0.0:
            skewed.add(f)
        else:
            skewed.discard(f)

    # ---- forward re-propagation -------------------------------------- #
    slew_changed: List[Any] = []
    _forward_sweep(state, fr, counters, slew_changed, ep_arr_dirty)

    # ---- endpoint checks --------------------------------------------- #
    ep_arrival = state.ep_arrival
    ep_required = state.ep_required
    if ep_arr_dirty:
        _recompute_ep_arrival(state, sorted(ep_arr_dirty))

    ep_req_changed: List[int] = []
    period = state.period
    setup = compiled.setup
    for pos in ep_req_dirty:
        e = eps[pos]
        if is_flop[e]:
            new_req = period + ca[e] - setup[e]
        else:
            new_req = period
        if new_req != ep_required[pos]:
            ep_req_changed.append(pos)
            ep_required[pos] = new_req

    # ---- margins diff (a view: reseeds only the eff backward pass) ---- #
    # Only endpoints named in the mapping or carrying a cached non-zero
    # margin can differ, so this too is O(#margined) rather than O(#eps).
    margin_vec = state.margin_vec
    margined = state.margined
    margin_changed: List[int] = []
    if margins:
        positions = {int(ep_pos[e]) for e in margins if ep_pos[e] >= 0}
        positions.update(margined)
        for pos in positions:
            m = float(margins.get(int(eps[pos]), 0.0))
            if m != margin_vec[pos]:
                margin_changed.append(pos)
                margin_vec[pos] = m
            if m != 0.0:
                margined.add(pos)
            else:
                margined.discard(pos)
        any_margin = bool(margined)
    else:
        any_margin = False
        for pos in sorted(margined):
            margin_changed.append(pos)
            margin_vec[pos] = 0.0
        margined.clear()

    # ---- backward re-propagation ------------------------------------- #
    # Seeds: any cell whose slew changed (its own gate-delay contribution
    # to its required time moved), the fan-in of re-coefficiented cells
    # (their gate delay as seen from upstream moved), and the fan-in of
    # endpoints whose required seed moved.
    cell_seeds: List[Any] = list(slew_changed)
    if dirty:
        rows = compiled.fanin_idx[
            np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        ]
        drivers = rows[rows != _NO_DRIVER]
        if drivers.size:
            cell_seeds.append(drivers)

    _backward_incremental(
        state, fr, counters, state.required_true, ep_required, cell_seeds,
        ep_req_changed,
    )

    if not any_margin:
        state.required_eff = None
    else:
        ep_eff_dirty = ep_req_changed + margin_changed
        if state.required_eff is None:
            # Margins just appeared: the eff view currently equals the true
            # view (which the pass above already brought up to date), so
            # only the freshly margined endpoints need re-seeding.
            state.required_eff = state.required_true.copy()
            eff_seeds: List[Any] = []
        else:
            eff_seeds = cell_seeds
        ep_seed_eff = ep_required - margin_vec
        _backward_incremental(
            state, fr, counters, state.required_eff, ep_seed_eff, eff_seeds,
            ep_eff_dirty,
        )

    if counters.vectorized:
        obs.incr("sta.vectorized_levels", counters.vectorized)
    if counters.scalar:
        obs.incr("sta.scalar_levels", counters.scalar)

    # ---- assemble the report (fresh arrays: the cache keeps mutating) - #
    ep_arr = ep_arrival.copy()
    ep_req = ep_required.copy()
    required_eff = state.required_eff
    report = TimingReport(
        endpoints=compiled.endpoint_cells,
        arrival=ep_arr,
        required=ep_req,
        slack=ep_req - ep_arr,
        margins=margin_vec.copy(),
        cell_arrival=arrival.copy(),
        cell_slew=state.slew.copy(),
        cell_required=state.required_true.copy(),
        cell_required_margined=None if required_eff is None else required_eff.copy(),
    )
    return report, counters.frontier


# ---------------------------------------------------------------------- #
# Forward sweep: scalar loop + vectorized kernel per level-slice
# ---------------------------------------------------------------------- #
def _forward_sweep(
    state: IncrementalState,
    fr: _Frontier,
    counters: _Counters,
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    """Level-ordered forward re-propagation of the seeded frontier."""
    buckets = fr.buckets
    for k in range(state.num_levels):
        items = buckets[k]
        if not items:
            continue
        buckets[k] = []
        threshold = _vec_threshold
        size = _batch_size(items)
        if size >= threshold:
            cells = _batch_array(items)
            src_mask = state.compiled.is_src[cells]
            if src_mask.any():
                srcs = cells[src_mask]
                counters.vectorized += 1
                counters.frontier += int(srcs.size)
                _forward_src_vec(state, fr, srcs, slew_changed, ep_arr_dirty)
                combs = cells[~src_mask]
                # Source commits may push comb cells of this same level
                # (levelization puts source-only-fed cells at level 0);
                # fold the freshly landed bucket into this batch.
                extra = buckets[k]
                if extra:
                    buckets[k] = []
                    combs = np.concatenate([combs, _batch_array(extra)])
            else:
                combs = cells
            if combs.size:
                counters.vectorized += 1
                counters.frontier += int(combs.size)
                _forward_comb_vec(state, fr, combs, slew_changed, ep_arr_dirty)
        else:
            cells_list = _batch_list(items)
            is_src = state.compiled.is_src
            srcs = [c for c in cells_list if is_src[c]]
            combs_list = [c for c in cells_list if not is_src[c]]
            if srcs:
                counters.scalar += 1
                counters.frontier += len(srcs)
                _forward_src_scalar(state, fr, srcs, slew_changed, ep_arr_dirty)
                extra = buckets[k]
                if extra:
                    buckets[k] = []
                    combs_list.extend(_batch_list(extra))
            if combs_list:
                counters.scalar += 1
                counters.frontier += len(combs_list)
                _forward_comb_scalar(
                    state, fr, combs_list, slew_changed, ep_arr_dirty
                )


def _forward_push_scalar(
    state: IncrementalState,
    fr: _Frontier,
    c: int,
    ep_arr_dirty: Set[int],
) -> None:
    """Scalar fanout expansion of one changed cell (CSR slice walk)."""
    compiled = state.compiled
    indptr = compiled.fanout_indptr
    sinks = compiled.fanout_indices
    is_flop = compiled.is_flop
    is_ep = compiled.is_ep
    ep_pos = compiled.ep_pos
    level_of = compiled.level_of
    seen = fr.seen
    buckets = fr.buckets
    touched = fr.touched
    for j in range(indptr[c], indptr[c + 1]):
        s = int(sinks[j])
        if is_ep[s]:
            ep_arr_dirty.add(int(ep_pos[s]))
        # Flop sinks capture only (their Q arrival never depends on D);
        # every other sink — comb cells and output ports — re-propagates.
        if not is_flop[s] and not seen[s]:
            seen[s] = True
            touched.append(s)
            buckets[level_of[s]].append(s)


def _forward_push_vec(
    state: IncrementalState,
    fr: _Frontier,
    changed: np.ndarray,
    ep_arr_dirty: Set[int],
) -> None:
    """Vectorized fanout expansion: gather CSR slices of all changed cells."""
    compiled = state.compiled
    edges = csr_edge_indices(compiled.fanout_indptr, changed)
    if edges.size == 0:
        return
    sinks = compiled.fanout_indices[edges]
    ep_sinks = sinks[compiled.is_ep[sinks]]
    if ep_sinks.size:
        ep_arr_dirty.update(compiled.ep_pos[ep_sinks].tolist())
    push = sinks[~compiled.is_flop[sinks]]
    if push.size == 0:
        return
    fresh = push[~fr.seen[push]]
    if fresh.size == 0:
        return
    fresh = np.unique(fresh)
    fr.seen[fresh] = True
    fr.touched.append(fresh)
    levels = compiled.level_of[fresh]
    order = np.argsort(levels, kind="stable")
    fresh = fresh[order]
    levels = levels[order]
    uniq, starts = np.unique(levels, return_index=True)
    bounds = np.append(starts, fresh.size)
    buckets = fr.buckets
    for i, lv in enumerate(uniq.tolist()):
        buckets[lv].append(fresh[bounds[i] : bounds[i + 1]])


def _forward_src_scalar(
    state: IncrementalState,
    fr: _Frontier,
    srcs: List[int],
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    compiled = state.compiled
    arrival = state.arrival
    slew = state.slew
    ca = state.clock_arrival
    is_flop = compiled.is_flop
    drive_res = compiled.drive_res
    load_cap = compiled.load_cap
    clk_to_q = compiled.clk_to_q
    slew_intr = compiled.slew_intr
    slew_load = compiled.slew_load
    for c in srcs:
        self_delay = drive_res[c] * load_cap[c]
        if is_flop[c]:
            new_arr = ca[c] + clk_to_q[c] + self_delay
        else:
            new_arr = self_delay
        new_slew = slew_intr[c] + slew_load[c] * load_cap[c]
        da = new_arr - arrival[c]
        ds = new_slew - slew[c]
        arr_moved = da > PRUNE_TOL or da < -PRUNE_TOL
        slew_moved = ds > PRUNE_TOL or ds < -PRUNE_TOL
        if not (arr_moved or slew_moved):
            continue
        arrival[c] = new_arr
        slew[c] = new_slew
        if slew_moved:
            slew_changed.append(c)
        _forward_push_scalar(state, fr, c, ep_arr_dirty)


def _forward_comb_scalar(
    state: IncrementalState,
    fr: _Frontier,
    combs: List[int],
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    compiled = state.compiled
    arrival = state.arrival
    slew = state.slew
    fanin_idx = compiled.fanin_idx
    fanin_wire = compiled.fanin_wire_delay
    max_pins = fanin_idx.shape[1]
    is_outport = compiled.is_outport
    intrinsic = compiled.intrinsic
    slew_sens = compiled.slew_sens
    drive_res = compiled.drive_res
    load_cap = compiled.load_cap
    slew_intr = compiled.slew_intr
    slew_load = compiled.slew_load
    for c in combs:
        best = _NEG_INF
        if is_outport[c]:
            for p in range(max_pins):
                u = fanin_idx[c, p]
                if u == _NO_DRIVER:
                    continue
                v = arrival[u] + fanin_wire[c, p]
                if v > best:
                    best = v
            new_arr = best + 0.0
        else:
            ic = intrinsic[c]
            ss = slew_sens[c]
            for p in range(max_pins):
                u = fanin_idx[c, p]
                if u == _NO_DRIVER:
                    continue
                v = (arrival[u] + fanin_wire[c, p]) + (ic + ss * slew[u])
                if v > best:
                    best = v
            new_arr = best + drive_res[c] * load_cap[c]
        new_slew = slew_intr[c] + slew_load[c] * load_cap[c]
        da = new_arr - arrival[c]
        ds = new_slew - slew[c]
        arr_moved = da > PRUNE_TOL or da < -PRUNE_TOL
        slew_moved = ds > PRUNE_TOL or ds < -PRUNE_TOL
        if not (arr_moved or slew_moved):
            continue
        arrival[c] = new_arr
        slew[c] = new_slew
        if slew_moved:
            slew_changed.append(c)
        _forward_push_scalar(state, fr, c, ep_arr_dirty)


def _forward_src_vec(
    state: IncrementalState,
    fr: _Frontier,
    srcs: np.ndarray,
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    compiled = state.compiled
    self_delay = compiled.drive_res[srcs] * compiled.load_cap[srcs]
    new_arr = np.where(
        compiled.is_flop[srcs],
        state.clock_arrival[srcs] + compiled.clk_to_q[srcs] + self_delay,
        self_delay,
    )
    new_slew = (
        compiled.slew_intr[srcs] + compiled.slew_load[srcs] * compiled.load_cap[srcs]
    )
    _forward_commit_vec(state, fr, srcs, new_arr, new_slew, slew_changed, ep_arr_dirty)


def _forward_comb_vec(
    state: IncrementalState,
    fr: _Frontier,
    combs: np.ndarray,
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    compiled = state.compiled
    arrival = state.arrival
    slew = state.slew
    drivers = compiled.fanin_idx[combs]  # (m, pins)
    valid = drivers != _NO_DRIVER
    drv = np.where(valid, drivers, 0)
    wire = compiled.fanin_wire_delay[combs]
    in_arr = arrival[drv] + wire
    outport = compiled.is_outport[combs]
    gate = (
        compiled.intrinsic[combs][:, None]
        + compiled.slew_sens[combs][:, None] * slew[drv]
    )
    per_pin = np.where(
        valid, np.where(outport[:, None], in_arr, in_arr + gate), -np.inf
    )
    best = per_pin.max(axis=1)
    new_arr = best + np.where(
        outport, 0.0, compiled.drive_res[combs] * compiled.load_cap[combs]
    )
    new_slew = (
        compiled.slew_intr[combs]
        + compiled.slew_load[combs] * compiled.load_cap[combs]
    )
    _forward_commit_vec(
        state, fr, combs, new_arr, new_slew, slew_changed, ep_arr_dirty
    )


def _forward_commit_vec(
    state: IncrementalState,
    fr: _Frontier,
    cells: np.ndarray,
    new_arr: np.ndarray,
    new_slew: np.ndarray,
    slew_changed: List[Any],
    ep_arr_dirty: Set[int],
) -> None:
    arrival = state.arrival
    slew = state.slew
    da = new_arr - arrival[cells]
    ds = new_slew - slew[cells]
    arr_moved = (da > PRUNE_TOL) | (da < -PRUNE_TOL)
    slew_moved = (ds > PRUNE_TOL) | (ds < -PRUNE_TOL)
    moved = arr_moved | slew_moved
    if not moved.any():
        return
    changed = cells[moved]
    arrival[changed] = new_arr[moved]
    slew[changed] = new_slew[moved]
    slewed = cells[slew_moved]
    if slewed.size:
        slew_changed.append(slewed)
    _forward_push_vec(state, fr, changed, ep_arr_dirty)


def _recompute_ep_arrival(
    state: IncrementalState, positions: Sequence[int]
) -> None:
    """Recompute endpoint data arrivals for the given positions."""
    compiled = state.compiled
    arrival = state.arrival
    ep_arrival = state.ep_arrival
    eps = compiled.endpoint_cells
    fanin_idx = compiled.fanin_idx
    fanin_wire = compiled.fanin_wire_delay
    if len(positions) >= max(_vec_threshold, 1):
        pos = np.asarray(positions, dtype=np.int64)
        e = eps[pos]
        rows = fanin_idx[e]
        valid = rows != _NO_DRIVER
        drv = np.where(valid, rows, 0)
        pin_arr = np.where(valid, arrival[drv] + fanin_wire[e], -np.inf)
        best = pin_arr.max(axis=1)
        best[~valid.any(axis=1)] = 0.0
        ep_arrival[pos] = best
        return
    max_pins = fanin_idx.shape[1]
    for pos in positions:
        e = eps[pos]
        best = _NEG_INF
        hit = False
        for p in range(max_pins):
            u = fanin_idx[e, p]
            if u == _NO_DRIVER:
                continue
            hit = True
            v = arrival[u] + fanin_wire[e, p]
            if v > best:
                best = v
        ep_arrival[pos] = best if hit else 0.0


# ---------------------------------------------------------------------- #
# Backward sweep: scalar loop + vectorized kernel per level-slice
# ---------------------------------------------------------------------- #
def _backward_incremental(
    state: IncrementalState,
    fr: _Frontier,
    counters: _Counters,
    required: np.ndarray,
    ep_seed: np.ndarray,
    cell_seeds: List[Any],
    ep_dirty_pos: Iterable[int],
) -> None:
    """Pruned reverse-level sweep updating ``required`` in place.

    ``ep_seed`` is the per-endpoint required seed of this view (true:
    ``ep_required``; margin-aware: ``ep_required − margins``);
    ``cell_seeds`` are cells to recompute up front (ints or int64 chunks,
    duplicates fine) and ``ep_dirty_pos`` endpoint positions whose seed
    moved (their fan-in joins the frontier).
    """
    compiled = state.compiled
    fr.reset()
    seen = fr.seen
    buckets = fr.buckets
    touched = fr.touched
    src_batch = fr.src_batch
    is_src = compiled.is_src
    level_of = compiled.level_of

    # Sources (flops/inports) sit at level 0 alongside the comb cells they
    # drive, so a same-level push would arrive mid-sweep; since sources
    # never push further, they are batched after the sweep instead (mirror
    # of the forward pass' two-phase level 0).
    def push_chunk(cells: np.ndarray) -> None:
        fresh = cells[~seen[cells]]
        if fresh.size == 0:
            return
        fresh = np.unique(fresh)
        seen[fresh] = True
        touched.append(fresh)
        src_mask = is_src[fresh]
        if src_mask.any():
            src_batch.append(fresh[src_mask])
            fresh = fresh[~src_mask]
            if fresh.size == 0:
                return
        levels = level_of[fresh]
        order = np.argsort(levels, kind="stable")
        fresh = fresh[order]
        levels = levels[order]
        uniq, starts = np.unique(levels, return_index=True)
        bounds = np.append(starts, fresh.size)
        for i, lv in enumerate(uniq.tolist()):
            buckets[lv].append(fresh[bounds[i] : bounds[i + 1]])

    for item in cell_seeds:
        if isinstance(item, np.ndarray):
            push_chunk(item)
        elif not seen[item]:
            seen[item] = True
            touched.append(item)
            if is_src[item]:
                src_batch.append(item)
            else:
                buckets[level_of[item]].append(item)

    ep_dirty = list(ep_dirty_pos)
    if ep_dirty:
        rows = compiled.fanin_idx[
            compiled.endpoint_cells[np.asarray(ep_dirty, dtype=np.int64)]
        ]
        drivers = rows[rows != _NO_DRIVER]
        if drivers.size:
            push_chunk(drivers)

    for k in range(state.num_levels - 1, -1, -1):
        items = buckets[k]
        if not items:
            continue
        buckets[k] = []
        # Pushes land strictly below level k (or in src_batch), never
        # behind the sweep — the bucket can be drained as-is.
        size = _batch_size(items)
        if size >= _vec_threshold:
            counters.vectorized += 1
            counters.frontier += size
            _backward_level_vec(
                state, required, ep_seed, _batch_array(items), push_chunk
            )
        else:
            counters.scalar += 1
            counters.frontier += size
            _backward_level_scalar(
                state, fr, required, ep_seed, _batch_list(items)
            )

    srcs = fr.src_batch
    if srcs:
        fr.src_batch = []
        size = _batch_size(srcs)
        counters.frontier += size
        if size >= _vec_threshold:
            counters.vectorized += 1
            src_arr = _batch_array(srcs)
            best = _backward_recompute_vec(state, required, ep_seed, src_arr)
            required[src_arr] = best
        else:
            counters.scalar += 1
            for u in _batch_list(srcs):
                required[u] = _backward_recompute_scalar(
                    state, required, ep_seed, u
                )


def _backward_recompute_scalar(
    state: IncrementalState,
    required: np.ndarray,
    ep_seed: np.ndarray,
    u: int,
) -> float:
    compiled = state.compiled
    indptr = compiled.fanout_indptr
    sinks = compiled.fanout_indices
    wires = compiled.fanout_wire_delay
    is_ep = compiled.is_ep
    ep_pos = compiled.ep_pos
    intrinsic = compiled.intrinsic
    slew_sens = compiled.slew_sens
    drive_res = compiled.drive_res
    load_cap = compiled.load_cap
    best = _POS_INF
    su = state.slew[u]
    for j in range(indptr[u], indptr[u + 1]):
        s = sinks[j]
        wire = wires[j]
        if is_ep[s]:
            contrib = ep_seed[ep_pos[s]] - wire
        else:
            contrib = (
                required[s]
                - (intrinsic[s] + slew_sens[s] * su + drive_res[s] * load_cap[s])
                - wire
            )
        if contrib < best:
            best = contrib
    return best


def _backward_level_scalar(
    state: IncrementalState,
    fr: _Frontier,
    required: np.ndarray,
    ep_seed: np.ndarray,
    cells: List[int],
) -> None:
    compiled = state.compiled
    is_comb = compiled.is_comb
    is_src = compiled.is_src
    level_of = compiled.level_of
    fanin_idx = compiled.fanin_idx
    max_pins = fanin_idx.shape[1]
    seen = fr.seen
    buckets = fr.buckets
    touched = fr.touched
    src_batch = fr.src_batch
    for u in cells:
        new_req = _backward_recompute_scalar(state, required, ep_seed, u)
        old = required[u]
        if new_req == old:
            continue
        d = new_req - old
        if -PRUNE_TOL <= d <= PRUNE_TOL:
            continue
        required[u] = new_req
        # Only combinational cells propagate required times upstream; a
        # changed flop/port required is terminal (the full pass masks
        # them out of the reverse sweep the same way).
        if is_comb[u]:
            for p in range(max_pins):
                v = fanin_idx[u, p]
                if v == _NO_DRIVER or seen[v]:
                    continue
                seen[v] = True
                touched.append(v)
                if is_src[v]:
                    src_batch.append(int(v))
                else:
                    buckets[level_of[v]].append(int(v))


def _backward_recompute_vec(
    state: IncrementalState,
    required: np.ndarray,
    ep_seed: np.ndarray,
    cells: np.ndarray,
) -> np.ndarray:
    """Batched min-over-fanout recompute (CSR gather + segment reduction)."""
    compiled = state.compiled
    indptr = compiled.fanout_indptr
    counts = indptr[cells + 1] - indptr[cells]
    best = np.full(cells.size, np.inf)
    edges = csr_edge_indices(indptr, cells)
    if edges.size == 0:
        return best
    sinks = compiled.fanout_indices[edges]
    wire = compiled.fanout_wire_delay[edges]
    su = np.repeat(state.slew[cells], counts)
    ep_mask = compiled.is_ep[sinks]
    gate = (
        compiled.intrinsic[sinks]
        + compiled.slew_sens[sinks] * su
        + compiled.drive_res[sinks] * compiled.load_cap[sinks]
    )
    # required[s] of a non-endpoint sink is always finite (every comb cell
    # reaches an endpoint in a validated netlist), so no inf−inf here; the
    # endpoint branch is selected before it could matter anyway.
    normal = required[sinks] - gate - wire
    ep_contrib = ep_seed[np.where(ep_mask, compiled.ep_pos[sinks], 0)] - wire
    contrib = np.where(ep_mask, ep_contrib, normal)
    nz = counts > 0
    seg_starts = np.cumsum(counts) - counts
    best[nz] = np.minimum.reduceat(contrib, seg_starts[nz])
    return best


def _backward_level_vec(
    state: IncrementalState,
    required: np.ndarray,
    ep_seed: np.ndarray,
    cells: np.ndarray,
    push_chunk,
) -> None:
    compiled = state.compiled
    best = _backward_recompute_vec(state, required, ep_seed, cells)
    old = required[cells]
    # Equality first (mirrors the scalar prune order): both-infinite
    # entries compare equal and never reach the subtraction, so no
    # inf − inf NaN can arise in the delta.
    neq_idx = np.nonzero(best != old)[0]
    if neq_idx.size == 0:
        return
    d = best[neq_idx] - old[neq_idx]
    keep = (d > PRUNE_TOL) | (d < -PRUNE_TOL)
    if not keep.any():
        return
    changed = cells[neq_idx[keep]]
    required[changed] = best[neq_idx[keep]]
    comb_changed = changed[compiled.is_comb[changed]]
    if comb_changed.size == 0:
        return
    rows = compiled.fanin_idx[comb_changed]
    drivers = rows[rows != _NO_DRIVER]
    if drivers.size:
        push_chunk(drivers)


# ---------------------------------------------------------------------- #
# Differential shadow check (REPRO_STA_CHECK=1)
# ---------------------------------------------------------------------- #
_COMPARED_FIELDS = (
    "arrival",
    "required",
    "slack",
    "margins",
    "cell_arrival",
    "cell_slew",
    "cell_required",
    "cell_worst_slack",
    "cell_worst_slack_margined",
)


def assert_reports_equal(
    incremental: TimingReport,
    full: TimingReport,
    atol: float = CHECK_ATOL,
) -> None:
    """Raise ``RuntimeError`` if the two reports disagree beyond ``atol``."""
    if not np.array_equal(incremental.endpoints, full.endpoints):
        raise RuntimeError(
            "incremental STA drift: endpoint ordering differs from the "
            "full engine's canonical order"
        )
    mismatches: List[str] = []
    for name in _COMPARED_FIELDS:
        a = getattr(incremental, name)
        b = getattr(full, name)
        if not np.allclose(a, b, rtol=0.0, atol=atol):
            finite = np.isfinite(a) & np.isfinite(b)
            worst = float(np.abs(a[finite] - b[finite]).max()) if finite.any() else np.inf
            if np.any(np.isfinite(a) != np.isfinite(b)):
                worst = np.inf
            mismatches.append(f"{name} (max |Δ|={worst:.3e})")
    if mismatches:
        raise RuntimeError(
            "incremental STA drift beyond "
            f"{atol:g} in: {', '.join(mismatches)} — a dirty-set "
            "notification is missing or the pruning rule is unsound"
        )


__all__ = [
    "CHECK_ATOL",
    "DEFAULT_VEC_THRESHOLD",
    "ENV_CHECK",
    "ENV_INCREMENTAL",
    "ENV_VEC_THRESHOLD",
    "PRUNE_TOL",
    "IncrementalState",
    "assert_reports_equal",
    "build_state",
    "check_enabled",
    "incremental_analyze",
    "incremental_enabled",
    "set_check",
    "set_incremental",
    "set_vector_threshold",
    "vector_threshold",
]
