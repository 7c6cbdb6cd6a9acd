"""Priority-driven sequential useful-skew engine (clock-path optimization).

Models the clock-path half of commercial CCD the way production engines
behave: endpoints are processed **sequentially in (margin-aware) criticality
order**, each adjustment is a *slack-balancing trade*, and committed flops
are locked for the remainder of the run.

For an endpoint captured at flop *f*, delaying *f*'s clock by δ adds δ of
slack to the endpoint but removes δ from every path *launched* from *f*.
The engine moves toward the **balance point** of the two sides, in the
margin-aware slack view::

    δ = min( capture deficit,                      # don't fix past target
             ½ · (launch slack − capture slack),   # stop at the balance point
             remaining physical bound )            # clock-tree flexibility

Crucially this is a trade, not a free lunch: when the capture side looks
much worse than the launch side, the engine willingly pushes launch-side
paths *toward or below zero* — slack is stolen from other endpoints.  A
symmetric recovery phase pulls flops earlier when their launch side is the
worse one.  Because each flop is adjusted once and locked (like a committed
clock-tree edit), **processing order determines who wins contended slack** —
which is precisely the lever endpoint prioritization operates.

Margins are that lever (Algorithm 1 line 14): an endpoint margined to WNS
is (a) processed first, (b) balanced as if it were critically violating, so
its *true* slack is pushed far positive — the "over-fix" — and (c) flops
launching into it see a terrible margin-aware launch side, so no later
adjustment steals its data-path slack back.  Whether a given over-fix helps
or hurts the final TNS depends on which endpoints absorb the stolen slack
and on what the (budgeted) data-path optimizer can subsequently repair —
the global, design-dependent structure the RL agent learns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set

import numpy as np

from repro import obs
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class UsefulSkewConfig:
    """Engine knobs; defaults tuned for the benchmark designs."""

    passes: int = 3  # sequential sweeps over not-yet-committed flops
    reanalyze_every: int = 12  # commits between STA refreshes within a sweep
    enable_recovery: bool = True  # launch-deficit recovery phase
    # Attention window: per pass the engine only *processes* the worst
    # ``attention_fraction`` of currently violating endpoints (at least
    # ``min_attention``).  Production skew engines are runtime-bounded in
    # exactly this worst-first way — and this cap is what endpoint margining
    # exploits: an endpoint worsened to WNS jumps to the head of the window
    # and is guaranteed clock-path attention it would otherwise never get.
    attention_fraction: float = 0.25
    min_attention: int = 8
    # "conservative": never push the (margin-aware) launch side below zero —
    #   the safety rail of production engines; margins are then the only way
    #   to make the engine fix an endpoint past its true need.
    # "balance": classical slack balancing — move to the midpoint of the two
    #   sides even if the donor goes negative (kept for the engine ablation).
    mode: str = "conservative"
    # Hold safety: when True the capture phase also runs min-delay analysis
    # and never delays a flop's clock past its hold slack (delaying capture
    # erodes hold one-for-one).  Off by default: the placement-stage flows
    # of the paper's experiments fix hold later in the flow, as real tools
    # do; the hold-aware variant exists for the full-flow extension.
    respect_hold: bool = False
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        check_positive("passes", self.passes)
        check_positive("reanalyze_every", self.reanalyze_every)
        if self.mode not in ("conservative", "balance"):
            raise ValueError(
                f"mode must be 'conservative' or 'balance', got {self.mode!r}"
            )
        if not 0.0 < self.attention_fraction <= 1.0:
            raise ValueError(
                f"attention_fraction must be in (0, 1], got {self.attention_fraction}"
            )
        if self.min_attention < 1:
            raise ValueError("min_attention must be at least 1")


@dataclass
class UsefulSkewResult:
    """What the engine did."""

    commits: int = 0
    recovery_commits: int = 0
    passes_run: int = 0
    total_adjustment: float = 0.0


def optimize_useful_skew(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
    config: UsefulSkewConfig = UsefulSkewConfig(),
) -> UsefulSkewResult:
    """Sequential priority skew optimization; mutates ``clock`` in place."""
    with obs.span("ccd.useful_skew"):
        result = _optimize_useful_skew(analyzer, clock, margins, config)
    obs.incr("skew.commits", result.commits)
    obs.incr("skew.recovery_commits", result.recovery_commits)
    obs.incr("skew.passes", result.passes_run)
    return result


def _optimize_useful_skew(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]],
    config: UsefulSkewConfig,
) -> UsefulSkewResult:
    result = UsefulSkewResult()
    committed: Set[int] = set()
    eps = config.epsilon

    def apparent_map(report) -> Dict[int, float]:
        return dict(zip(report.endpoints.tolist(), report.slack_with_margins.tolist()))

    for _pass in range(config.passes):
        report = analyzer.analyze(clock, margins, include_hold=config.respect_hold)
        apparent = apparent_map(report)
        hold_by_cell: Dict[int, float] = {}
        if config.respect_hold and report.hold_slack is not None:
            hold_by_cell = {
                int(e): float(h)
                for e, h in zip(report.endpoints, report.hold_slack)
            }
        progressed = False
        result.passes_run += 1

        # ---- capture phase: worst apparent endpoints first ------------ #
        violating = sorted(
            (e for e, s in apparent.items() if s < -eps), key=lambda e: apparent[e]
        )
        window = max(
            config.min_attention,
            int(round(config.attention_fraction * len(violating))),
        )
        worklist = violating[:window]
        commits_since_sta = 0
        for endpoint in worklist:
            flop = endpoint
            if flop in committed:
                continue
            cap_slack = apparent.get(endpoint)
            if cap_slack is None or cap_slack >= -eps:
                continue  # fixed meanwhile by an upstream commit
            bound_left = clock.bound(flop) - clock.arrival(flop)
            if bound_left <= eps:
                continue  # output port, rigid flop, or bound used up
            launch = float(report.cell_worst_slack_margined[flop])
            if config.mode == "conservative":
                room = max(0.0, launch) if np.isfinite(launch) else np.inf
            else:
                room = 0.5 * (launch - cap_slack) if np.isfinite(launch) else np.inf
            delta = min(-cap_slack, room, bound_left)
            if config.respect_hold:
                hold_room = hold_by_cell.get(flop, np.inf)
                delta = min(delta, max(0.0, hold_room))
            if delta <= eps:
                continue
            clock.adjust_arrival(flop, delta)
            analyzer.notify_skew((flop,))
            committed.add(flop)
            result.commits += 1
            progressed = True
            commits_since_sta += 1
            if commits_since_sta >= config.reanalyze_every:
                report = analyzer.analyze(clock, margins)
                apparent = apparent_map(report)
                commits_since_sta = 0

        # ---- recovery phase: launch side worse than capture side ------ #
        if config.enable_recovery:
            report = analyzer.analyze(clock, margins)
            apparent = apparent_map(report)
            flops = np.flatnonzero(analyzer.compiled.is_flop)
            launch_slack = report.cell_worst_slack_margined[flops].tolist()
            flop_launch = [
                (slack, f) for slack, f in zip(launch_slack, flops.tolist()) if f not in committed
            ]
            flop_launch = sorted(flop_launch)[:window]
            for launch, flop in flop_launch:
                if not np.isfinite(launch) or launch >= -eps:
                    continue
                cap_slack = apparent.get(flop, np.inf)
                if config.mode == "conservative":
                    room = max(0.0, cap_slack) if np.isfinite(cap_slack) else np.inf
                else:
                    room = (
                        0.5 * (cap_slack - launch)
                        if np.isfinite(cap_slack)
                        else np.inf
                    )
                bound_left = clock.bound(flop) + clock.arrival(flop)
                delta = min(-launch, room, bound_left)
                if delta <= eps:
                    continue
                clock.adjust_arrival(flop, -delta)
                analyzer.notify_skew((flop,))
                committed.add(flop)
                result.recovery_commits += 1
                progressed = True

        if not progressed:
            break

    result.total_adjustment = clock.total_adjustment()
    return result
