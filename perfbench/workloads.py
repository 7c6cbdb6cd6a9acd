"""The benchmark workloads, driven through the program's public API.

Every call into the program goes through a module attribute
(``flow.run_flow``, ``reinforce.train_rlccd``, ...), so the traced run's
wrappers (see ``spans.py``) see it.  Each workload returns an
:class:`Outcome`: set-up samples, the durations of its timed units, and
the results of its correctness checks.

Every timed piece of work is bracketed by marks of a
:class:`speed.SpeedMeter`, which gives its wall seconds and its seconds at
the reference speed.

Run length is fixed work derived from ``--seconds``: the number of timed
units is ``seconds / NOMINAL_UNIT_S[workload]``, the per-unit time at the
reference speed.  The same seed and seconds therefore give the same units
on every commit.  Training runs never stop early (plateau patience is
effectively infinite), so run length never depends on rewards.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.agent.env as agent_env
import repro.agent.parallel as parallel
import repro.agent.policy as agent_policy
import repro.agent.reinforce as reinforce
import repro.benchsuite.designs as designs
import repro.benchsuite.scale as scale_gen
import repro.ccd.flow as flow
import repro.netlist.generator as generator
import repro.timing.metrics as timing_metrics
import repro.timing.sta as sta
from repro.features.table1 import NUM_FEATURES
from repro.timing.clock import ClockModel
from speed import Piece, SpeedMeter

#: Workloads that run a rollout pool (see ``speed.SpeedMeter``).
POOLED = ("train_pooled",)

#: The set-up before the warm-up unit is repeated this many times and its
#: median used, unless a run already holds that many trainings.
SETUP_REPEATS = 3

#: Seconds of one timed unit at the reference speed (see module docstring).
NOMINAL_UNIT_S: Dict[str, float] = {
    "train_block": 0.2,
    "episode_10k": 3.2,
    "flow_50k": 2.3,
    "train_pooled": 0.55,
}

#: Independent trainings per run (see :func:`_train`).
TRAININGS: Dict[str, int] = {"train_block": 4, "episode_10k": 1, "train_pooled": 3}

#: Pooled rewards re-evaluated sequentially, per training.
POOL_RECHECKS = 1

#: Selection cap per trajectory (the trainer's default) and the size of the
#: fixed worst-slack selection on flow_50k.
MAX_SELECTION_STEPS = 48
WORST_SLACK_K = 48

#: Violating-endpoint fraction for the generated (non-block) designs, as in
#: the program's own scale sweep.
SCALE_VIOLATING_FRACTION = 0.4


@dataclass(frozen=True)
class Sizes:
    """Design sizes; the self-check mode shrinks them."""

    block_cells: Optional[int]  # None: block1 at the default scale
    episode_cells: int
    flow_cells: int


FULL = Sizes(block_cells=None, episode_cells=10_000, flow_cells=50_000)
TINY = Sizes(block_cells=300, episode_cells=1_500, flow_cells=2_500)


def _median_piece(pieces: List[Piece]) -> Piece:
    return Piece(median([p.raw for p in pieces]), median([p.ref for p in pieces]))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    # One sample per set-up: median set-up plus its warm-up unit.
    setup: List[Piece] = field(default_factory=list)
    units: List[Piece] = field(default_factory=list)
    unit_traced: List[bool] = field(default_factory=list)
    items: int = 0  # episodes (training) or flows (flow_50k) timed
    peak_rss_mb: float = 0.0
    worker_peak_rss_mb: float = 0.0
    pool_retries: int = 0
    tns_gain_pct: float = 0.0
    final_tns_ns: float = 0.0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


class PoolTap:
    """Records each pooled evaluation (pool, selections, rewards).

    Installed before the tracer resolves its wrap sites, so it stays in
    place whether or not spans are being recorded.
    """

    def __init__(self) -> None:
        self.calls: List[Tuple[object, List[List[int]], list]] = []
        original = parallel.RolloutPool.evaluate
        calls = self.calls

        def evaluate(pool, selections):
            rewards = original(pool, selections)
            calls.append((pool, [list(s) for s in selections], list(rewards)))
            return rewards

        parallel.RolloutPool.evaluate = evaluate


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _units(workload: str, seconds: float, minimum: int) -> int:
    return max(minimum, round(seconds / NOMINAL_UNIT_S[workload]))


def _gain_pct(tns: float, default_tns: float) -> float:
    if default_tns == 0.0:
        return 0.0
    return (tns - default_tns) / abs(default_tns) * 100.0


def _signature(final) -> Tuple[float, float, int]:
    return (final.tns, final.wns, final.nve)


def _toggle(tracer, traced: bool) -> None:
    if tracer is None:
        return
    if traced:
        tracer.install()
    else:
        tracer.uninstall()


# ---------------------------------------------------------------------- #
# Designs
# ---------------------------------------------------------------------- #
def _clock_period(netlist, violating_fraction: float) -> float:
    nominal = netlist.library.default_clock_period
    report = sta.TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return timing_metrics.choose_clock_period(report, nominal, violating_fraction)


def block_design(sizes: Sizes):
    """Table-II block1 exactly as the program builds it (1270 cells, 101
    violating endpoints at the default scale).

    The seed does not reach this design: re-placing block1 with another
    seed alone swung the mean episode time between 0.31 and 0.55 s over five
    seeds, while five policy seeds on this design stayed within 0.34-0.41 s.
    """
    spec = designs.get_block("block1")
    if sizes.block_cells is not None:
        spec = dataclasses.replace(
            spec, paper_cells=sizes.block_cells * designs.DEFAULT_SCALE
        )
    prepared = designs.build_design(spec)
    return prepared.netlist, prepared.clock_period


def scale_design(name: str, cells: int, seed: int):
    """A ``fast_design`` of ``cells`` cells, fully generated from ``seed``."""
    config = generator.GeneratorConfig(
        name=name,
        n_cells=cells,
        n_inputs=max(8, cells // 40),
        n_outputs=max(6, cells // 60),
        seed=seed,
    )
    netlist = scale_gen.fast_design(config)
    return netlist, _clock_period(netlist, SCALE_VIOLATING_FRACTION)


# ---------------------------------------------------------------------- #
# Training workloads
# ---------------------------------------------------------------------- #
@dataclass
class _Training:
    """One training's design and env, with its set-up time."""

    seed: int
    units: int
    netlist: object
    env: object
    period: float
    snapshot: object
    setup: Piece  # median design + env set-up, without the warm-up


def _train(
    name: str,
    seed: int,
    seconds: float,
    meter: SpeedMeter,
    tracer,
    make_design: Callable[[int], tuple],
    trainings: int = 1,
    episodes_per_update: int = 1,
    workers: int = 1,
    tap: Optional[PoolTap] = None,
) -> Outcome:
    """``trainings`` independent REINFORCE runs sharing the timed units.

    Training ``j`` uses sub-seed ``seed * trainings + j`` for its design
    (where the design takes a seed) and its policy/sampling rng.  Within
    each, the first gradient update is the warm-up unit and each later
    update is one timed unit.  Several short trainings average over the
    policies' diverging trajectories: five policy seeds on block1 gave mean
    episode times from 0.34 to 0.41 s.  Afterwards the first training is
    run again for two updates, which must repeat its first episodes exactly.
    """
    out = Outcome()
    units = _units(name, seconds, minimum=2 * trainings)
    setup_repeats = 1 if trainings >= SETUP_REPEATS else SETUP_REPEATS
    gains, defaults = [], []
    first = None
    for j in range(trainings):
        share = units // trainings + (j < units % trainings)
        _toggle(tracer, True)
        run = _set_up_training(
            meter, seed * trainings + j, share, setup_repeats, make_design
        )
        gain, default, history = _train_one(
            out, meter, run, tracer, episodes_per_update, workers, tap
        )
        gains.append(gain)
        defaults.append(default)
        if first is None:
            first = (run, history)
        run = None  # free the design unless it is the first
    out.tns_gain_pct = median(gains)
    out.final_tns_ns = median(defaults)
    out.worker_peak_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN) if workers > 1 else 0.0

    run, history = first
    run = dataclasses.replace(run, units=1)
    _, records, _ = _train_records(meter, run, episodes_per_update, workers)
    again = [_record_signature(r) for r in records]
    out.check(
        "training_repeats",
        again == history[: len(again)],
        f"seed {run.seed}: first {len(again)} episodes differ on a second run",
    )
    return out


def _set_up_training(
    meter: SpeedMeter, seed: int, units: int, repeats: int, make_design
) -> _Training:
    """Build the design and env ``repeats`` times; keep the last."""
    pieces = []
    netlist = env = None
    for _ in range(repeats):
        netlist = env = None  # free the previous copy first
        start = meter.mark()
        netlist, period = make_design(seed)
        env = agent_env.EndpointSelectionEnv(netlist, period)
        pieces.append(meter.piece(start, meter.mark()))
    snapshot = flow.snapshot_netlist_state(netlist)
    return _Training(seed, units, netlist, env, period, snapshot, _median_piece(pieces))


def _train_records(meter: SpeedMeter, run: _Training, epu: int, workers: int, on_update=None):
    """Train from the snapshot with a fresh policy for ``run.units`` timed
    updates after the warm-up one.  Returns the result, the episode records
    and the marks: one before policy init and one after each update."""
    flow.restore_netlist_state(run.netlist, run.snapshot)
    config = reinforce.TrainConfig(
        max_episodes=(run.units + 1) * epu,
        episodes_per_update=epu,
        workers=workers,
        plateau_patience=10**9,
        max_selection_steps=MAX_SELECTION_STEPS,
        seed=run.seed,
    )
    records = []
    marks = [meter.mark()]

    def progress(record) -> None:
        records.append(record)
        if len(records) % epu:
            return
        if on_update is not None:
            on_update(len(marks) - 1)  # the timed unit starting now
        marks.append(meter.mark())

    policy = agent_policy.RLCCDPolicy(NUM_FEATURES, rng=run.seed)
    result = reinforce.train_rlccd(
        policy, run.env, flow.FlowConfig(clock_period=run.period), config, progress=progress
    )
    return result, records, marks


def _record_signature(record) -> tuple:
    return (record.tns, record.wns, record.nve, record.num_selected)


def _train_one(out: Outcome, meter: SpeedMeter, run: _Training, tracer, epu, workers, tap):
    """One timed training; appends to ``out``.  Returns (tns gain %,
    default-flow TNS, episode signatures)."""
    first_unit = len(out.units)
    first_call = len(tap.calls) if tap is not None else 0

    def on_update(unit: int) -> None:
        if unit == run.units:
            out.peak_rss_mb = _rss_mb(resource.RUSAGE_SELF)
        _toggle(tracer, unit < run.units and (first_unit + unit) % 2 == 0)

    result, records, marks = _train_records(meter, run, epu, workers, on_update)
    _toggle(tracer, False)

    warm = meter.piece(marks[0], marks[1])
    out.setup.append(Piece(run.setup.raw + warm.raw, run.setup.ref + warm.ref))
    out.units += [meter.piece(a, b) for a, b in zip(marks[1:], marks[2:])]
    out.unit_traced += [(first_unit + i) % 2 == 0 for i in range(run.units)]
    out.items += run.units * epu

    # ---- checks (untimed) ------------------------------------------- #
    out.check(
        "episodes_run",
        result.episodes_run == (run.units + 1) * epu and not result.converged,
        f"seed {run.seed}: {result.episodes_run} episodes, converged={result.converged}",
    )
    best = next(r for r in records if r.tns == result.best_tns)
    rerun = _signature(result.best_flow.final) if result.best_flow else None
    out.check(
        "best_selection_flow_repeats",
        rerun == (best.tns, best.wns, best.nve),
        f"seed {run.seed} episode {best.episode}: trained {(best.tns, best.wns, best.nve)}, "
        f"re-run {rerun}",
    )
    if tap is not None:
        _check_pool(out, tap.calls[first_call:], run)
    history = [_record_signature(r) for r in records]
    if tracer is None:
        return 0.0, 0.0, history
    # Quality figures for the per-layer report: the default flow's TNS.
    default = flow.run_flow(run.netlist, flow.FlowConfig(clock_period=run.period)).final.tns
    flow.restore_netlist_state(run.netlist, run.snapshot)
    return _gain_pct(result.best_tns, default), default, history


def _check_pool(out: Outcome, calls, run: _Training) -> None:
    """Pooled rewards equal a sequential re-evaluation of a sample."""
    pairs = [
        (selection, reward)
        for _, selections, rewards in calls
        for selection, reward in zip(selections, rewards)
    ]
    pool = calls[-1][0] if calls else None
    out.check(
        "pool_used",
        pool is not None and pool.start_method is not None,
        f"seed {run.seed}: {len(pairs)} pooled evaluations",
    )
    if pool is not None:
        stats = pool.stats()
        out.pool_retries += (
            stats["task_timeouts"] + stats["worker_crashes"] + stats["corrupt_results"]
        )
    config = flow.FlowConfig(clock_period=run.period)
    mismatches = []
    for selection, reward in random.Random(run.seed).sample(
        pairs, min(POOL_RECHECKS, len(pairs))
    ):
        flow.restore_netlist_state(run.netlist, run.snapshot)
        again = _signature(flow.run_flow(run.netlist, config, selection).final)
        if again != (reward.tns, reward.wns, reward.nve):
            mismatches.append((selection, reward, again))
    flow.restore_netlist_state(run.netlist, run.snapshot)
    out.check("pool_rewards_match_sequential", not mismatches, repr(mismatches[:1]))


def train_block(
    seed: int, seconds: float, sizes: Sizes, meter: SpeedMeter, tracer=None, tap=None
) -> Outcome:
    return _train(
        "train_block",
        seed,
        seconds,
        meter,
        tracer,
        lambda s: block_design(sizes),
        trainings=TRAININGS["train_block"],
    )


def train_pooled(
    seed: int, seconds: float, sizes: Sizes, meter: SpeedMeter, tracer=None, tap=None
) -> Outcome:
    return _train(
        "train_pooled",
        seed,
        seconds,
        meter,
        tracer,
        lambda s: block_design(sizes),
        trainings=TRAININGS["train_pooled"],
        episodes_per_update=4,
        workers=2,
        tap=tap,
    )


def episode_10k(
    seed: int, seconds: float, sizes: Sizes, meter: SpeedMeter, tracer=None, tap=None
) -> Outcome:
    return _train(
        "episode_10k",
        seed,
        seconds,
        meter,
        tracer,
        lambda s: scale_design("episode_10k", sizes.episode_cells, s),
        trainings=TRAININGS["episode_10k"],
    )


# ---------------------------------------------------------------------- #
# Flow-only workload
# ---------------------------------------------------------------------- #
def flow_50k(
    seed: int, seconds: float, sizes: Sizes, meter: SpeedMeter, tracer=None, tap=None
) -> Outcome:
    """Alternate the default flow and a fixed worst-slack-48 prioritized
    flow on one design, restoring the snapshot after each; one unit is one
    flow.  The warm-up unit is one default flow."""
    out = Outcome()
    pairs = _units("flow_50k", seconds, minimum=4) // 2
    _toggle(tracer, True)

    pieces = []
    netlist = None
    for _ in range(SETUP_REPEATS):
        netlist = None
        start = meter.mark()
        netlist, period = scale_design("flow_50k", sizes.flow_cells, seed)
        report = sta.TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, period))
        selection = [int(e) for e in timing_metrics.violating_endpoints(report)[:WORST_SLACK_K]]
        snapshot = flow.snapshot_netlist_state(netlist)
        pieces.append(meter.piece(start, meter.mark()))
    config = flow.FlowConfig(clock_period=period)

    start = meter.mark()
    warm = _signature(flow.run_flow(netlist, config).final)
    flow.restore_netlist_state(netlist, snapshot)
    warm_up = meter.piece(start, meter.mark())
    build = _median_piece(pieces)
    out.setup.append(Piece(build.raw + warm_up.raw, build.ref + warm_up.ref))

    finals: Dict[bool, List[Tuple[float, float, int]]] = {False: [], True: []}
    for unit in range(2 * pairs):
        traced = (unit // 2) % 2 == 0
        _toggle(tracer, traced)
        prioritized = unit % 2 == 1
        gc.collect()
        start = meter.mark()
        result = flow.run_flow(netlist, config, selection if prioritized else ())
        flow.restore_netlist_state(netlist, snapshot)
        out.units.append(meter.piece(start, meter.mark()))
        finals[prioritized].append(_signature(result.final))
        out.unit_traced.append(traced)
    out.peak_rss_mb = _rss_mb(resource.RUSAGE_SELF)
    _toggle(tracer, False)

    out.items = 2 * pairs
    out.final_tns_ns = warm[0]
    out.tns_gain_pct = _gain_pct(finals[True][0][0], warm[0])
    out.check(
        "default_flow_repeats",
        all(f == warm for f in finals[False]),
        f"warm-up {warm}, timed {sorted(set(finals[False]))}",
    )
    out.check(
        "prioritized_flow_repeats",
        len(set(finals[True])) == 1,
        f"{sorted(set(finals[True]))}",
    )
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "train_block": train_block,
    "episode_10k": episode_10k,
    "flow_50k": flow_50k,
    "train_pooled": train_pooled,
}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
