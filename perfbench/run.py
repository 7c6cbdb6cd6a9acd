"""RL-CCD benchmark: one workload per process, end-to-end or per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_block --seed 3 --seconds 14 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` records spans around the program's public entry
points and reports the per-layer metrics (see ``perfbench/BENCHMARK.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  The exit code is 1 when a correctness
check fails and 2 when the program cannot be imported from ``src/``.

``--self-check`` runs every workload at a tiny size in both modes and
validates the output; ``--write-manifest`` regenerates ``BENCHMARK.json``
from the metric tables below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Pin the environment before the program is imported:
# - the string-hash seed is fixed: with a random one per process the same
#   input's episode time differed by up to 15% between back-to-back runs,
#   and by under 1% with a fixed one.  Python reads it at start-up, so the
#   process re-executes itself once with it set;
# - every REPRO_* switch is cleared: each changes engines or adds work (the
#   program's own recorder alone slows training by about a quarter);
# - BLAS runs single-threaded: with its default two threads per process the
#   pooled workload oversubscribes two cores, and spinning BLAS threads make
#   wall and CPU time swing with whatever else the machine runs.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
CLEARED_ENV = sorted(key for key in os.environ if key.startswith("REPRO_"))
for _key in CLEARED_ENV:
    del os.environ[_key]
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
PINNED_ENV["PYTHONHASHSEED"] = "0"

RUN_SECONDS = 14

WORKLOAD_WHY = {
    "train_block": "sequential REINFORCE on Table-II block1 (1270 cells, 101 violating "
    "endpoints): the paper's loop, where the CCD flow and scalar STA dominate",
    "flow_50k": "CCD flow only on a 50K-cell design, default and worst-slack-48 flows "
    "alternating: netlist, vectorized STA and CCD without any policy work",
    "train_pooled": "block1 training with 4 episodes per update over 2 pool workers: "
    "the only workload using the rollout pool and its reward cache",
}

# Runnable with --workload but not in BENCHMARK.json: a 10K-cell training
# whose policy stack dominates.  A steady run of it takes over a minute, so
# with it four workloads do not fit the time allowed for all benchmark runs.
EXTRA_WORKLOADS = ("episode_10k",)

# (name, unit, better, bound) — reported with --trace 0 on every workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("step_s_p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

# (name, unit, better) — reported with --trace 1 on every workload.
PER_LAYER = (
    ("timing.analyze_s", "s", "lower"),
    ("timing.analyze_calls", "count", "lower"),
    ("timing.compile_s", "s", "lower"),
    ("timing.frontier_cells", "count", "lower"),
    ("timing.incremental_share", "ratio", "higher"),
    ("ccd.flow_s", "s", "lower"),
    ("ccd.datapath_s", "s", "lower"),
    ("ccd.useful_skew_s", "s", "lower"),
    ("ccd.datapath.accept_ratio", "ratio", "higher"),
    ("power.report_s", "s", "lower"),
    ("netlist.accessor_calls", "count", "lower"),
    ("netlist.restore_s", "s", "lower"),
    ("netlist.snapshot_s", "s", "lower"),
    ("benchsuite.build_s", "s", "lower"),
    ("features.env_build_s", "s", "lower"),
    ("features.cone_index_s", "s", "lower"),
    ("features.extract_s", "s", "lower"),
    ("features.mask_s", "s", "lower"),
    ("features.mask_calls", "count", "lower"),
    ("gnn.encode_s", "s", "lower"),
    ("gnn.encode_calls", "count", "lower"),
    ("gnn.dirty_cells", "count", "lower"),
    ("gnn.incremental_ratio", "ratio", "higher"),
    ("nn.decode_s", "s", "lower"),
    ("nn.backward_s", "s", "lower"),
    ("nn.optim_s", "s", "lower"),
    ("agent.rollout_s", "s", "lower"),
    ("agent.evaluate_s", "s", "lower"),
    ("agent.pool_start_s", "s", "lower"),
    ("agent.reward_cache_hit_ratio", "ratio", "higher"),
    ("agent.pool_retries", "count", "lower"),
    ("agent.worker_peak_rss_mb", "MB", "lower"),
    ("tns_gain_pct", "%", "higher"),
    ("final_tns_ns", "ns", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("unattributed_s", "s", "lower"),
)

# Span names whose self time is reported as ``<name>_s``.
SELF_TIME_SPANS = tuple(
    name[: -len("_s")]
    for name, unit, _ in PER_LAYER
    if unit == "s" and name != "unattributed_s"
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def import_program():
    """Import the workloads from this checkout's ``src``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)
    import numpy
    import spans
    import speed
    import workloads

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cleared_env": CLEARED_ENV,
        "pinned_env": PINNED_ENV,
    }
    return spans, speed, workloads, env


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples
    beyond it, or None when there are fewer than 20 samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def end_to_end_metrics(out, median, kind: str = "ref") -> dict:
    """The end-to-end metrics from seconds at the reference speed
    (``kind="ref"``, reported) or from wall seconds (``"raw"``, printed)."""
    setup = [getattr(p, kind) for p in out.setup]
    units = [getattr(p, kind) for p in out.units]
    return {
        "setup_s": median(setup),
        "items_per_s": out.items / sum(units),
        "step_s_p50": median(units),
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer_metrics(out, tracer, median) -> dict:
    self_s, calls, unattributed = tracer.layer_rows()
    c = tracer.counters
    moves = c["datapath.sizing_moves"] + c["datapath.buffer_moves"]
    traced = [p.ref for p, on in zip(out.units, out.unit_traced) if on]
    untraced = [p.ref for p, on in zip(out.units, out.unit_traced) if not on]
    metrics = {f"{name}_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    metrics.update(
        {
            "timing.analyze_calls": calls.get("timing.analyze", 0),
            "timing.frontier_cells": c["sta.frontier_cells"],
            "timing.incremental_share": _ratio(
                c["sta.incremental_analyze"],
                c["sta.incremental_analyze"] + c["sta.full_analyze"],
            ),
            "ccd.datapath.accept_ratio": _ratio(moves, moves + c["datapath.rolled_back"]),
            "netlist.accessor_calls": tracer.counts["netlist.accessor"],
            "features.mask_calls": calls.get("features.mask", 0),
            "gnn.encode_calls": calls.get("gnn.encode", 0),
            "gnn.dirty_cells": c["gnn.dirty_cells"],
            "gnn.incremental_ratio": _ratio(
                c["gnn.incremental_encode"],
                c["gnn.incremental_encode"] + c["gnn.full_encode"],
            ),
            "agent.reward_cache_hit_ratio": _ratio(
                c["rollout.cache_hit"], c["rollout.cache_hit"] + c["rollout.cache_miss"]
            ),
            "agent.pool_retries": out.pool_retries,
            "agent.worker_peak_rss_mb": out.worker_peak_rss_mb,
            "tns_gain_pct": out.tns_gain_pct,
            "final_tns_ns": out.final_tns_ns,
            "obs.trace_overhead_pct": (
                (median(traced) / median(untraced) - 1.0) * 100.0 if untraced else 0.0
            ),
            "unattributed_s": unattributed,
        }
    )
    return metrics


def write_trace(path: Path, args, env, out, tracer, metrics) -> None:
    self_s, calls, unattributed = tracer.layer_rows()
    rows = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
    rows["unattributed"] = unattributed
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "traced_wall_s": tracer.traced_wall,
        "self_s": rows,
        "calls": calls,
        "counters": dict(tracer.counters),
        "metrics": metrics,
        **tracer.export(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def run_workload(args) -> int:
    spans, speed, workloads, env = import_program()
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    tap = workloads.PoolTap()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.prepare()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    print(
        f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={int(args.trace)} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} cleared={','.join(CLEARED_ENV) or '-'} "
        f"pinned={','.join(f'{k}={v}' for k, v in PINNED_ENV.items())}"
    )
    started = time.perf_counter()
    with speed.SpeedMeter(pooled=args.workload in workloads.POOLED) as meter:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, sizes, meter, tracer=tracer, tap=tap
        )
    wall = time.perf_counter() - started

    if tracer is None:
        metrics = end_to_end_metrics(out, workloads.median)
    else:
        metrics = per_layer_metrics(out, tracer, workloads.median)
        total = metrics["unattributed_s"] + sum(metrics[f"{n}_s"] for n in SELF_TIME_SPANS)
        out.check(
            "rows_sum_to_traced_wall",
            abs(total - tracer.traced_wall) <= 1e-6 * max(1.0, tracer.traced_wall),
            f"rows {total:.6f} s vs traced wall {tracer.traced_wall:.6f} s",
        )
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, args, env, out, tracer, metrics)
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    out.check("metrics_finite", not bad, ",".join(bad))

    probes = [1e3 * p for p in meter.probes]
    print(
        f"# timed units: {len(out.units)}  set-ups with warm-up: "
        + " ".join(f"{p.raw:.3f}" for p in out.setup)
        + f" s wall  run wall: {wall:.1f} s  speed probe: min {min(probes):.2f} "
        f"median {workloads.median(probes):.2f} max {max(probes):.2f} ms "
        f"(reference {1e3 * speed.PROBE_REF_S:.2f} ms)"
    )
    for name, value in metrics.items():
        print(f"# {name:30s} {value:14.6g} {units[name]}")
    if tracer is None:
        raw = end_to_end_metrics(out, workloads.median, kind="raw")
        for name in ("setup_s", "items_per_s", "step_s_p50"):
            print(f"# {name + ' (wall)':30s} {raw[name]:14.6g} {units[name]}")
        t = tail([p.ref for p in out.units])
        if t is not None:
            print(f"# {'step_s_tail':30s} {t[1]:14.6g} s (p{t[0]:.0f}, n={len(out.units)})")
    for name in dict.fromkeys(name for name, _, _ in out.checks):
        results = [(ok, detail) for n, ok, detail in out.checks if n == name]
        passed = sum(ok for ok, _ in results)
        print(f"# check {name}: {passed}/{len(results)} ok")
        for ok, detail in results:
            if not ok:
                print(f"#   FAILED {detail}")

    failed = sum(1 for _, ok, _ in out.checks if not ok)
    result = {
        "correct": failed == 0,
        "attempted": len(out.setup) + len(out.units) + len(out.checks),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------- #
# Self-check
# ---------------------------------------------------------------------- #
def self_check() -> int:
    """Run every workload at tiny size in both modes; validate the output."""
    problems = []
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if committed != manifest():
        problems.append("BENCHMARK.json differs from --write-manifest output")
    for workload in [*WORKLOAD_WHY, *EXTRA_WORKLOADS]:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            names = [row[0] for row in table]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(result)}")
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{tag}: metric names differ from the manifest")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: not correct\n{proc.stdout}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is not positive")
            print(f"self-check {tag}: exit {proc.returncode}, {len(result['metrics'])} metrics")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check ok" if not problems else "self-check failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY) + list(EXTRA_WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0, help="seeds design generation and the policy/sampling rng"
    )
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check design sizes")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
