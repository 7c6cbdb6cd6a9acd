"""In-memory span recorder for the traced benchmark run.

The recorder wraps the program's public entry points where callers look
them up: methods on their classes, and module-level functions in every
``repro.*`` module namespace that imported them.  Each call becomes a span
``[name, start, end, parent]`` appended to a list; nothing is written until
the run ends.  A span's self time is its duration minus the durations of
its direct children (calls are single-threaded, so children never overlap).

The wrappers can be removed and re-installed between measured units, so a
traced run also times some units without them and can report the tracing
overhead.  Forked children (rollout-pool workers) drop the wrappers right
after the fork, so worker processes always run untraced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (defining module, attribute path, span name).  A dotted attribute path is
# a method on a class; a plain name is a module-level function, wrapped in
# every loaded ``repro`` module that imported it.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.benchsuite.designs", "build_design", "benchsuite.build"),
    ("repro.benchsuite.scale", "fast_design", "benchsuite.build"),
    ("repro.timing.sta", "TimingAnalyzer.analyze", "timing.analyze"),
    ("repro.timing.sta", "compile_timing", "timing.compile"),
    ("repro.ccd.flow", "run_flow", "ccd.flow"),
    ("repro.ccd.datapath_opt", "optimize_datapath", "ccd.datapath"),
    ("repro.ccd.useful_skew", "optimize_useful_skew", "ccd.useful_skew"),
    ("repro.power.models", "report_power", "power.report"),
    ("repro.ccd.flow", "snapshot_netlist_state", "netlist.snapshot"),
    ("repro.ccd.flow", "restore_netlist_state", "netlist.restore"),
    ("repro.agent.env", "EndpointSelectionEnv.__init__", "features.env_build"),
    ("repro.features.cones", "ConeIndex.__init__", "features.cone_index"),
    ("repro.agent.env", "EndpointSelectionEnv.features", "features.extract"),
    ("repro.features.cones", "ConeIndex.mask_after_selection", "features.mask"),
    ("repro.gnn.incremental", "EncoderSession.encode", "gnn.encode"),
    ("repro.nn.recurrent", "LSTMCell.forward", "nn.decode"),
    ("repro.nn.attention", "PointerAttention.scores", "nn.decode"),
    ("repro.agent.policy", "RLCCDPolicy.rollout", "agent.rollout"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.nn.functional", "clip_gradient_norm", "nn.optim"),
    ("repro.agent.parallel", "evaluate_selections", "agent.evaluate"),
    ("repro.agent.parallel", "RolloutPool.evaluate", "agent.evaluate"),
    ("repro.agent.parallel", "RolloutPool.__init__", "agent.pool_start"),
)

# Calls too fine-grained for a span: only counted.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netlist.core", "Netlist.net_load_cap", "netlist.accessor"),
    ("repro.netlist.core", "Netlist.net_hpwl", "netlist.accessor"),
)


def _resolve(module_name: str, path: str) -> List[Tuple[object, str, Callable]]:
    """Every (owner, attribute, original) site through which callers reach
    ``module_name:path``."""
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, path)
    sites = []
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            mod, path, None
        ) is original:
            sites.append((mod, path, original))
    return sites


class Tracer:
    """Spans and counters for one traced run (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.traced_wall = 0.0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable, Callable]] = []
        self._installed_at = None
        self._pid = os.getpid()

    # ---- wrappers ----------------------------------------------------- #
    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Same-name nesting (e.g. one engine calling another) is one span.
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counter_hook(self, original: Callable) -> Callable:
        counters = self.counters

        def incr(name: str, amount: float = 1.0) -> None:
            counters[name] += amount
            original(name, amount)

        return incr

    # ---- lifecycle ---------------------------------------------------- #
    def prepare(self) -> None:
        """Resolve every wrap site; call after the workload's imports."""
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._count)):
            for module_name, path, name in targets:
                for owner, attr, original in _resolve(module_name, path):
                    self._patches.append((owner, attr, original, make(name, original)))
        # The program's own counters (``obs.incr``) are read, not enabled:
        # the recorder stays off, only the increments are observed.
        obs = importlib.import_module("repro.obs")
        self._patches.append((obs, "incr", obs.incr, self._counter_hook(obs.incr)))
        os.register_at_fork(after_in_child=self._drop_in_child)

    @property
    def installed(self) -> bool:
        return self._installed_at is not None

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed_at = time.perf_counter()

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.traced_wall += time.perf_counter() - self._installed_at
        self._installed_at = None

    def _drop_in_child(self) -> None:
        if os.getpid() != self._pid and self.installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._installed_at = None

    # ---- results ------------------------------------------------------ #
    def layer_rows(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """(self seconds per span name, calls per span name, unattributed s).

        The self times plus the unattributed remainder sum to
        :attr:`traced_wall`: the top-level spans' durations equal the sum of
        all self times, and whatever ran outside any span is the rest.
        """
        if self.installed:
            raise RuntimeError("uninstall() before reading the rows")
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        top = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return dict(self_s), dict(calls), self.traced_wall - top

    def export(self) -> Dict[str, object]:
        """Raw spans relative to the first one, for writing out at the end."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }
