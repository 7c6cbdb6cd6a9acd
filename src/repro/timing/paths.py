"""Critical-path extraction.

Traces the worst arrival path backwards from an endpoint through argmax
fan-in pins — used by the data-path optimizer to decide *which* cells to
size/buffer for a given violating endpoint, and by examples/reports to show
what the optimizers did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.timing.sta import _NO_DRIVER, CompiledTiming, TimingReport


@dataclass(frozen=True)
class TimingPath:
    """A launch-to-capture path: cell indices from startpoint to endpoint."""

    endpoint: int
    cells: List[int]  # startpoint ... endpoint (inclusive)
    arrival: float
    slack: float

    @property
    def depth(self) -> int:
        return len(self.cells)

    def __str__(self) -> str:
        chain = " -> ".join(str(c) for c in self.cells)
        return f"Path(ep={self.endpoint}, slack={self.slack:.3f}): {chain}"


def trace_critical_path(
    compiled: CompiledTiming, report: TimingReport, endpoint_cell: int
) -> TimingPath:
    """Trace the most critical path into ``endpoint_cell``.

    Walks backwards from the endpoint, at each cell following the input pin
    with the largest driver arrival + wire delay, stopping at a launch point
    (flop or input port).  ``report`` must come from an analysis of
    ``compiled``: the endpoint's position in its arrays is read from
    ``compiled.ep_pos`` (O(1), no scan of the endpoint list).
    """
    ep_pos = compiled.ep_pos
    k = int(ep_pos[endpoint_cell]) if 0 <= endpoint_cell < ep_pos.shape[0] else -1
    if k < 0:
        raise KeyError(f"cell {endpoint_cell} is not an endpoint")

    chain = [endpoint_cell]
    current = endpoint_cell
    # Guard against pathological loops (cannot occur in a valid netlist, but
    # a wrong compile would otherwise hang).
    for _ in range(compiled.fanin_idx.shape[0] + 1):
        drivers = compiled.fanin_idx[current]
        best_driver = _NO_DRIVER
        best_time = -np.inf
        for pin, driver in enumerate(drivers):
            if driver == _NO_DRIVER:
                continue
            t = report.cell_arrival[driver] + compiled.fanin_wire_delay[current, pin]
            if t > best_time:
                best_time = t
                best_driver = int(driver)
        if best_driver == _NO_DRIVER:
            break
        chain.append(best_driver)
        if compiled.is_flop[best_driver] or compiled.is_inport[best_driver]:
            break
        current = best_driver
    chain.reverse()
    return TimingPath(
        endpoint=endpoint_cell,
        cells=chain,
        arrival=float(report.arrival[k]),
        slack=float(report.slack[k]),
    )
