"""Clock model with per-flop useful-skew adjustments.

Useful skew moves the clock arrival time of individual capture/launch flops
within physical bounds (set by the generator / user per flop, representing
how much slack the local clock-tree branch can absorb).  A positive arrival
offset on a flop *helps* paths captured by it (later capture edge) and
*hurts* paths launched from it (later launch) — the fundamental trade the
useful-skew engine balances and the reason "over-fixing" one endpoint can
steal slack from its neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.netlist.core import Netlist
from repro.utils.validation import check_positive


#: A journal compacts (drops its log and starts a new epoch) once the log
#: holds this many writes *and* twice as many as the dict has keys, so a
#: long-lived clock's log stays bounded while the one full diff a compaction
#: costs its readers is amortized over at least that many writes.
_COMPACT_FLOOR = 4096


class ArrivalJournal(dict):
    """A ``dict`` of clock arrivals that logs every key written to it.

    Every mutating entry point — item assignment and deletion, ``update``,
    ``setdefault``, ``pop``, ``popitem``, ``clear`` and ``|=`` — appends the
    keys it touches to ``log``; reads are plain ``dict`` reads.  Readers
    keep a cursor (see :meth:`ClockModel.arrival_cursor`) and ask only for
    the keys written since it, which is what makes the incremental STA's
    clock diff O(changed) instead of O(skewed flops).

    Copies are never journal-continuations: ``copy()`` returns a plain dict
    and pickling / ``copy.copy`` rebuild a fresh journal with an empty log,
    so a reader holding a cursor into the original falls back to a full
    diff once.
    """

    __slots__ = ("log", "epoch")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.log: List[Any] = []
        self.epoch = 0
        super().__init__(*args, **kwargs)

    def __reduce__(self):
        return (type(self), (dict(self),))

    def _logged(self, keys) -> None:
        log = self.log
        log.extend(keys)
        if len(log) > _COMPACT_FLOOR and len(log) > 2 * len(self):
            log.clear()
            self.epoch += 1

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self._logged((key,))

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._logged((key,))

    def update(self, *args: Any, **kwargs: Any) -> None:
        other = dict(*args, **kwargs)
        dict.update(self, other)
        self._logged(other)

    def __ior__(self, other):
        self.update(other)
        return self

    def setdefault(self, key, default=None):
        if key in self:
            return dict.__getitem__(self, key)
        self[key] = default
        return default

    def pop(self, key, *default):
        present = key in self
        value = dict.pop(self, key, *default)
        if present:
            self._logged((key,))
        return value

    def popitem(self):
        key, value = dict.popitem(self)
        self._logged((key,))
        return key, value

    def clear(self) -> None:
        keys = list(self)
        dict.clear(self)
        self._logged(keys)


#: Opaque read position in one clock's arrival journal.
ArrivalCursor = Tuple[ArrivalJournal, int, int]


@dataclass
class ClockModel:
    """Clock period plus per-flop arrival offsets and their bounds.

    ``arrivals[f]`` is flop *f*'s clock-arrival offset relative to the
    nominal tree (ns, positive = later edge).  Offsets are clamped to
    ``±bounds[f]``; flops absent from ``bounds`` are immovable.

    ``arrivals`` is always an :class:`ArrivalJournal`: assigning any other
    mapping to it (including through the constructor) wraps a copy, so no
    write to a clock's arrivals can go unlogged.
    """

    period: float
    bounds: Dict[int, float] = field(default_factory=dict)
    arrivals: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        for flop, bound in self.bounds.items():
            if bound < 0:
                raise ValueError(f"skew bound of flop {flop} is negative: {bound}")
        for flop, value in self.arrivals.items():
            self._check_within(flop, value)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "arrivals" and not isinstance(value, ArrivalJournal):
            value = ArrivalJournal(value)
        object.__setattr__(self, name, value)

    @classmethod
    def for_netlist(cls, netlist: Netlist, period: float) -> "ClockModel":
        """Nominal clock (zero skew) with the netlist's per-flop bounds."""
        return cls(period=period, bounds=dict(netlist.skew_bounds))

    # ------------------------------------------------------------------ #
    def bound(self, flop: int) -> float:
        return self.bounds.get(flop, 0.0)

    def arrival(self, flop: int) -> float:
        return self.arrivals.get(flop, 0.0)

    def _check_within(self, flop: int, value: float) -> None:
        bound = self.bound(flop)
        if abs(value) > bound + 1e-12:
            raise ValueError(
                f"clock arrival {value:+.4f} of flop {flop} exceeds "
                f"bound ±{bound:.4f}"
            )

    def set_arrival(self, flop: int, value: float) -> None:
        """Set flop ``flop``'s arrival offset, enforcing its bound."""
        self._check_within(flop, value)
        self.arrivals[flop] = float(value)

    def adjust_arrival(self, flop: int, delta: float) -> float:
        """Add ``delta``, clamped to the bound; returns the applied delta."""
        bound = self.bound(flop)
        current = self.arrival(flop)
        new = float(np.clip(current + delta, -bound, bound))
        self.arrivals[flop] = new
        return new - current

    def arrival_cursor(self) -> ArrivalCursor:
        """The current end of this clock's arrival journal."""
        journal = self.arrivals
        return (journal, journal.epoch, len(journal.log))

    def written_since(self, cursor: Optional[ArrivalCursor]) -> Optional[List[Any]]:
        """Keys written to ``arrivals`` since ``cursor``, in first-write order.

        ``None`` when the cursor does not point into the current epoch of
        this clock's journal (no cursor yet, another clock, a copy or an
        unpickled clock, or a compacted log): the caller must then diff
        every key it cares about.
        """
        if cursor is None:
            return None
        journal, epoch, pos = cursor
        if journal is not self.arrivals or epoch != journal.epoch:
            return None
        return list(dict.fromkeys(journal.log[pos:]))

    def copy(self) -> "ClockModel":
        return ClockModel(
            period=self.period, bounds=dict(self.bounds), arrivals=dict(self.arrivals)
        )

    def arrival_vector(self, flop_indices) -> np.ndarray:
        """Arrival offsets for the given flops as an array."""
        return np.array([self.arrival(f) for f in flop_indices], dtype=np.float64)

    def total_adjustment(self) -> float:
        """Sum of absolute skew applied (a clock-network-perturbation proxy)."""
        return float(sum(abs(v) for v in self.arrivals.values()))

    def adjustments(self) -> Mapping[int, float]:
        """Non-zero arrival offsets (flop → ns), e.g. for Fig.-5 histograms."""
        return {f: v for f, v in self.arrivals.items() if v != 0.0}
