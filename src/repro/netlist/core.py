"""Gate-level netlist data model.

A :class:`Netlist` is a set of :class:`Cell` instances connected by
:class:`Net` instances.  Cells reference a :class:`~repro.netlist.library.CellType`
and carry a mutable ``size_index`` (the data-path optimizer's sizing moves) and
a placement location (filled in by :mod:`repro.placement`).

Terminology follows STA practice:

* **startpoints** — primary input ports and flip-flop Q outputs (where timing
  paths launch);
* **endpoints** — flip-flop D inputs and primary output ports (where timing
  paths are captured; the objects RL-CCD prioritizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.library import CellSize, CellType, Library


@dataclass
class Cell:
    """One instance of a library cell type.

    ``fanin_nets[i]`` is the net driving input pin ``i`` (or ``None`` while
    under construction); ``fanout_net`` is the net driven by the output pin
    (``None`` for output ports, which only consume).
    """

    index: int
    name: str
    cell_type: CellType
    size_index: int = 0
    x: float = 0.0
    y: float = 0.0
    fanin_nets: List[Optional[int]] = field(default_factory=list)
    fanout_net: Optional[int] = None
    # Switching activity at the output pin (0..1, toggles per clock cycle);
    # feeds the net-switching-power model and the Table-I "max toggle" feature.
    toggle_rate: float = 0.1
    # Logical-hierarchy cluster id; the placer keeps clusters together.
    cluster: int = 0

    def __post_init__(self) -> None:
        if not self.fanin_nets:
            self.fanin_nets = [None] * self.cell_type.num_inputs

    @property
    def size(self) -> CellSize:
        """The currently selected drive strength."""
        return self.cell_type.size(self.size_index)

    @property
    def is_sequential(self) -> bool:
        return self.cell_type.is_sequential

    @property
    def is_input_port(self) -> bool:
        return self.cell_type.is_input_port

    @property
    def is_output_port(self) -> bool:
        return self.cell_type.is_output_port

    @property
    def is_endpoint(self) -> bool:
        """Endpoints are where setup checks happen: flop D pins, output ports."""
        return self.is_sequential or self.is_output_port

    @property
    def is_startpoint(self) -> bool:
        """Startpoints launch paths: input ports, flop Q pins."""
        return self.is_sequential or self.is_input_port

    @property
    def sizing_headroom(self) -> int:
        """How many upsizing steps remain for this cell."""
        return self.cell_type.max_size_index - self.size_index

    def __repr__(self) -> str:
        return (
            f"Cell({self.index}, {self.name!r}, {self.cell_type.name}"
            f"{self.size.code}, at=({self.x:.1f},{self.y:.1f}))"
        )


@dataclass
class Net:
    """A signal net: one driver output pin, many sink input pins.

    Sinks are ``(cell_index, input_pin_index)`` pairs.
    """

    index: int
    name: str
    driver: int
    sinks: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:
        return f"Net({self.index}, {self.name!r}, driver={self.driver}, fanout={self.fanout})"


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum of ``values``, as a scalar ``total += v`` loop adds.

    ``np.sum`` adds pairwise and rounds differently; the last running sum
    of ``np.cumsum`` keeps the loop's order and so its result bit for bit.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


#: Coefficients of the selected :class:`CellSize` gathered per cell.
_SIZE_FIELDS = (
    "intrinsic_delay",
    "drive_resistance",
    "input_cap",
    "slew_intrinsic",
    "slew_load_factor",
    "slew_sensitivity",
    "internal_power",
    "leakage_power",
    "area",
)
#: Sequential constraints gathered per cell (0.0 for non-sequential types).
_SEQ_FIELDS = ("clk_to_q", "setup_time", "hold_time")
_VALUE_FIELDS = _SIZE_FIELDS + _SEQ_FIELDS


class NetlistArrays:
    """Struct-of-arrays view of a netlist's current state, built in O(n).

    Per cell: the row of its ``(cell type, size)`` in a coefficient table
    (:meth:`size_column` gathers one coefficient for every cell), type
    flags, placement and toggle rate, and, gathered on first use, the
    ``(n, max_pins)`` fan-in net matrix and the driven net.  Per net: the
    driver, and the sinks in CSR form: net ``j``'s sinks are
    ``sink_cells[sink_indptr[j]:sink_indptr[j + 1]]`` in ``net.sinks``
    order.

    A view serves one whole-design pass: build it, read it, drop it.  It is
    never cached: placement, netlist I/O, the generators and snapshot
    restores write ``x``, ``size_index`` and ``toggle_rate`` directly
    without bumping ``Netlist.mutation_version``, so a kept copy could go
    stale.  Coefficient columns and the pin matrices are gathered only when
    a pass reads them, which keeps the view small next to a live timing
    analyzer.
    """

    def __init__(self, netlist: Netlist):
        cells = netlist.cells
        self._cells = cells
        n = len(cells)
        distinct = {id(cell.cell_type): cell.cell_type for cell in cells}
        first_row: Dict[int, int] = {}
        value_rows: List[Tuple[float, ...]] = []
        flag_rows: List[Tuple[bool, ...]] = []
        size_counts: List[int] = []
        for type_id, ctype in distinct.items():
            first_row[type_id] = len(value_rows)
            seq = ctype.is_sequential
            type_flags = (seq, ctype.is_input_port, ctype.is_output_port)
            constraints = tuple(
                getattr(ctype, name) if seq else 0.0 for name in _SEQ_FIELDS
            )
            for size in ctype.sizes:
                value_rows.append(
                    tuple(getattr(size, name) for name in _SIZE_FIELDS) + constraints
                )
                flag_rows.append(type_flags)
                size_counts.append(len(ctype.sizes))
        base = np.fromiter(
            (first_row[id(cell.cell_type)] for cell in cells), np.int64, n
        )
        sizes = np.fromiter((cell.size_index for cell in cells), np.int64, n)
        bad = (sizes < 0) | (sizes >= np.array(size_counts, dtype=np.int64)[base])
        if bad.any():
            first_bad = cells[int(np.flatnonzero(bad)[0])]
            first_bad.cell_type.size(first_bad.size_index)  # raises IndexError
        self.size_row = base + sizes
        self._values = np.array(value_rows, dtype=np.float64).reshape(
            -1, len(_VALUE_FIELDS)
        )
        flags = np.array(flag_rows, dtype=bool).reshape(-1, 3)[self.size_row]
        self.is_flop = flags[:, 0].copy()
        self.is_inport = flags[:, 1].copy()
        self.is_outport = flags[:, 2].copy()
        self._max_pins = max(
            1, max((t.num_inputs for t in distinct.values()), default=1)
        )
        self.x = np.fromiter([cell.x for cell in cells], np.float64, n)
        self.y = np.fromiter([cell.y for cell in cells], np.float64, n)
        self.toggle_rate = np.fromiter(
            [cell.toggle_rate for cell in cells], np.float64, n
        )

        nets = netlist.nets
        m = len(nets)
        self.net_driver = np.fromiter((net.driver for net in nets), np.int64, m)
        sinks = [net.sinks for net in nets]
        self.sink_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sinks), np.int64, m), out=self.sink_indptr[1:])
        sink_pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(sinks)),
            np.int64,
            2 * int(self.sink_indptr[-1]),
        )
        self.sink_cells = sink_pairs[0::2].copy()

        self.port_cap = netlist.library.default_port_cap
        self.wire_cap_per_um = netlist.library.wire_cap_per_um
        self.parasitic_scale = netlist.parasitic_scale

    @property
    def num_nets(self) -> int:
        return self.net_driver.size

    def size_column(self, name: str) -> np.ndarray:
        """One coefficient of every cell's selected size, as a fresh array.

        ``name`` is a :class:`CellSize` field, or ``clk_to_q``,
        ``setup_time`` or ``hold_time`` (0.0 for non-sequential cells).
        """
        return self._values[:, _VALUE_FIELDS.index(name)][self.size_row]

    @cached_property
    def fanin_net(self) -> np.ndarray:
        """``(n, max_pins)`` net on each input pin, ``-1`` where none."""
        fanins = [cell.fanin_nets for cell in self._cells]
        pin_counts = np.fromiter(map(len, fanins), np.int64, len(fanins))
        matrix = np.full((len(fanins), self._max_pins), -1, dtype=np.int64)
        matrix[np.arange(self._max_pins) < pin_counts[:, None]] = np.fromiter(
            (-1 if net is None else net for pins in fanins for net in pins),
            np.int64,
            int(pin_counts.sum()),
        )
        return matrix

    @cached_property
    def fanout_net(self) -> np.ndarray:
        """``(n,)`` net each cell drives, ``-1`` where none."""
        return np.fromiter(
            (-1 if cell.fanout_net is None else cell.fanout_net for cell in self._cells),
            np.int64,
            len(self._cells),
        )

    def net_hpwls(self) -> np.ndarray:
        """Every net's half-perimeter wirelength (``Netlist.net_hpwl``).

        Max and min are exact, so each value equals the scalar one.
        """
        m = self.num_nets
        if m == 0:
            return np.zeros(0)
        # Pin list per net: its driver, then its sinks.
        heads = self.sink_indptr[:-1] + np.arange(m)
        pins = np.empty(self.sink_cells.size + m, dtype=np.int64)
        pins[heads] = self.net_driver
        is_sink = np.ones(pins.size, dtype=bool)
        is_sink[heads] = False
        pins[is_sink] = self.sink_cells

        def span(coord: np.ndarray) -> np.ndarray:
            at_pins = coord[pins]
            return np.maximum.reduceat(at_pins, heads) - np.minimum.reduceat(
                at_pins, heads
            )

        return span(self.x) + span(self.y)

    def net_load_caps(self) -> np.ndarray:
        """Every net's load cap, bit for bit ``Netlist.net_load_cap`` per net.

        The scalar loop adds sink pin caps in ``net.sinks`` order, so this
        loops over pin position ``k`` across all nets at once: with nets
        ordered by descending fanout, those with more than ``k`` sinks are
        a prefix.
        """
        # Wire caps first: their temporaries are freed before the sink pass.
        wire_caps = (self.parasitic_scale * self.wire_cap_per_um) * self.net_hpwls()
        pin_cap = np.where(
            self.is_outport, self.port_cap, self.size_column("input_cap")
        )
        fanout = np.diff(self.sink_indptr)
        order = np.argsort(-fanout, kind="stable")
        starts = self.sink_indptr[:-1][order]
        more_than = self.num_nets - np.cumsum(np.bincount(fanout))
        sink_caps = np.zeros(self.num_nets)
        for k, count in enumerate(more_than.tolist()):
            if count == 0:
                break
            sink_caps[:count] += pin_cap[self.sink_cells[starts[:count] + k]]
        caps = np.empty_like(sink_caps)
        caps[order] = sink_caps
        return caps + wire_caps


class Netlist:
    """A mutable gate-level netlist bound to a technology library."""

    def __init__(self, name: str, library: Library):
        self.name = name
        self.library = library
        self.cells: List[Cell] = []
        self.nets: List[Net] = []
        self._name_to_cell: Dict[str, int] = {}
        # Per-flop useful-skew flexibility in ns (filled by the generator or
        # user; the useful-skew engine clamps adjustments to ±bound).
        self.skew_bounds: Dict[int, float] = {}
        # Wire-parasitic multiplier applied on top of the library's per-µm
        # coefficients.  1.0 = placement-stage estimates; the full-flow
        # extension raises it at later stages to model extracted parasitics.
        self.parasitic_scale: float = 1.0
        # Monotonic counter bumped by every mutator (add_cell/add_net/
        # connect/resize_cell/insert_buffer).  TimingAnalyzer compares it
        # against the version it last compiled/was notified at, so a
        # mutation that skipped notify_resize()/invalidate() can never be
        # read stale.  restore_netlist_state() bumps it too — a restore is
        # a bulk mutation from the analyzer's point of view.
        self.mutation_version: int = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_cell(self, name: str, cell_type: CellType, size_index: int = 0) -> Cell:
        """Append a cell; names must be unique within the netlist."""
        if name in self._name_to_cell:
            raise ValueError(f"duplicate cell name {name!r}")
        cell_type.size(size_index)  # bounds check
        cell = Cell(index=len(self.cells), name=name, cell_type=cell_type, size_index=size_index)
        self.cells.append(cell)
        self._name_to_cell[name] = cell.index
        self.mutation_version += 1
        return cell

    def add_net(self, name: str, driver: int, sinks: Sequence[Tuple[int, int]] = ()) -> Net:
        """Create a net driven by ``driver``'s output pin."""
        driver_cell = self.cells[driver]
        if driver_cell.is_output_port:
            raise ValueError(f"output port {driver_cell.name!r} cannot drive a net")
        if driver_cell.fanout_net is not None:
            raise ValueError(f"cell {driver_cell.name!r} already drives a net")
        net = Net(index=len(self.nets), name=name, driver=driver)
        self.nets.append(net)
        driver_cell.fanout_net = net.index
        self.mutation_version += 1
        for cell_index, pin in sinks:
            self.connect(net.index, cell_index, pin)
        return net

    def connect(self, net_index: int, cell_index: int, pin: int) -> None:
        """Attach input pin ``pin`` of ``cell_index`` to ``net_index``."""
        net = self.nets[net_index]
        cell = self.cells[cell_index]
        if not 0 <= pin < cell.cell_type.num_inputs:
            raise ValueError(
                f"cell {cell.name!r} ({cell.cell_type.name}) has no input pin {pin}"
            )
        if cell.fanin_nets[pin] is not None:
            raise ValueError(f"input pin {pin} of {cell.name!r} already connected")
        cell.fanin_nets[pin] = net.index
        net.sinks.append((cell_index, pin))
        self.mutation_version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def cell_by_name(self, name: str) -> Cell:
        try:
            return self.cells[self._name_to_cell[name]]
        except KeyError:
            raise KeyError(f"no cell named {name!r} in netlist {self.name!r}") from None

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def endpoints(self) -> List[int]:
        """Indices of all endpoint cells (flops and output ports)."""
        return [c.index for c in self.cells if c.is_endpoint]

    def startpoints(self) -> List[int]:
        """Indices of all startpoint cells (flops and input ports)."""
        return [c.index for c in self.cells if c.is_startpoint]

    def sequential_cells(self) -> List[int]:
        return [c.index for c in self.cells if c.is_sequential]

    def fanin_cells(self, cell_index: int) -> List[int]:
        """Driver cell of each connected input pin."""
        cell = self.cells[cell_index]
        drivers = []
        for net_index in cell.fanin_nets:
            if net_index is not None:
                drivers.append(self.nets[net_index].driver)
        return drivers

    def fanout_cells(self, cell_index: int) -> List[int]:
        """Sink cells of the driven net (empty for output ports)."""
        cell = self.cells[cell_index]
        if cell.fanout_net is None:
            return []
        return [sink_cell for sink_cell, _pin in self.nets[cell.fanout_net].sinks]

    def net_load_cap(self, net_index: int) -> float:
        """Total capacitive load on a net: sink pin caps + wire cap.

        Wire capacitance uses the half-perimeter bounding box of the net's
        pins scaled by the library's per-µm coefficient.
        """
        net = self.nets[net_index]
        cap = 0.0
        for sink_cell, _pin in net.sinks:
            sink = self.cells[sink_cell]
            if sink.is_output_port:
                cap += self.library.default_port_cap
            else:
                cap += sink.size.input_cap
        cap += (
            self.parasitic_scale
            * self.library.wire_cap_per_um
            * self.net_hpwl(net_index)
        )
        return cap

    def net_load_caps(self) -> np.ndarray:
        """Load cap of every net at once (see :meth:`NetlistArrays.net_load_caps`)."""
        return NetlistArrays(self).net_load_caps()

    def net_hpwl(self, net_index: int) -> float:
        """Half-perimeter wirelength of a net's bounding box (µm)."""
        net = self.nets[net_index]
        driver = self.cells[net.driver]
        xs = [driver.x]
        ys = [driver.y]
        for sink_cell, _pin in net.sinks:
            xs.append(self.cells[sink_cell].x)
            ys.append(self.cells[sink_cell].y)
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total_hpwl(self) -> float:
        """Sum of net half-perimeter wirelengths (the placer's objective)."""
        return ordered_sum(NetlistArrays(self).net_hpwls())

    def total_cell_area(self) -> float:
        """Sum of placed cell areas (µm²) — the A in PPA reporting.

        Grows when the data-path optimizer upsizes cells or inserts buffers;
        useful skew leaves it untouched.
        """
        return ordered_sum(NetlistArrays(self).size_column("area"))

    # ------------------------------------------------------------------ #
    # mutation (data-path optimization moves)
    # ------------------------------------------------------------------ #
    def resize_cell(self, cell_index: int, new_size_index: int) -> int:
        """Change a cell's drive strength; returns the previous size index."""
        cell = self.cells[cell_index]
        cell.cell_type.size(new_size_index)  # bounds check
        previous = cell.size_index
        cell.size_index = new_size_index
        self.mutation_version += 1
        return previous

    def insert_buffer(
        self,
        net_index: int,
        sink_subset: Sequence[Tuple[int, int]],
        location: Optional[Tuple[float, float]] = None,
        size_index: int = 0,
    ) -> Cell:
        """Insert a BUF driving ``sink_subset``, detached from ``net_index``.

        The classic fanout-splitting move: the original net keeps the
        remaining sinks plus the new buffer's input; a fresh net routes the
        buffer output to ``sink_subset``.  Returns the new buffer cell.
        """
        net = self.nets[net_index]
        subset = list(sink_subset)
        if not subset:
            raise ValueError("insert_buffer requires a non-empty sink subset")
        current = set(net.sinks)
        for pair in subset:
            if pair not in current:
                raise ValueError(f"sink {pair} is not on net {net.name!r}")
        buf_type = self.library.cell_type("BUF")
        buf = self.add_cell(f"{net.name}_buf{len(self.cells)}", buf_type, size_index)
        if location is None:
            xs = [self.cells[c].x for c, _ in subset]
            ys = [self.cells[c].y for c, _ in subset]
            location = (sum(xs) / len(xs), sum(ys) / len(ys))
        buf.x, buf.y = location
        # Rewire: subset sinks move to the new net.
        moved = set(subset)
        net.sinks = [pair for pair in net.sinks if pair not in moved]
        new_net = Net(index=len(self.nets), name=f"{net.name}_split{len(self.nets)}", driver=buf.index)
        self.nets.append(new_net)
        buf.fanout_net = new_net.index
        for cell_index, pin in subset:
            self.cells[cell_index].fanin_nets[pin] = new_net.index
            new_net.sinks.append((cell_index, pin))
        # Buffer input joins the original net.
        buf.fanin_nets[0] = net.index
        net.sinks.append((buf.index, 0))
        self.mutation_version += 1
        return buf

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, lib={self.library.name}, "
            f"cells={len(self.cells)}, nets={len(self.nets)})"
        )

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)
