"""Bitwise equivalence of the array-backed whole-design passes.

``compile_timing``, ``Netlist.net_load_caps``, ``report_power``,
``Netlist.total_hpwl`` and ``Netlist.total_cell_area`` run over one
struct-of-arrays view (``NetlistArrays``).  The references below are the
per-cell loops those passes replaced; they live only here.  Every result
must match its reference bit for bit, not within a tolerance.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.benchsuite.scale import fast_design
from repro.ccd import flow as flow_module
from repro.ccd.datapath_opt import DatapathConfig
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.core import Netlist, NetlistArrays
from repro.netlist.generator import GeneratorConfig, quick_design
from repro.netlist.library import get_library
from repro.placement.global_place import PlacementConfig, place_design
from repro.power import models as power_models
from repro.power.models import PowerReport, report_power
from repro.timing import sta
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import CompiledTiming, TimingAnalyzer, compile_timing

DERATES = (0.92, 1.0, 1.08)


# ---------------------------------------------------------------------- #
# scalar references
# ---------------------------------------------------------------------- #
def reference_compile(netlist: Netlist, derate: float = 1.0) -> CompiledTiming:
    """The per-cell compile loop, with ``net_load_cap`` per driven net."""
    n = netlist.num_cells
    max_pins = max((c.cell_type.num_inputs for c in netlist.cells), default=1)
    max_pins = max(max_pins, 1)
    fanin_idx = np.full((n, max_pins), -1, dtype=np.int64)
    fanin_wire = np.zeros((n, max_pins), dtype=np.float64)
    load_cap = np.zeros(n, dtype=np.float64)
    intrinsic = np.zeros(n)
    drive_res = np.zeros(n)
    slew_sens = np.zeros(n)
    slew_intr = np.zeros(n)
    slew_load = np.zeros(n)
    is_flop = np.zeros(n, dtype=bool)
    is_inport = np.zeros(n, dtype=bool)
    is_outport = np.zeros(n, dtype=bool)
    clk_to_q = np.zeros(n)
    setup = np.zeros(n)
    hold = np.zeros(n)
    wire_coeff = (
        derate * netlist.parasitic_scale * netlist.library.wire_res_delay_per_um
    )
    for cell in netlist.cells:
        i = cell.index
        size = cell.size
        intrinsic[i] = derate * size.intrinsic_delay
        drive_res[i] = derate * size.drive_resistance
        slew_sens[i] = size.slew_sensitivity
        slew_intr[i] = derate * size.slew_intrinsic
        slew_load[i] = derate * size.slew_load_factor
        is_flop[i] = cell.is_sequential
        is_inport[i] = cell.is_input_port
        is_outport[i] = cell.is_output_port
        if cell.is_sequential:
            clk_to_q[i] = derate * cell.cell_type.clk_to_q
            setup[i] = cell.cell_type.setup_time
            hold[i] = cell.cell_type.hold_time
        for pin, net_index in enumerate(cell.fanin_nets):
            if net_index is None:
                continue
            driver = netlist.nets[net_index].driver
            fanin_idx[i, pin] = driver
            driver_cell = netlist.cells[driver]
            dist = abs(driver_cell.x - cell.x) + abs(driver_cell.y - cell.y)
            fanin_wire[i, pin] = wire_coeff * dist
        if cell.fanout_net is not None:
            load_cap[i] = netlist.net_load_cap(cell.fanout_net)

    sink_rows, sink_pins = np.nonzero(fanin_idx != -1)
    edge_drivers = fanin_idx[sink_rows, sink_pins]
    order = np.argsort(edge_drivers, kind="stable")
    fanout_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_drivers, minlength=n), out=fanout_indptr[1:])
    levels = sta._levelize(n, sink_rows, edge_drivers, is_flop, is_inport)
    level_of = np.zeros(n, dtype=np.int64)
    for k, level_cells in enumerate(levels):
        level_of[level_cells] = k
    endpoint_cells = np.array(netlist.endpoints(), dtype=np.int64)
    ep_pos = np.full(n, -1, dtype=np.int64)
    ep_pos[endpoint_cells] = np.arange(endpoint_cells.size, dtype=np.int64)
    is_src = is_flop | is_inport
    return CompiledTiming(
        netlist=netlist,
        levels=levels,
        fanin_idx=fanin_idx,
        fanin_wire_delay=fanin_wire,
        load_cap=load_cap,
        intrinsic=intrinsic,
        drive_res=drive_res,
        slew_sens=slew_sens,
        slew_intr=slew_intr,
        slew_load=slew_load,
        is_flop=is_flop,
        is_inport=is_inport,
        is_outport=is_outport,
        is_src=is_src,
        is_comb=~(is_src | is_outport),
        is_ep=is_flop | is_outport,
        clk_to_q=clk_to_q,
        setup=setup,
        hold=hold,
        endpoint_cells=endpoint_cells,
        level_of=level_of,
        ep_pos=ep_pos,
        fanout_indptr=fanout_indptr,
        fanout_indices=sink_rows[order].astype(np.int64, copy=False),
        fanout_wire_delay=fanin_wire[sink_rows, sink_pins][order],
        derate=derate,
    )


def reference_power(netlist: Netlist, clock: ClockModel) -> PowerReport:
    """Per-cell and per-net power terms, summed left to right."""
    frequency = 1.0 / clock.period
    internal = 0.0
    leakage = 0.0
    for cell in netlist.cells:
        internal += power_models.cell_internal_power(netlist, cell.index)
        leakage += power_models.cell_leakage_power(netlist, cell.index)
    switching = 0.0
    for net_index in range(netlist.num_nets):
        switching += power_models.net_switching_power(netlist, net_index, frequency)
    return PowerReport(internal=internal, leakage=leakage, switching=switching)


def reference_total_hpwl(netlist: Netlist) -> float:
    total = 0.0
    for net_index in range(netlist.num_nets):
        total += netlist.net_hpwl(net_index)
    return total


def reference_total_cell_area(netlist: Netlist) -> float:
    total = 0.0
    for cell in netlist.cells:
        total += cell.size.area
    return total


# ---------------------------------------------------------------------- #
# bitwise comparison
# ---------------------------------------------------------------------- #
def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def assert_compiled_identical(got: CompiledTiming, want: CompiledTiming) -> None:
    for field in dataclasses.fields(CompiledTiming):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        if field.name == "netlist":
            assert a is b
        elif field.name == "levels":
            assert len(a) == len(b)
            for k, (x, y) in enumerate(zip(a, b)):
                assert _same_array(x, y), f"level {k} differs"
        elif isinstance(b, np.ndarray):
            assert _same_array(a, b), f"CompiledTiming.{field.name} differs"
        else:
            assert a == b, field.name


def assert_power_identical(got: PowerReport, want: PowerReport) -> None:
    for name in ("internal", "leakage", "switching"):
        assert _same_float(getattr(got, name), getattr(want, name)), name


def assert_passes_identical(netlist: Netlist, period: float = 0.8) -> None:
    for derate in DERATES:
        assert_compiled_identical(
            compile_timing(netlist, derate=derate), reference_compile(netlist, derate)
        )
    want_caps = np.array(
        [netlist.net_load_cap(j) for j in range(netlist.num_nets)], dtype=np.float64
    )
    assert _same_array(netlist.net_load_caps(), want_caps)
    clock = ClockModel.for_netlist(netlist, period)
    assert_power_identical(report_power(netlist, clock), reference_power(netlist, clock))
    assert _same_float(netlist.total_hpwl(), reference_total_hpwl(netlist))
    assert _same_float(netlist.total_cell_area(), reference_total_cell_area(netlist))


# ---------------------------------------------------------------------- #
# designs
# ---------------------------------------------------------------------- #
def _generated() -> Netlist:
    netlist = quick_design(name="arrays_gen", n_cells=500, seed=13)
    place_design(netlist, PlacementConfig(seed=4))
    return netlist


def _fast() -> Netlist:
    return fast_design(
        GeneratorConfig(name="arrays_fast", n_cells=3000, n_inputs=75, n_outputs=50, seed=4)
    )


def _hand_built() -> Netlist:
    """Output-port sinks, an unconnected (``None``) fan-in pin and a
    sinkless net, on uneven placements."""
    lib = get_library("tech12")
    nl = Netlist("hand", lib)
    a = nl.add_cell("a", lib.cell_type("INPORT"))
    b = nl.add_cell("b", lib.cell_type("INPORT"))
    g = nl.add_cell("g", lib.cell_type("NAND2"), size_index=2)
    m = nl.add_cell("m", lib.cell_type("MUX2"), size_index=1)
    ff = nl.add_cell("ff", lib.cell_type("DFF"), size_index=1)
    y = nl.add_cell("y", lib.cell_type("OUTPORT"))
    z = nl.add_cell("z", lib.cell_type("OUTPORT"))
    places = [(0, 3), (0.5, 9.25), (4.1, 2), (7, 7.3), (6.2, 1.1), (11, 4), (12.5, 8)]
    for cell, (px, py) in zip(nl.cells, places):
        cell.x, cell.y = px, py
        cell.toggle_rate = 0.05 + 0.1 * cell.index
    nl.add_net("na", a.index, [(g.index, 0), (m.index, 2)])
    nl.add_net("nb", b.index)  # no sinks
    nl.add_net("ng", g.index, [(ff.index, 0), (m.index, 0), (y.index, 0)])
    nl.add_net("nff", ff.index, [(m.index, 1)])
    nl.add_net("nm", m.index, [(z.index, 0)])
    # g's pin 1 stays unconnected.
    assert g.fanin_nets == [0, None]
    return nl


@pytest.fixture(params=["generate_design", "fast_design", "hand_built"])
def design(request) -> Netlist:
    return {"generate_design": _generated, "fast_design": _fast, "hand_built": _hand_built}[
        request.param
    ]()


class TestArrayPassesMatchScalar:
    def test_fresh_design(self, design):
        assert any(
            design.cells[sink].is_output_port
            for net in design.nets
            for sink, _pin in net.sinks
        )
        assert_passes_identical(design)

    @pytest.mark.parametrize("scale", [0.83, 2.2])
    def test_parasitic_scale(self, design, scale):
        design.parasitic_scale = scale
        assert_passes_identical(design)

    def test_after_resizes_and_toggle_edits(self, design):
        rng = np.random.default_rng(3)
        for index in rng.choice(design.num_cells, size=min(40, design.num_cells), replace=False):
            cell = design.cells[int(index)]
            design.resize_cell(cell.index, int(rng.integers(0, cell.cell_type.max_size_index + 1)))
            cell.toggle_rate = float(rng.random())
        assert_passes_identical(design)

    def test_after_insert_buffer(self, design):
        net = max(design.nets, key=lambda n: n.fanout)
        design.insert_buffer(net.index, net.sinks[: max(1, net.fanout // 2)])
        design.insert_buffer(net.index, net.sinks[-1:], location=(1.5, 2.25), size_index=3)
        assert_passes_identical(design)

    def test_after_restore(self, design):
        before = compile_timing(design, derate=1.08)
        state = snapshot_netlist_state(design)
        net = max(design.nets, key=lambda n: n.fanout)
        design.insert_buffer(net.index, net.sinks[:1])
        for cell in design.cells:
            if cell.sizing_headroom > 0:
                design.resize_cell(cell.index, cell.size_index + 1)
        restore_netlist_state(design, state)
        assert_passes_identical(design)
        assert_compiled_identical(compile_timing(design, derate=1.08), before)

    def test_empty_netlist(self):
        nl = Netlist("empty", get_library("tech7"))
        assert_passes_identical(nl)
        assert nl.net_load_caps().shape == (0,)


class TestArrayView:
    def test_invalid_size_index_raises(self):
        nl = _hand_built()
        nl.cells[2].size_index = 99  # written directly, as the generators do
        with pytest.raises(IndexError):
            NetlistArrays(nl)

    def test_view_is_a_fresh_copy(self):
        nl = _hand_built()
        view = NetlistArrays(nl)
        nl.cells[2].x = 100.0
        assert view.x[2] == pytest.approx(4.1)
        assert NetlistArrays(nl).x[2] == 100.0

    def test_sink_csr_keeps_net_order(self):
        nl = _hand_built()
        view = NetlistArrays(nl)
        for j, net in enumerate(nl.nets):
            sinks = view.sink_cells[view.sink_indptr[j] : view.sink_indptr[j + 1]]
            assert sinks.tolist() == [c for c, _ in net.sinks]
            assert view.net_driver[j] == net.driver
        assert view.fanin_net[2].tolist() == [0, -1, -1]


def _buffering_design():
    """A placed design whose cells are all at maximum size, so the
    data-path optimizer can only split nets."""
    netlist = quick_design(name="arrays_flow", n_cells=400, seed=5)
    place_design(netlist, PlacementConfig(seed=2))
    for cell in netlist.cells:
        if not cell.cell_type.is_port:
            netlist.resize_cell(cell.index, cell.cell_type.max_size_index)
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    config = FlowConfig(
        clock_period=period, datapath=DatapathConfig(buffer_fanout_threshold=3)
    )
    return netlist, config


class TestFlowMatchesScalar:
    def test_flow_with_buffer_insertion(self, monkeypatch):
        netlist, config = _buffering_design()
        state = snapshot_netlist_state(netlist)
        got = run_flow(netlist, config)
        assert got.datapath_result.buffer_moves > 0
        restore_netlist_state(netlist, state)

        monkeypatch.setattr(sta, "compile_timing", reference_compile)
        monkeypatch.setattr(flow_module, "report_power", reference_power)
        want = run_flow(netlist, config)

        assert got.datapath_result.buffer_moves == want.datapath_result.buffer_moves
        assert_power_identical(got.begin_power, want.begin_power)
        assert_power_identical(got.final_power, want.final_power)
        assert _same_float(got.tns, want.tns)
        assert _same_float(got.wns, want.wns)
        assert got.nve == want.nve
