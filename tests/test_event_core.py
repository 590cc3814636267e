"""Determinism contract of the default cycle loops.

The default steppers (the batched core in ``MeshNetwork.step``,
wake-gated components in ``Accelerator.step``) must produce results that
are bit-identical to the reference exhaustive scans
(``use_reference_stepper`` / ``REPRO_REFERENCE_STEPPER=1``).  These golden
tests pin that contract across the design space — baseline DOR,
checkerboard routing, and the channel-sliced double network — at low and
saturated load over longer windows than tests/test_stepper_equivalence.py,
with the invariant checker and the packet tracer both off and on.  They
also pin the precomputed ``VcConfig`` tables against their dynamic oracle
and the ``__slots__`` layout of Packet/Flit.
"""

import dataclasses

import pytest

from repro.core.builder import (build, checked_variant, design_by_name,
                                open_loop_variant)
from repro.noc.openloop import OpenLoopRunner
from repro.noc.packet import (Flit, Packet, RouteGroup, TrafficClass,
                              read_request)
from repro.noc.topology import Coord, Mesh
from repro.noc.traffic import UniformManyToFew
from repro.noc.vc import VcConfig, dedicated_vc_config, shared_vc_config
from repro.system.accelerator import build_chip
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.profiles import profile

#: Baseline, checkerboard routing, channel-sliced double network.
DESIGNS = ("TB-DOR", "CP-CR-4VC", "Double-CP-CR")
#: Well below and well past saturation of the 6x6 baseline mesh.
RATES = (0.02, 0.30)

WARMUP, MEASURE = 150, 300


def _open_point(design_name, rate, *, reference=False, checked=False,
                traced=False, seed=11):
    design = open_loop_variant(design_by_name(design_name))
    if checked:
        design = checked_variant(design, check_interval=32,
                                 watchdog_cycles=20_000)
    system = build(design, Mesh(6, 6), num_mcs=8, seed=seed)
    if reference:
        system.use_reference_stepper()
    hub = None
    if traced:
        hub = TelemetryHub(TelemetrySpec(trace=True))
        hub.attach_network(system)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=seed)
    point = runner.run(warmup=WARMUP, measure=MEASURE)
    return point.to_json(), hub


@pytest.mark.parametrize("design_name", DESIGNS)
@pytest.mark.parametrize("rate", RATES)
def test_open_loop_bit_identity(design_name, rate):
    """Default (batched) stepper == reference scan, with checker/tracer
    off and on.

    The checked and traced legs run under the default stepper (the code
    under test); instrumentation must not perturb results either.
    """
    oracle, _ = _open_point(design_name, rate, reference=True)
    plain, _ = _open_point(design_name, rate)
    assert plain == oracle
    checked, _ = _open_point(design_name, rate, checked=True)
    assert checked == oracle
    traced, hub = _open_point(design_name, rate, traced=True)
    assert traced == oracle
    assert hub.tracer.completed, "tracer saw no packets"


@pytest.mark.parametrize("design_name", ("TB-DOR", "Double-CP-CR"))
def test_closed_loop_bit_identity(design_name):
    """Accelerator default step == exhaustive twin on a finite kernel whose
    drained tail exercises the idle fast paths (finished cores, idle MCs
    and DRAM channels, empty networks)."""

    def run(reference):
        chip = build_chip(profile("BIN"), design=design_by_name(design_name),
                          seed=11, instructions_per_warp=8)
        if reference:
            chip.use_reference_stepper()
        else:
            chip.enable_checks(64)
        return chip.run(warmup=100, measure=900).to_json()

    assert run(False) == run(True)


def test_reference_stepper_env_var(monkeypatch):
    """``REPRO_REFERENCE_STEPPER=1`` selects the exhaustive loops at
    construction time, for both the chip and its networks."""
    monkeypatch.setenv("REPRO_REFERENCE_STEPPER", "1")
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=11, instructions_per_warp=8)
    assert chip._reference
    for net in chip.network.networks:
        assert net._scan_stepper
    monkeypatch.delenv("REPRO_REFERENCE_STEPPER")
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=11, instructions_per_warp=8)
    assert not chip._reference


# -- VcConfig precomputed tables ------------------------------------------

VC_CONFIGS = (
    shared_vc_config(1),
    shared_vc_config(2),
    shared_vc_config(2, route_split=True),
    shared_vc_config(4, route_split=True),
    dedicated_vc_config(TrafficClass.REQUEST, 2),
    dedicated_vc_config(TrafficClass.REPLY, 4, route_split=True),
)


@pytest.mark.parametrize("config", VC_CONFIGS,
                         ids=lambda c: f"{len(c.class_map)}cls-"
                                       f"{c.vcs_per_class}vc-"
                                       f"{'split' if c.route_split else 'any'}")
def test_vc_config_tables_match_dynamic_oracle(config):
    """The memoized ``allowed_vcs`` tables equal the reference computation
    for every (carried class, route group) combination."""
    for tclass, _ in config.class_map:
        for group in RouteGroup:
            assert config.allowed_vcs(tclass, group) == \
                config._dynamic_allowed_vcs(tclass, group)


def test_vc_config_tables_preserve_errors():
    """Combinations the tables skip still raise lazily, exactly as the
    dynamic path always did."""
    dedicated = dedicated_vc_config(TrafficClass.REQUEST, 2)
    with pytest.raises(ValueError, match="does not carry"):
        dedicated.allowed_vcs(TrafficClass.REPLY, RouteGroup.ANY)
    narrow = VcConfig(vcs_per_class=1,
                      class_map=((TrafficClass.REQUEST, 0),),
                      route_split=True)
    # ANY is legal with one VC per class; the split groups are not.
    assert narrow.allowed_vcs(TrafficClass.REQUEST, RouteGroup.ANY) == (0,)
    with pytest.raises(ValueError, match="at least 2 VCs"):
        narrow.allowed_vcs(TrafficClass.REQUEST, RouteGroup.XY)


# -- Packet/Flit slots -----------------------------------------------------

def test_packet_and_flit_are_slotted():
    """Packets and flits are the highest-volume objects in a run; the
    ``__slots__`` layout (no per-instance ``__dict__``) is part of the
    cycle core's memory/performance contract."""
    packet = read_request(Coord(0, 0), Coord(1, 1))
    flits = packet.make_flits(16)
    assert not hasattr(packet, "__dict__")
    assert not hasattr(flits[0], "__dict__")
    with pytest.raises(AttributeError):
        packet.scratch = 1
    with pytest.raises(AttributeError):
        flits[0].scratch = 1
    # Field access and dataclass tooling still work on the slotted layout.
    assert flits[0].is_head and flits[-1].is_tail
    assert [f.name for f in dataclasses.fields(Flit)] == \
        ["packet", "index", "is_head", "is_tail", "ready"]
    assert "pid" in [f.name for f in dataclasses.fields(Packet)]
