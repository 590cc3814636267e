"""Network design points and assembly.

A :class:`NetworkDesign` names one point in the paper's design space
(Table V abbreviations): placement (TB / CP), routing (DOR / CR), full or
checkerboard routers, channel width, VC count, channel slicing into a
dedicated double network, and multi-port MC routers.  ``build`` turns a
design plus a mesh into a :class:`NetworkSystem` — one or two
:class:`~repro.noc.network.MeshNetwork` instances behind the single
interface the closed-loop simulator and open-loop harness drive.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..noc.invariants import (DeadlockError, audit_system,
                              format_system_state)
from ..noc.network import MeshNetwork, NocParams, _StepperContext
from ..noc.packet import Packet, TrafficClass
from ..noc.router import RouterSpec
from ..noc.routing import DorXY, DorYX, Romm2Phase, RoutingAlgorithm
from ..noc.stats import NetworkStats, merge_stats
from ..noc.topology import Coord, Mesh
from ..noc.vc import VcConfig, dedicated_vc_config, shared_vc_config
from .checkerboard_routing import CheckerboardRouting
from .placement import (HALF_ROUTER_PARITY, checkerboard_placement,
                        compute_nodes, top_bottom_placement,
                        validate_checkerboard_placement)


@dataclass(frozen=True)
class NetworkDesign:
    """One NoC design point."""

    name: str
    placement: str = "top_bottom"        # "top_bottom" | "checkerboard"
    routing: str = "dor"                 # "dor" | "cr"
    half_routers: bool = False
    channel_width: int = 16              # bytes; total across all slices
    vcs_per_class: int = 1               # routing VCs per protocol class
    double_network: bool = False         # channel slicing (Section IV-C)
    #: How the two slices carry traffic.  "dedicated" follows the paper's
    #: description (one slice for requests, one for replies — no protocol
    #: VCs needed).  "balanced" lets both slices carry both classes with
    #: protocol VCs in each, splitting packets across slices round-robin;
    #: this keeps the reply path's effective bandwidth equal to the single
    #: network's for the byte-asymmetric many-to-few-to-many traffic.
    slice_mode: str = "dedicated"
    mc_inject_ports: int = 1
    mc_eject_ports: int = 1
    #: How CR picks the two-phase intermediate full-router: "random" (the
    #: paper) or "first" (deterministic; ablation).
    cr_intermediate: str = "random"
    router_latency: int = 4
    half_router_latency: int = 3
    channel_latency: int = 1
    vc_buffer_depth: int = 8
    source_queue_flits: Optional[int] = 16
    mc_coords: Optional[Sequence[Coord]] = None  # override the placement
    #: Self-check knobs (read-only audits; results are bit-identical with
    #: them on or off).  ``check_interval`` > 0 audits flit/credit/VC
    #: invariants every that many cycles; ``watchdog_cycles`` > 0 arms the
    #: deadlock watchdog.  See ``repro.noc.invariants``.
    check_interval: int = 0
    watchdog_cycles: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on the first constraint violation.

        The full rule set (with stable rule names, used by the design-space
        exploration engine to reject illegal points up front) lives in
        :func:`design_constraint_violations`.
        """
        violations = design_constraint_violations(self)
        if violations:
            raise ValueError(violations[0].reason)


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated design-legality rule.

    ``rule`` is a stable kebab-case identifier (safe to match on in tests
    and exploration artifacts); ``reason`` is the human-readable message
    :meth:`NetworkDesign.validate` raises.
    """

    rule: str
    reason: str


def design_constraint_violations(design: NetworkDesign,
                                 mesh: Optional[Mesh] = None,
                                 num_mcs: int = 8
                                 ) -> List[ConstraintViolation]:
    """Every constraint ``design`` violates, each with a named rule.

    With ``mesh`` given, placement feasibility on that mesh is checked too
    (MC capacity, half-router neighborhoods, explicit ``mc_coords``).  The
    design-space exploration engine runs this pass over a whole candidate
    space so illegal axis combinations are rejected up front — with a
    reason — instead of failing (or deadlocking) mid-simulation.
    """
    v: List[ConstraintViolation] = []

    def bad(rule: str, reason: str) -> None:
        v.append(ConstraintViolation(rule, reason))

    if design.placement not in ("top_bottom", "checkerboard"):
        bad("unknown-placement", f"unknown placement {design.placement!r}")
    if design.routing not in ("dor", "dor_yx", "cr", "romm"):
        bad("unknown-routing", f"unknown routing {design.routing!r}")
    if design.slice_mode not in ("dedicated", "balanced"):
        bad("unknown-slice-mode", f"unknown slice mode {design.slice_mode!r}")
    if design.cr_intermediate not in ("random", "first"):
        bad("unknown-cr-intermediate",
            f"unknown CR intermediate policy {design.cr_intermediate!r}")

    if design.routing == "cr":
        if not design.half_routers:
            bad("cr-requires-half-routers",
                "checkerboard routing implies half-routers")
        if design.vcs_per_class < 2:
            bad("cr-needs-two-routing-vcs",
                "CR needs 2 routing VCs per class (XY/YX)")
    if design.routing == "romm":
        if design.half_routers:
            bad("romm-needs-full-routers",
                "ROMM turns anywhere and needs full routers")
        if design.vcs_per_class < 2:
            bad("romm-needs-two-routing-vcs",
                "ROMM needs one routing VC per phase")
    if design.half_routers:
        if design.placement != "checkerboard":
            bad("half-routers-need-checkerboard-placement",
                "half-routers require MCs on half-router tiles, i.e. the "
                "checkerboard placement")
        if design.routing in ("dor", "dor_yx"):
            bad("half-routers-need-checkerboard-routing",
                "half-routers only pass traffic straight through; DOR "
                "turns at arbitrary tiles would strand packets at "
                "half-routers — use checkerboard routing (cr)")
    if design.double_network and design.channel_width % 2:
        bad("slicing-needs-even-channel-width",
            "channel slicing halves the channel width")

    min_width = 2 if design.double_network else 1
    if design.channel_width < min_width:
        bad("positive-channel-width",
            f"channel width must cover every slice, got "
            f"{design.channel_width}")
    if design.vcs_per_class < 1:
        bad("positive-vc-count",
            f"need at least one VC per class, got {design.vcs_per_class}")
    if design.vc_buffer_depth < 1:
        bad("positive-vc-buffer-depth",
            f"VC buffers need at least one flit slot, got "
            f"{design.vc_buffer_depth}")
    if design.mc_inject_ports < 1 or design.mc_eject_ports < 1:
        bad("positive-mc-ports",
            "MC routers need at least one injection and one ejection port")
    if design.router_latency < 1 or design.half_router_latency < 1:
        bad("positive-router-latency",
            "router pipelines need at least one stage")
    if design.channel_latency < 1:
        bad("positive-channel-latency",
            "channels need at least one cycle of latency")
    if design.source_queue_flits is not None \
            and design.source_queue_flits < 1:
        bad("positive-source-queue",
            "bounded source queues need at least one flit slot")

    if mesh is not None:
        v.extend(_placement_violations(design, mesh, num_mcs))
    return v


def _placement_violations(design: NetworkDesign, mesh: Mesh,
                          num_mcs: int) -> List[ConstraintViolation]:
    """Mesh-dependent feasibility rules (placement capacity, half-router
    neighborhoods, explicit MC coordinate overrides)."""
    v: List[ConstraintViolation] = []
    half_tiles = [c for c in mesh.coords()
                  if c.parity() == HALF_ROUTER_PARITY]
    if mesh.num_nodes <= num_mcs:
        v.append(ConstraintViolation(
            "mesh-too-small-for-cores",
            f"{mesh.cols}x{mesh.rows} mesh has no compute tiles left "
            f"after placing {num_mcs} MCs"))
    if design.mc_coords is not None:
        seen = set()
        for mc in design.mc_coords:
            if not mesh.contains(mc):
                v.append(ConstraintViolation(
                    "mc-outside-mesh", f"MC {mc} outside the mesh"))
            elif design.half_routers \
                    and mc.parity() != HALF_ROUTER_PARITY:
                v.append(ConstraintViolation(
                    "mc-on-full-router-tile",
                    f"MC {mc} is on a full-router tile; checkerboard "
                    "requires MCs (and L2 banks) at half-router tiles"))
            if mc in seen:
                v.append(ConstraintViolation(
                    "duplicate-mc", f"duplicate MC placement {mc}"))
            seen.add(mc)
    elif design.placement == "checkerboard":
        if num_mcs > len(half_tiles):
            v.append(ConstraintViolation(
                "checkerboard-placement-capacity",
                f"not enough half-router tiles for the MCs "
                f"({num_mcs} MCs, {len(half_tiles)} tiles)"))
    else:
        per_row, remainder = divmod(num_mcs, 2)
        if per_row + remainder > mesh.cols:
            v.append(ConstraintViolation(
                "top-bottom-placement-capacity",
                f"too many MCs for the top/bottom rows "
                f"({num_mcs} MCs, {mesh.cols} columns)"))
    if design.half_routers:
        stranded = [c for c in half_tiles
                    if not any(n.parity() != HALF_ROUTER_PARITY
                               for _, n in mesh.neighbors(c))]
        if stranded:
            v.append(ConstraintViolation(
                "half-router-neighborhood",
                f"half-router tiles {stranded} have no full-router "
                "neighbor; every half-router needs a legal full-router "
                "neighborhood to turn through"))
    return v


#: ``NetworkDesign`` fields a search space may enumerate over.
MATERIALIZABLE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(NetworkDesign) if f.name != "name")


def materialize_design(name: str, base: Optional[NetworkDesign] = None,
                       **overrides: Any) -> NetworkDesign:
    """Materialize one design point from a base design plus field overrides.

    This is the space→design step of the exploration engine: ``overrides``
    are checked against the :class:`NetworkDesign` schema (unknown fields
    raise immediately, with a did-you-mean suggestion) but the result is
    *not* validated — run :func:`design_constraint_violations` on it, so an
    illegal point is reported with named reasons rather than an exception.
    """
    base = base if base is not None else BASELINE
    unknown = sorted(set(overrides) - MATERIALIZABLE_FIELDS)
    if unknown:
        hint = _did_you_mean(unknown[0], MATERIALIZABLE_FIELDS)
        raise TypeError(
            f"unknown NetworkDesign field(s) {unknown};{hint} "
            f"materializable: {sorted(MATERIALIZABLE_FIELDS)}")
    return replace(base, name=name, **overrides)


def _did_you_mean(name: str, known) -> str:
    """`` did you mean 'x'?`` hint (empty when nothing is close)."""
    matches = difflib.get_close_matches(name, list(known), n=1, cutoff=0.5)
    return f" did you mean {matches[0]!r}?" if matches else ""


class NetworkSystem:
    """One or two physical networks behind a single injection interface."""

    def __init__(self, design: NetworkDesign, mesh: Mesh,
                 networks: List[MeshNetwork], mc_nodes: List[Coord]) -> None:
        self.design = design
        self.mesh = mesh
        self.networks = networks
        self.mc_nodes = list(mc_nodes)
        self.compute_nodes = compute_nodes(mesh, mc_nodes)
        self.cycle = 0
        self._slice_rr = 0
        # Which slices carry each traffic class is static — computed once
        # instead of filtering the slice list per injected packet.
        self._carriers = {}
        if (len(self.networks) == 1
                and all(self.networks[0].vc_config.carries(t)
                        for t in TrafficClass)):
            # Single slice carrying every class: the per-packet dispatch
            # through ``_network_for`` is a no-op — inject directly.
            self.try_inject = self.networks[0].try_inject

    def _network_for(self, packet: Packet) -> MeshNetwork:
        tclass = packet.traffic_class
        carriers = self._carriers.get(tclass)
        if carriers is None:
            carriers = [n for n in self.networks
                        if n.vc_config.carries(tclass)]
            self._carriers[tclass] = carriers
        if not carriers:
            raise ValueError(f"no network carries {packet.traffic_class!r}")
        if len(carriers) == 1:
            return carriers[0]
        # Balanced slicing: spread packets across the slices round-robin.
        self._slice_rr = (self._slice_rr + 1) % len(carriers)
        return carriers[self._slice_rr]

    def try_inject(self, packet: Packet, cycle: int) -> bool:
        return self._network_for(packet).try_inject(packet, cycle)

    def set_ejection_handler(self, coord: Coord,
                             handler: Callable[[Packet, int], None]) -> None:
        for network in self.networks:
            network.set_ejection_handler(coord, handler)

    def step(self, cycle: Optional[int] = None) -> None:
        """Advance every slice one cycle; ``cycle``, when given, must be
        ``self.cycle + 1`` and is checked before any state changes."""
        if cycle is None:
            cycle = self.cycle + 1
        elif cycle != self.cycle + 1:
            raise ValueError(
                f"network system {self.design.name!r} is at cycle "
                f"{self.cycle}; it can only step to {self.cycle + 1}, "
                f"not {cycle}")
        self.cycle = cycle
        for network in self.networks:
            network.step(cycle)

    @property
    def idle(self) -> bool:
        return all(network.idle for network in self.networks)

    @property
    def stats(self) -> NetworkStats:
        if len(self.networks) == 1:
            return self.networks[0].stats
        return merge_stats([n.stats for n in self.networks])

    def enable_checks(self, check_interval: int = 64,
                      watchdog_cycles: int = 0) -> None:
        """Attach the invariant checker to every physical slice."""
        for network in self.networks:
            network.enable_checks(check_interval, watchdog_cycles)

    def enable_tracer(self, tracer) -> None:
        """Attach (or detach) a read-only packet tracer to every slice."""
        for network in self.networks:
            network.enable_tracer(tracer)

    def use_reference_stepper(self) -> None:
        """Switch every slice to the exhaustive-scan stepper (idle-only)."""
        for network in self.networks:
            network.use_reference_stepper()

    def use_batched_stepper(self) -> None:
        """Switch every slice (back) to the batched core (idle-only)."""
        for network in self.networks:
            network.use_batched_stepper()

    @property
    def stepper_backend(self) -> str:
        """Backend every slice runs on (they are switched in lockstep)."""
        backends = {n.stepper_backend for n in self.networks}
        if len(backends) != 1:
            raise RuntimeError(
                f"network slices disagree on the stepper backend: "
                f"{sorted(backends)}")
        return next(iter(backends))

    def use_stepper(self, backend: str):
        """Context manager: run every slice on ``backend``, restoring the
        previous backend on exit (idle-only at both edges, nests)."""
        return _StepperContext(self, backend)

    def audit(self) -> List[str]:
        """Run the full invariant audit on every slice now; returns the
        list of violations (empty = clean)."""
        return audit_system(self)

    def run_until_idle(self, max_cycles: int = 1_000_000) -> int:
        start = self.cycle
        while not self.idle:
            if self.cycle - start > max_cycles:
                raise DeadlockError(
                    f"network system {self.design.name!r} failed to drain "
                    f"within {max_cycles} cycles (deadlock?)\n"
                    + format_system_state(self))
            self.step()
        return self.cycle - start


def mc_placement(design: NetworkDesign, mesh: Mesh,
                 num_mcs: int = 8) -> List[Coord]:
    """MC coordinates for a design: explicit override, staggered
    checkerboard, or the top-bottom baseline."""
    if design.mc_coords is not None:
        mcs = list(design.mc_coords)
    elif design.placement == "checkerboard":
        mcs = checkerboard_placement(mesh, num_mcs)
    else:
        mcs = top_bottom_placement(mesh, num_mcs)
    if design.half_routers:
        validate_checkerboard_placement(mesh, mcs)
    return mcs


def _router_specs(design: NetworkDesign, mesh: Mesh,
                  mcs: Sequence[Coord]) -> Dict[Coord, RouterSpec]:
    mc_set = set(mcs)
    specs = {}
    for coord in mesh.coords():
        half = design.half_routers and coord.parity() == HALF_ROUTER_PARITY
        latency = (design.half_router_latency if half
                   else design.router_latency)
        is_mc = coord in mc_set
        specs[coord] = RouterSpec(
            coord=coord,
            half=half,
            pipeline_latency=latency,
            num_inject_ports=design.mc_inject_ports if is_mc else 1,
            num_eject_ports=design.mc_eject_ports if is_mc else 1,
        )
    return specs


def _make_routing(design: NetworkDesign, mesh: Mesh) -> RoutingAlgorithm:
    if design.routing == "cr":
        return CheckerboardRouting(
            mesh, intermediate_policy=design.cr_intermediate)
    if design.routing == "romm":
        return Romm2Phase(mesh)
    if design.routing == "dor_yx":
        return DorYX(mesh)
    return DorXY(mesh)


def build(design: NetworkDesign, mesh: Optional[Mesh] = None,
          num_mcs: int = 8, seed: int = 1) -> NetworkSystem:
    """Assemble the network(s) described by ``design``."""
    design.validate()
    mesh = mesh if mesh is not None else Mesh(6, 6)
    mcs = mc_placement(design, mesh, num_mcs)
    specs = _router_specs(design, mesh, mcs)
    route_split = design.routing in ("cr", "romm")

    networks: List[MeshNetwork] = []
    if design.double_network:
        width = design.channel_width // 2
        for i in range(2):
            # Section IV-C: the number of VC buffers stays constant across
            # the slicing; each buffer holds the same flit count at half the
            # flit size, so its storage is halved.
            params = NocParams(channel_width=width,
                               vc_buffer_depth=design.vc_buffer_depth,
                               channel_latency=design.channel_latency,
                               source_queue_flits=design.source_queue_flits,
                               check_interval=design.check_interval,
                               watchdog_cycles=design.watchdog_cycles)
            if design.slice_mode == "dedicated":
                tclass = (TrafficClass.REQUEST, TrafficClass.REPLY)[i]
                vc_config = dedicated_vc_config(
                    tclass, num_vcs=design.vcs_per_class,
                    route_split=route_split)
                name = f"{design.name}-{tclass.name.lower()}"
            else:
                vc_config = shared_vc_config(
                    vcs_per_class=design.vcs_per_class,
                    route_split=route_split)
                name = f"{design.name}-slice{i}"
            networks.append(MeshNetwork(
                mesh, specs, params, vc_config,
                _make_routing(design, mesh), seed=seed + i, name=name))
    else:
        params = NocParams(channel_width=design.channel_width,
                           vc_buffer_depth=design.vc_buffer_depth,
                           channel_latency=design.channel_latency,
                           source_queue_flits=design.source_queue_flits,
                           check_interval=design.check_interval,
                           watchdog_cycles=design.watchdog_cycles)
        vc_config = shared_vc_config(vcs_per_class=design.vcs_per_class,
                                     route_split=route_split)
        networks.append(MeshNetwork(mesh, specs, params, vc_config,
                                    _make_routing(design, mesh), seed=seed,
                                    name=design.name))
    return NetworkSystem(design, mesh, networks, mcs)


# ---------------------------------------------------------------------------
# Named design points (Table V abbreviations).
# ---------------------------------------------------------------------------

BASELINE = NetworkDesign(name="TB-DOR")

DOUBLE_BW = replace(BASELINE, name="2x-TB-DOR", channel_width=32)

ONE_CYCLE = replace(BASELINE, name="TB-DOR-1cyc", router_latency=1,
                    half_router_latency=1)

CP_DOR = replace(BASELINE, name="CP-DOR", placement="checkerboard")

CP_DOR_4VC = replace(CP_DOR, name="CP-DOR-4VC", vcs_per_class=2)

CP_CR = replace(CP_DOR, name="CP-CR-4VC", routing="cr", half_routers=True,
                vcs_per_class=2)

# Note on slice_mode: Section IV-C describes a *dedicated* double network
# (one slice per traffic class), but with read replies carrying ~8x the
# request bytes, a dedicated reply slice at half channel width halves the
# usable reply-path bandwidth and cannot reproduce Figure 18's "no change in
# performance".  The named designs therefore default to the load-balanced
# double network; the dedicated variant remains available and is quantified
# by benchmarks/bench_ablation_slicing.py.
#: ROMM on a full-router mesh with checkerboard placement — the related
#: work CR is compared against (same VC budget, pricier routers).
CP_ROMM = replace(CP_DOR_4VC, name="CP-ROMM-4VC", routing="romm")

DOUBLE_CP_CR = replace(CP_CR, name="Double-CP-CR", double_network=True,
                       slice_mode="balanced")

DOUBLE_CP_CR_2P = replace(DOUBLE_CP_CR, name="Double-CP-CR-2P",
                          mc_inject_ports=2)

DOUBLE_CP_CR_2E = replace(DOUBLE_CP_CR, name="Double-CP-CR-2E",
                          mc_eject_ports=2)

DOUBLE_CP_CR_2P2E = replace(DOUBLE_CP_CR, name="Double-CP-CR-2P2E",
                            mc_inject_ports=2, mc_eject_ports=2)

DOUBLE_CP_CR_DEDICATED = replace(CP_CR, name="Double-CP-CR-dedicated",
                                 double_network=True, slice_mode="dedicated")

#: The paper's combined throughput-effective design (Section V, Figure 20):
#: checkerboard placement + checkerboard routing + dedicated double network
#: + 2 injection ports at MC routers.
THROUGHPUT_EFFECTIVE = replace(DOUBLE_CP_CR_2P, name="Throughput-Effective")

NAMED_DESIGNS: Dict[str, NetworkDesign] = {
    d.name: d for d in (
        BASELINE, DOUBLE_BW, ONE_CYCLE, CP_DOR, CP_DOR_4VC, CP_CR,
        CP_ROMM, DOUBLE_CP_CR, DOUBLE_CP_CR_2P, DOUBLE_CP_CR_2E, DOUBLE_CP_CR_2P2E,
        DOUBLE_CP_CR_DEDICATED, THROUGHPUT_EFFECTIVE,
    )
}


def open_loop_variant(design: NetworkDesign) -> NetworkDesign:
    """The same design with unbounded source queues — the open-loop
    convention where source queueing time counts toward packet latency."""
    return replace(design, source_queue_flits=None)


def checked_variant(design: NetworkDesign, check_interval: int = 64,
                    watchdog_cycles: int = 0) -> NetworkDesign:
    """The same design with runtime invariant audits (and optionally the
    deadlock watchdog) enabled.  Audits are read-only: results are
    bit-identical to the unchecked design."""
    return replace(design, check_interval=check_interval,
                   watchdog_cycles=watchdog_cycles)


def design_by_name(name: str) -> NetworkDesign:
    """Look up one of the named design points (Table V abbreviations).

    An unknown name raises ``KeyError`` with a closest-match "did you
    mean?" suggestion, so a CLI typo points at the intended design."""
    try:
        return NAMED_DESIGNS[name]
    except KeyError:
        hint = _did_you_mean(name, NAMED_DESIGNS)
        raise KeyError(
            f"unknown design {name!r};{hint} "
            f"known: {sorted(NAMED_DESIGNS)}"
        ) from None
