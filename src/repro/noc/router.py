"""Cycle-level virtual-channel wormhole router.

Models the paper's baseline router (Table III): input-queued, virtual-channel
flow control with credit-based backpressure, a configurable pipeline depth
(4 stages baseline, 3 for half-routers, 1 for the "aggressive router" study
of Section III-C), iSLIP-style separable switch allocation, input speedup 1.

The pipeline is modelled by a per-flit ready time: a flit entering an input
buffer at cycle ``t`` may not traverse the switch before
``t + pipeline_latency - 1``, so an uncontended hop costs
``pipeline_latency + channel_latency`` cycles (5 for the baseline, matching
Section III-B's "5-cycle per hop delay").

Half-routers (Section IV-A, Figure 13) restrict connectivity: packets may
not change dimension — East connects only to West (and vice versa), North
only to South — while injection and ejection ports connect to everything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from .arbiter import RoundRobinArbiter, SeparableAllocator
from .packet import Flit, Packet, RouteGroup
from .routing import RoutingAlgorithm
from .topology import Coord, Direction, PortId, ejection_port, injection_port
from .vc import VcConfig

MESH_DIRECTIONS = (Direction.NORTH, Direction.SOUTH,
                   Direction.EAST, Direction.WEST)


class RoutingViolation(RuntimeError):
    """Raised when a route would require an illegal turn, e.g. a dimension
    change inside a half-router."""


@dataclass
class RouterSpec:
    """Static description of one router used by network assembly."""

    coord: Coord
    half: bool = False
    pipeline_latency: int = 4
    num_inject_ports: int = 1
    num_eject_ports: int = 1


class _InputVc:
    """State of one input virtual channel."""

    __slots__ = ("buffer", "out_port", "out_vc", "out_pos")

    def __init__(self) -> None:
        self.buffer: Deque[Flit] = deque()
        self.out_port: Optional[PortId] = None   # route computation result
        self.out_vc: Optional[int] = None        # VC allocation result
        #: Position of ``out_port`` in the router's output order, cached by
        #: ``_vc_allocate`` so the switch stage indexes a tuple instead of
        #: hashing a port id every cycle.  Only meaningful while ``out_vc``
        #: is set.
        self.out_pos: int = 0

    def reset_route(self) -> None:
        self.out_port = None
        self.out_vc = None


class _OutputPort:
    """Credit and ownership state for one output port."""

    __slots__ = ("port_id", "credits", "owner", "channel", "sink",
                 "vc_pointers")

    def __init__(self, port_id: PortId, num_vcs: int, buffer_depth: int,
                 channel=None, sink=None) -> None:
        self.port_id = port_id
        self.channel = channel          # mesh channel toward the next router
        self.sink = sink                # terminal ejection sink
        if sink is not None:
            # Terminal ejection: the node always drains, credits unbounded.
            self.credits = [1 << 30] * num_vcs
        else:
            self.credits = [buffer_depth] * num_vcs
        self.owner: List[Optional[Tuple[PortId, int]]] = [None] * num_vcs
        #: One rotation pointer per distinct ``allowed`` set.  A single
        #: shared pointer reused modulo ``len(allowed)`` across different
        #: sets (request vs reply classes, XY vs YX route splits) biases
        #: the rotation and couples the classes to each other.
        self.vc_pointers: Dict[Tuple[int, ...], int] = {}

    def free_vc(self, allowed: Tuple[int, ...]) -> Optional[int]:
        """Pick a free VC among ``allowed``, rotating for fairness."""
        n = len(allowed)
        if n == 1:
            # Single-VC class (the paper's baseline): the rotation pointer
            # is identically 0 mod 1, so the dict bookkeeping is dead.
            vc = allowed[0]
            return vc if self.owner[vc] is None else None
        pointer = self.vc_pointers.get(allowed, 0)
        for offset in range(n):
            vc = allowed[(pointer + offset) % n]
            if self.owner[vc] is None:
                self.vc_pointers[allowed] = (pointer + offset + 1) % n
                return vc
        return None


def full_connectivity(in_port: PortId, out_port: PortId) -> bool:
    """Legal turns of a conventional 5-port mesh router (no U-turns)."""
    if isinstance(in_port, tuple):          # injection port: to anywhere
        return not (isinstance(out_port, tuple) and out_port[0] == "inj")
    if isinstance(out_port, tuple):
        return out_port[0] == "ej"
    # Input ports are named for the side a flit enters on, so a U-turn is
    # out_port == in_port (back toward the neighbor it came from).
    return out_port != in_port


def half_connectivity(in_port: PortId, out_port: PortId) -> bool:
    """Legal connections of a half-router (Figure 13): straight-through on
    each dimension plus full injection/ejection connectivity."""
    if isinstance(in_port, tuple):
        return not (isinstance(out_port, tuple) and out_port[0] == "inj")
    if isinstance(out_port, tuple):
        return out_port[0] == "ej"
    return out_port == in_port.opposite()


class Router:
    """One mesh router instance."""

    def __init__(self, spec: RouterSpec, vc_config: VcConfig,
                 buffer_depth: int, routing: RoutingAlgorithm) -> None:
        # Note: the credit-return delay is owned by the *channel*
        # (``NocParams.credit_delay`` -> ``Channel``); the router has no
        # say in it, so it deliberately takes no such parameter.
        if spec.pipeline_latency < 1:
            raise ValueError(
                f"router at {spec.coord}: pipeline_latency must be >= 1, "
                f"got {spec.pipeline_latency}")
        self.coord = spec.coord
        self.spec = spec
        self.vc_config = vc_config
        self.num_vcs = vc_config.num_vcs
        self.buffer_depth = buffer_depth
        self.routing = routing
        self.pipeline_latency = spec.pipeline_latency
        self.connectivity: Callable[[PortId, PortId], bool] = (
            half_connectivity if spec.half else full_connectivity)

        self.in_ports: Dict[PortId, List[_InputVc]] = {}
        self.out_ports: Dict[PortId, _OutputPort] = {}
        #: Mesh channel feeding each mesh input port (for credit returns).
        self.in_channels: Dict[PortId, object] = {}
        for k in range(spec.num_inject_ports):
            self._add_input(injection_port(k))
        self._eject_ids = tuple(ejection_port(k)
                                for k in range(spec.num_eject_ports))
        self._eject_pointer = 0
        self._allocator: Optional[SeparableAllocator] = None
        self._input_order: Tuple[PortId, ...] = ()
        self._ordered_inputs: Tuple[Tuple[PortId, List[_InputVc]], ...] = ()
        self._va_rotate = 0
        #: Flits currently buffered; routers with zero occupancy are skipped.
        self.occupancy = 0
        #: Opt-in per-hop packet tracer (``repro.telemetry``); ``None``
        #: keeps each event site at a single attribute test.
        self.tracer = None

        #: Position of this router in the network's router list.
        self.net_index = 0
        #: Cycle of the last route/VC-allocation pass.  ``step`` advances
        #: ``_va_rotate`` once per occupied cycle; the batched core skips
        #: idle cycles and replays their increments from this anchor so
        #: the rotation stays bit-identical.
        self._last_step = -1
        self._in_pos: Dict[PortId, int] = {}
        #: First cell index of this router in the batched core's masks
        #: (the cell layout is set by the network at construction).
        self._cell_base = 0

    # -- assembly ----------------------------------------------------------

    def _add_input(self, port_id: PortId) -> None:
        self.in_ports[port_id] = [_InputVc() for _ in range(self.num_vcs)]

    def attach_input_channel(self, direction: Direction, channel) -> None:
        """Attach an incoming mesh channel (flits arrive from a neighbor)."""
        self._add_input(direction)
        self.in_channels[direction] = channel

    def attach_output_channel(self, direction: Direction, channel) -> None:
        self.out_ports[direction] = _OutputPort(
            direction, self.num_vcs, self.buffer_depth, channel=channel)

    def attach_ejection(self, sink) -> None:
        for port_id in self._eject_ids:
            self.out_ports[port_id] = _OutputPort(
                port_id, self.num_vcs, self.buffer_depth, sink=sink)

    def finalize(self) -> None:
        """Build the switch allocator once all ports are attached."""
        self._input_order = tuple(sorted(self.in_ports, key=str))
        # The allocation loops walk the inputs every cycle; resolve the
        # port -> VC-list mapping once instead of per cycle.
        self._ordered_inputs = tuple(
            (port, self.in_ports[port]) for port in self._input_order)
        self._output_order = tuple(sorted(self.out_ports, key=str))
        self._allocator = SeparableAllocator(
            self._input_order, self.num_vcs, self._output_order)
        # Position-indexed views and reused per-cycle scratch for the
        # batched core's grant pass.
        n_in = len(self._input_order)
        self._in_pos = {port: i for i, port in enumerate(self._input_order)}
        self._out_pos = {port: i
                         for i, port in enumerate(self._output_order)}
        self._out_by_pos = tuple(self.out_ports[p]
                                 for p in self._output_order)
        self._in_channel_by_pos = tuple(self.in_channels.get(p)
                                        for p in self._input_order)
        self._req_masks: List[int] = [0] * n_in
        self._req_outs: List[List[int]] = [
            [0] * self.num_vcs for _ in range(n_in)]
        self._req_active: List[int] = []
        self._grant_scratch: List[Tuple[int, int, int]] = []

    # -- runtime -----------------------------------------------------------

    def step(self, cycle: int) -> List[Tuple[Flit, PortId]]:
        """Advance one cycle: route computation, VC allocation, switch
        allocation and traversal.  Returns ejected (flit, port) pairs.

        The exhaustive-scan oracle: every port and VC is walked.  The
        batched core (``repro.noc.batched``) is its twin — any semantic
        change must land in both, and the golden bit-identity tests in
        tests/test_stepper_equivalence.py compare them.
        """
        if self.occupancy == 0:
            return []
        self._route_and_allocate(cycle)
        return self._switch(cycle)

    #: Older name of the same body, still resolved by tools that wrap
    #: the reference router step by name.
    step_reference = step

    # Route/VA stage: full port x VC walk, plain per-call rotation (the
    # scan stepper calls ``step`` every occupied cycle).
    def _route_and_allocate(self, cycle: int) -> None:
        inputs = self._ordered_inputs
        n = len(inputs)
        rotate = self._va_rotate
        self._va_rotate = (rotate + 1) % max(1, n)
        self._last_step = cycle
        for i in range(n):
            in_port, in_vcs = inputs[(i + rotate) % n]
            for in_vc, vc_state in enumerate(in_vcs):
                buf = vc_state.buffer
                if not buf:
                    continue
                head = buf[0]
                if not head.is_head:
                    if vc_state.out_port is None:
                        raise RuntimeError(
                            f"body flit at head of VC without route at "
                            f"{self.coord}: {head!r}")
                    continue
                if head.ready > cycle:
                    continue
                packet = head.packet
                if vc_state.out_port is None:
                    direction = self.routing.next_port(self.coord, packet)
                    if direction is Direction.EJECT:
                        vc_state.out_port = Direction.EJECT
                    else:
                        if not self.connectivity(in_port, direction):
                            raise RoutingViolation(
                                f"illegal turn at {self.coord} "
                                f"({'half' if self.spec.half else 'full'}): "
                                f"{in_port} -> {direction} for packet "
                                f"{packet.src}->{packet.dest} "
                                f"group={packet.group}")
                        vc_state.out_port = direction
                if vc_state.out_vc is None:
                    self._vc_allocate(in_port, in_vc, vc_state, packet,
                                      cycle)

    def _vc_allocate(self, in_port: PortId, in_vc: int, vc_state: _InputVc,
                     packet: Packet, cycle: int) -> None:
        allowed = self.vc_config.allowed_vcs(packet.traffic_class,
                                             packet.group)
        if vc_state.out_port is Direction.EJECT:
            candidates = self._eject_candidates()
        else:
            candidates = (vc_state.out_port,)
        for port_id in candidates:
            out = self.out_ports[port_id]
            vc = out.free_vc(allowed)
            if vc is not None:
                out.owner[vc] = (in_port, in_vc)
                vc_state.out_vc = vc
                vc_state.out_port = port_id
                vc_state.out_pos = self._out_pos[port_id]
                tracer = self.tracer
                if tracer is not None:
                    tracer.on_vc_alloc(packet, self.coord, port_id, vc,
                                       cycle)
                return

    def _eject_candidates(self) -> Tuple[PortId, ...]:
        ids = self._eject_ids
        if len(ids) == 1:
            return ids
        p = self._eject_pointer
        self._eject_pointer = (p + 1) % len(ids)
        return ids[p:] + ids[:p]

    # Switch stage: dict-keyed requests via ``allocate``.
    def _switch(self, cycle: int) -> List[Tuple[Flit, PortId]]:
        requests: Dict[PortId, Dict[int, PortId]] = {}
        for in_port, in_vcs in self._ordered_inputs:
            vc_requests: Dict[int, PortId] = {}
            for vc_idx, vc_state in enumerate(in_vcs):
                if vc_state.out_vc is None or not vc_state.buffer:
                    continue
                flit = vc_state.buffer[0]
                if flit.ready > cycle:
                    continue
                out = self.out_ports[vc_state.out_port]
                if out.credits[vc_state.out_vc] <= 0:
                    continue
                vc_requests[vc_idx] = vc_state.out_port
            if vc_requests:
                requests[in_port] = vc_requests

        ejected: List[Tuple[Flit, PortId]] = []
        if not requests:
            return ejected
        tracer = self.tracer
        for in_port, vc_idx, out_port_id in self._allocator.allocate(requests):
            vc_state = self.in_ports[in_port][vc_idx]
            flit = vc_state.buffer.popleft()
            self.occupancy -= 1
            out = self.out_ports[out_port_id]
            out_vc = vc_state.out_vc
            out.credits[out_vc] -= 1
            if tracer is not None and flit.is_head:
                tracer.on_switch(flit.packet, self.coord, out_port_id, cycle)
            if out.sink is not None:
                ejected.append((flit, out_port_id))
            else:
                out.channel.send_flit(flit, out_vc, cycle)
            # Return a credit upstream for the freed buffer slot.
            channel = self.in_channels.get(in_port)
            if channel is not None:
                channel.send_credit(vc_idx, cycle)
            if flit.is_tail:
                out.owner[out_vc] = None
                vc_state.reset_route()
        return ejected
