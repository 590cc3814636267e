"""Mesh network assembly and the cycle loop.

A :class:`MeshNetwork` owns routers, channels, per-node injection source
queues and packet reassembly at ejection.  The closed-loop accelerator model
and the open-loop harness both drive it through the same small interface:

* ``try_inject(packet, cycle)`` — queue a packet at its source node's
  network interface; fails (returns ``False``) when the bounded source queue
  is full, which is how memory-controller stalls (Figure 11) arise.
* ``set_ejection_handler(coord, fn)`` — callback invoked with each fully
  reassembled packet.
* ``step(cycle)`` — advance one interconnect clock.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .batched import BatchedCore
from .channel import Channel
from .invariants import DeadlockError, InvariantChecker, format_network_state
from .packet import Flit, Packet
from .router import Router, RouterSpec
from .routing import RoutingAlgorithm
from .stats import NetworkStats
from .topology import Coord, Direction, Mesh, injection_port
from .vc import VcConfig


@dataclass(frozen=True)
class NocParams:
    """Physical parameters of one network (Table III)."""

    channel_width: int = 16          # bytes per flit
    vc_buffer_depth: int = 8         # flits per VC
    channel_latency: int = 1
    credit_delay: int = 1
    #: Capacity of each node's injection source queue in flits.  ``None``
    #: means unbounded (open-loop convention: queueing time is part of
    #: packet latency).  Closed-loop runs use a small bound so that a backed
    #: up reply network stalls the memory controller.
    source_queue_flits: Optional[int] = 16
    #: Run the full invariant audit every this many cycles (0 = off).
    #: Audits are read-only, so results are bit-identical with or without.
    check_interval: int = 0
    #: Raise :class:`~repro.noc.invariants.DeadlockError` with a state dump
    #: if no flit moves for this many consecutive non-idle cycles (0 = off).
    watchdog_cycles: int = 0


#: Backend name -> switch method, shared by the ``use_stepper`` context
#: managers of ``MeshNetwork``, ``NetworkSystem`` and ``Accelerator``.
STEPPER_SWITCHES = {
    "reference": "use_reference_stepper",
    "batched": "use_batched_stepper",
}


class _StepperContext:
    """Re-entrant backend switch: applies ``backend`` on entry, restores
    whatever was active before on exit.  Works on any object exposing
    ``stepper_backend`` and the ``use_*_stepper`` methods."""

    def __init__(self, target, backend: str) -> None:
        if backend not in STEPPER_SWITCHES:
            raise ValueError(
                f"unknown stepper backend {backend!r}; "
                f"known: {sorted(STEPPER_SWITCHES)}")
        self._target = target
        self._backend = backend
        self._previous: Optional[str] = None

    def __enter__(self):
        self._previous = self._target.stepper_backend
        getattr(self._target, STEPPER_SWITCHES[self._backend])()
        return self._target

    def __exit__(self, *exc) -> bool:
        getattr(self._target, STEPPER_SWITCHES[self._previous])()
        return False


class _SourcePort:
    """Injection state machine for one injection port of a node.

    Writes at most one flit per cycle into the router's injection buffer,
    keeping each packet contiguous within its chosen VC.
    """

    __slots__ = ("port_id", "fifo", "flits", "vc", "states", "cell",
                 "state", "bit")

    def __init__(self, port_id, states, cell: int) -> None:
        self.port_id = port_id
        self.fifo: Deque[Packet] = deque()
        self.flits: Optional[Deque[Flit]] = None
        self.vc: Optional[int] = None
        #: The router's input VCs behind this port and the cell index of
        #: its VC 0 (static); ``state``/``bit`` are the draining packet's
        #: VC and screen bit, set with ``vc``.
        self.states = states
        self.cell = cell
        self.state = None
        self.bit = 0


class MeshNetwork:
    """A single physical 2D-mesh network."""

    def __init__(self, mesh: Mesh, specs: Dict[Coord, RouterSpec],
                 params: NocParams, vc_config: VcConfig,
                 routing: RoutingAlgorithm, seed: int = 1,
                 name: str = "net") -> None:
        self.mesh = mesh
        self.params = params
        # Injection-path constants (``params`` is immutable after build).
        self._channel_width = params.channel_width
        self._source_cap = params.source_queue_flits
        self.vc_config = vc_config
        self.routing = routing
        # Bound once; never reassigned.  ``None`` marks routings whose
        # ``plan`` writes exactly the Packet routing-state defaults, so the
        # injection hot path can skip the call for freshly built packets.
        self._plan = (None if routing.plan_writes_defaults
                      else routing.plan)
        self.name = name
        self.cycle = 0
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        self._handlers: Dict[Coord, Callable[[Packet, int], None]] = {}
        self._reassembly: Dict[int, int] = {}

        #: Link calendars ``{due_cycle: [event, ...]}`` holding every flit
        #: and credit in flight (see ``repro.noc.channel``).  A bucket
        #: exists only while non-empty and is popped on its due cycle.
        self._flit_cal: Dict[int, List[tuple]] = {}
        self._credit_cal: Dict[int, List[tuple]] = {}
        #: True while any router may hold buffered flits; cleared by a full
        #: scan that finds every router empty (reference stepper only).
        self._routers_active = False
        #: Total flits queued across all source ports (all nodes).
        self._source_flits = 0
        #: Total flits buffered inside routers (maintained by both steppers;
        #: makes ``idle`` O(1)).
        self._buffered_flits = 0
        #: The batched core (``repro.noc.batched``) is the default router
        #: phase; ``REPRO_REFERENCE_STEPPER=1`` (or, at idle,
        #: ``use_reference_stepper``) selects the exhaustive-scan oracle.
        self._scan_stepper = os.environ.get(
            "REPRO_REFERENCE_STEPPER") == "1"
        self._batched: Optional[BatchedCore] = None

        self.routers: Dict[Coord, Router] = {}
        self.channels: List[Channel] = []
        for coord in mesh.coords():
            spec = specs.get(coord, RouterSpec(coord))
            if spec.coord != coord:
                raise ValueError(f"spec coord {spec.coord} placed at {coord}")
            router = Router(spec, vc_config, params.vc_buffer_depth, routing)
            router.attach_ejection(sink=self)
            self.routers[coord] = router

        for coord, router in self.routers.items():
            for direction, neighbor in mesh.neighbors(coord):
                channel = Channel(params.channel_latency, params.credit_delay)
                dst = self.routers[neighbor]
                dst_port = direction.opposite()
                channel.connect(router, direction, dst, dst_port)
                router.attach_output_channel(direction, channel)
                dst.attach_input_channel(dst_port, channel)
                self.channels.append(channel)

        self._router_list: Tuple[Router, ...] = tuple(self.routers.values())
        # Cell layout of the batched core's masks: one cell per (router,
        # input port, VC), routers in mesh order, each router's cells
        # contiguous (input-position major, VC minor).  Static, so the
        # channel sinks below can carry their cell bits.
        num_vcs = vc_config.num_vcs
        cells = 0
        for idx, router in enumerate(self._router_list):
            router.net_index = idx
            router.finalize()
            router._cell_base = cells
            cells += len(router._input_order) * num_vcs
        for channel in self.channels:
            dst = channel.dst_router
            base = (dst._cell_base
                    + dst._in_pos[channel.dst_port] * num_vcs)
            states = dst.in_ports[channel.dst_port]
            out = channel.src_router.out_ports[channel.src_port]
            channel.bind(
                self._flit_cal, self._credit_cal,
                tuple((channel, vc, dst, states[vc], 1 << (base + vc),
                       channel.dst_port) for vc in range(num_vcs)),
                tuple((out.credits, out.owner, vc, channel.src_router,
                       channel) for vc in range(num_vcs)))
        self._latency = params.channel_latency
        self._credit_delay = params.credit_delay
        if not self._scan_stepper:
            self._batched = BatchedCore(self)

        #: Source-side state is indexed by node row (mesh order, equal to
        #: ``Router.net_index``): plain-list indexing keeps the per-cycle
        #: drain loop and ``try_inject`` off the Coord-hashing path.
        #: ``_sources`` stays as the coord-keyed view for audits/tests.
        self._sources: Dict[Coord, List[_SourcePort]] = {}
        self._node_index: Dict[Coord, int] = {}
        self._source_rows: List[Tuple[Coord, List[_SourcePort], Router]] = []
        self._source_occ: List[int] = []
        self._source_rr: List[int] = []
        #: Per node, its sole source port when it has exactly one (the
        #: common case) — lets ``try_inject`` skip the round-robin walk.
        self._source_only: List[Optional[_SourcePort]] = []
        #: Batched stepper only: nodes whose last drain pass moved nothing.
        #: A fruitless pass has no side effects, and its outcome can only
        #: change when a grant pops a flit out of an injection-port buffer
        #: (space frees) or a fresh packet becomes the head of an idle
        #: source port — both of which clear the flag.  The scan stepper
        #: never sets it (it re-attempts every cycle).
        self._source_stuck: List[bool] = []
        for idx, coord in enumerate(mesh.coords()):
            router = self.routers[coord]
            ports = []
            for k in range(router.spec.num_inject_ports):
                port_id = injection_port(k)
                ports.append(_SourcePort(
                    port_id, router.in_ports[port_id],
                    router._cell_base
                    + router._in_pos[port_id] * num_vcs))
            self._sources[coord] = ports
            self._node_index[coord] = idx
            self._source_rows.append((coord, ports, router))
            self._source_occ.append(0)
            self._source_rr.append(0)
            self._source_only.append(ports[0] if len(ports) == 1 else None)
            self._source_stuck.append(False)

        #: Opt-in invariant checker; ``None`` keeps the hot path at a
        #: single attribute test per cycle.
        self.checker: Optional[InvariantChecker] = None
        #: Opt-in packet tracer (``repro.telemetry``); attached via
        #: :meth:`enable_tracer`, ``None`` keeps each event site at a
        #: single attribute test.
        self.tracer = None
        if params.check_interval or params.watchdog_cycles:
            self.enable_checks(params.check_interval,
                               params.watchdog_cycles)

    # -- public interface ---------------------------------------------------

    def set_ejection_handler(self, coord: Coord,
                             handler: Callable[[Packet, int], None]) -> None:
        self._handlers[coord] = handler

    def enable_checks(self, check_interval: int = 64,
                      watchdog_cycles: int = 0) -> InvariantChecker:
        """Attach (or retune) the runtime invariant checker."""
        self.checker = InvariantChecker(self, check_interval,
                                        watchdog_cycles)
        return self.checker

    def enable_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a read-only per-hop packet
        tracer to this network, its routers and its channels.  Tracing
        never mutates simulation state, so results are bit-identical with
        it on or off."""
        self.tracer = tracer
        for router in self.routers.values():
            router.tracer = tracer
        for channel in self.channels:
            channel.tracer = tracer

    def carries(self, packet: Packet) -> bool:
        return self.vc_config.carries(packet.traffic_class)

    @property
    def _source_occupancy(self) -> Dict[Coord, int]:
        """Coord-keyed view of the per-node source occupancy (audits,
        telemetry sampling — the cycle loop uses ``_source_occ``)."""
        occ = self._source_occ
        return {coord: occ[i] for coord, i in self._node_index.items()}

    def source_queue_occupancy(self, coord: Coord) -> int:
        return self._source_occ[self._node_index[coord]]

    def try_inject(self, packet: Packet, cycle: int) -> bool:
        """Queue ``packet`` at its source network interface."""
        num_flits = packet.num_flits(self._channel_width)
        cap = self._source_cap
        idx = self._node_index[packet.src]
        occupancy = self._source_occ[idx]
        if cap is not None and occupancy + num_flits > cap:
            return False
        plan = self._plan
        if plan is not None:
            plan(packet, self._rng)
        port = self._source_only[idx]
        if port is None:
            # Several injection ports: rotate round-robin between them.
            # (A single port makes the rotation a fixed point — skipped.)
            ports = self._source_rows[idx][1]
            rr = self._source_rr[idx]
            self._source_rr[idx] = (rr + 1) % len(ports)
            port = ports[rr]
        if (self._batched is not None and port.flits is None
                and not port.fifo):
            # The packet becomes the head of an idle port: the node's next
            # drain pass can genuinely progress again.
            self._source_stuck[idx] = False
        port.fifo.append(packet)
        self._source_occ[idx] = occupancy + num_flits
        self._source_flits += num_flits
        stats = self.stats
        stats.packets_offered += 1
        stats.flits_offered += num_flits
        if self.tracer is not None:
            self.tracer.on_offer(packet, self.name, cycle)
        return True

    def step(self, cycle: Optional[int] = None) -> None:
        """Advance one interconnect cycle.

        ``cycle``, when given, must be ``self.cycle + 1``: the link
        calendars deliver a bucket only on its own due cycle, so a
        skipped cycle would strand whatever was due in it.

        The link calendars' buckets due now are delivered (in send
        order, :meth:`Channel.deliver`), the batched core's screen runs
        the router phase (see ``repro.noc.batched``), then sources drain,
        skipping nodes whose last drain pass was fruitless.  A fully idle
        network reduces to a cycle-counter bump.  ``_step_scan`` is the
        exhaustive twin of the router phase — any semantic change must
        land in both; the golden tests in
        tests/test_stepper_equivalence.py compare them bit for bit.  The
        channel and source phases are shared by both steppers.
        """
        if cycle is None:
            cycle = self.cycle + 1
        elif cycle != self.cycle + 1:
            raise ValueError(
                f"network {self.name!r} is at cycle {self.cycle}; it can "
                f"only step to {self.cycle + 1}, not {cycle}")
        self.cycle = now = cycle
        self.stats.cycles = now
        if self._scan_stepper:
            self._step_scan(now)
            return
        if self._flit_cal or self._credit_cal:
            Channel.deliver(self, now)
        if self._buffered_flits:
            self._batched.sweep(now)
        if self._source_flits:
            self._source_phase(now)
        checker = self.checker
        if checker is not None:
            checker.on_cycle(now)

    def _step_scan(self, now: int) -> None:
        """Reference exhaustive-scan cycle body: every occupied router
        steps every cycle and every occupied source node re-attempts its
        drain.  Twin of ``step``; kept as the bit-identity oracle and the
        benchmark baseline (``REPRO_REFERENCE_STEPPER=1``).
        """
        arrived = (Channel.deliver(self, now)
                   if self._flit_cal or self._credit_cal else 0)
        if self._routers_active or arrived:
            busy = False
            for router in self._router_list:
                if router.occupancy:
                    before = router.occupancy
                    for flit, _port in router.step(now):
                        self._eject(flit, now)
                    moved = before - router.occupancy
                    self._buffered_flits -= moved
                    self.stats.crossbar_traversals += moved
                    self.stats.buffer_reads += moved
                    if router.occupancy:
                        busy = True
            self._routers_active = busy
        if self._source_flits:
            self._source_phase(now)
        checker = self.checker
        if checker is not None:
            checker.on_cycle(now)

    def _source_phase(self, now: int) -> None:
        """Source phase, shared by both steppers: each node with queued
        flits writes at most one flit per injection port into its
        router.  On the batched core a node whose pass moved nothing is
        marked stuck and skipped until a grant frees injection space or a
        fresh head packet arrives (a fruitless pass has no side effects);
        the reference scan never marks a node, so it re-attempts every
        cycle.

        The injection is the source-side twin of a channel arrival in
        :meth:`Channel.deliver` (no overflow check: the space test
        precedes it; the anchor is ``now``: the router phase has already
        run); any semantic change to one must be checked against the
        other."""
        occ = self._source_occ
        stuck = self._source_stuck
        rows = self._source_rows
        screen = self._batched
        depth = self.params.vc_buffer_depth
        width = self._channel_width
        stats = self.stats
        tracer = self.tracer
        moved = 0
        # Row unpacking deferred past the skip tests: at saturation almost
        # every node is stuck, so the common iteration is two list reads.
        for idx in range(len(rows)):
            if not occ[idx] or stuck[idx]:
                continue
            coord, ports, router = rows[idx]
            progressed = False
            for port in ports:
                flits = port.flits
                if flits is None:
                    fifo = port.fifo
                    if not fifo:
                        continue
                    packet = fifo[0]
                    vc = self._pick_injection_vc(router, port.port_id,
                                                 packet)
                    if vc is None:
                        continue
                    fifo.popleft()
                    flits = port.flits = deque(packet.make_flits(width))
                    port.vc = vc
                    port.state = port.states[vc]
                    port.bit = 1 << (port.cell + vc)
                    packet.injected = now
                    stats.record_injection(packet, len(flits))
                state = port.state
                buf = state.buffer
                queued = len(buf)
                if queued >= depth:
                    continue
                flit = flits.popleft()
                if not router.occupancy:
                    # Empty -> occupied: the scan stepper first steps this
                    # router next cycle (the source phase comes last).
                    router._last_step = now
                ready = flit.ready = now + router.pipeline_latency
                buf.append(flit)
                router.occupancy += 1
                if not queued and screen is not None:
                    pending = screen.pending
                    pending[ready] = pending.get(ready, 0) | port.bit
                    if state.out_vc is None:
                        screen.need |= port.bit
                if tracer is not None and flit.is_head:
                    tracer.on_hop_arrive(flit.packet, coord, port.port_id,
                                         now)
                occ[idx] -= 1
                moved += 1
                progressed = True
                if not flits:
                    port.flits = None
                    port.vc = None
                    port.state = None
            if not progressed and screen is not None:
                stuck[idx] = True
        if moved:
            self._source_flits -= moved
            self._buffered_flits += moved
            stats.buffer_writes += moved
            self._routers_active = True

    def use_reference_stepper(self) -> None:
        """Switch to the exhaustive-scan stepper (debug/benchmark oracle).
        Idle-only."""
        self._switch_stepper()
        self._scan_stepper = True

    def use_batched_stepper(self) -> None:
        """Switch (back) to the batched core, the default.  Idle-only."""
        self._switch_stepper()
        self._batched = BatchedCore(self)

    def _switch_stepper(self) -> None:
        """Common teardown for a stepper switch: only legal while idle
        (the batched core's masks start empty), resets every backend to
        its inert state."""
        if not self.idle:
            raise RuntimeError(
                f"network {self.name!r}: stepper can only be switched while "
                "idle")
        self._scan_stepper = False
        self._batched = None
        self._source_stuck[:] = [False] * len(self._source_stuck)

    @property
    def stepper_backend(self) -> str:
        """Name of the active cycle-core backend."""
        return "reference" if self._scan_stepper else "batched"

    def use_stepper(self, backend: str):
        """Context manager: run with ``backend`` ("reference" |
        "batched"), restoring the previous backend on exit.  Nests; both
        the switch and the restore are idle-only like ``use_*_stepper``."""
        return _StepperContext(self, backend)

    def channel_utilization(self) -> Dict[Tuple[Coord, Coord], float]:
        """Flits carried per cycle for every directed mesh link — the
        congestion map that exposes e.g. the top/bottom-row hotspots of the
        baseline MC placement."""
        if not self.cycle:
            return {}
        return {
            (ch.src_router.coord, ch.dst_router.coord):
                ch.flits_carried / self.cycle
            for ch in self.channels
        }

    def peak_channel_utilization(self) -> float:
        util = self.channel_utilization()
        return max(util.values()) if util else 0.0

    @property
    def idle(self) -> bool:
        """True when no flit is buffered, in flight, or waiting at a source.

        O(1): ``_source_flits`` mirrors the per-node source occupancy,
        ``_buffered_flits`` the per-router occupancy, and the link
        calendars never keep an empty bucket, so they are empty exactly
        when no flit or credit is in flight.
        """
        return not (self._source_flits or self._buffered_flits
                    or self._flit_cal or self._credit_cal)

    def run_until_idle(self, max_cycles: int = 1_000_000) -> int:
        """Drain all traffic; returns the cycle count.  Test helper."""
        start = self.cycle
        while not self.idle:
            if self.cycle - start > max_cycles:
                raise DeadlockError(
                    f"network {self.name!r} failed to drain within "
                    f"{max_cycles} cycles (deadlock?)\n"
                    + format_network_state(self))
            self.step()
        return self.cycle - start

    # -- internals ----------------------------------------------------------

    def _pick_injection_vc(self, router: Router, port_id,
                           packet: Packet) -> Optional[int]:
        allowed = self.vc_config.allowed_vcs(packet.traffic_class,
                                             packet.group)
        in_vcs = router.in_ports[port_id]
        depth = router.buffer_depth
        best_vc = None
        best_space = 0
        for vc in allowed:
            space = depth - len(in_vcs[vc].buffer)
            if space > best_space:
                best_vc, best_space = vc, space
        # Require room for the head flit now; the rest streams in over the
        # following cycles as the VC drains.
        return best_vc if best_space > 0 else None

    def _eject(self, flit: Flit, now: int) -> None:
        packet = flit.packet
        total = packet.num_flits(self.params.channel_width)
        got = self._reassembly.get(packet.pid, 0) + 1
        if got < total:
            self._reassembly[packet.pid] = got
            return
        self._reassembly.pop(packet.pid, None)
        packet.ejected = now
        self.stats.record_ejection(packet, total)
        if self.tracer is not None:
            self.tracer.on_eject(packet, now)
        handler = self._handlers.get(packet.dest)
        if handler is not None:
            handler(packet, now)
