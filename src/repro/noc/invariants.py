"""Runtime invariant checking and deadlock diagnosis.

The paper's results rest on cycle-accurate credit-based VC wormhole flow
control; a single silent credit-accounting or VC-ownership error skews every
latency and throughput figure the harness regenerates.  This module is the
simulator's self-check layer, in the spirit of the conservation-style audits
that NoC models use to earn trust:

* **Flit conservation** — every flit a network has accepted is accounted
  for: still streaming out of a source port, buffered in a router, in
  flight on a channel, partially reassembled at ejection, or ejected.
* **Credit conservation** — for every (mesh channel, VC): downstream buffer
  occupancy + sender credits + credits in flight + flits in flight equals
  ``vc_buffer_depth`` exactly.
* **Link calendars** — every bucket of the network's flit and credit
  calendars is due in the future, non-empty, and holds only events of the
  network's own channels.
* **VC discipline** — output-VC ownership and input-VC routing state point
  at each other one-to-one, body flits never lead an unrouted VC, and a
  packet's flits stay contiguous and in order within each VC buffer.
* **Deadlock watchdog** — if a non-idle network moves no flit for K
  consecutive cycles, raise :class:`DeadlockError` with a full
  human-readable state dump (buffers, routes, owners, credits, source
  queues, and the oldest stuck packet with its planned route) instead of a
  bare "failed to drain".

All audits are read-only: enabling them never changes simulation results
(see ``tests/test_invariant_checker.py`` for the bit-for-bit golden test),
and when disabled the hot path pays a single attribute test per cycle.

The closed-loop system adds one more conservation law on top
(:func:`audit_accelerator`): every issued-and-outstanding MSHR line
corresponds to exactly one read-request/reply in flight — in a core's
outbound queue, in the NoC, queued at a memory controller, inside the DRAM
scheduler, or waiting in an MC's reply backlog.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Tuple

from .packet import Flit, Packet, TrafficClass
from .topology import Direction


class InvariantViolation(RuntimeError):
    """An audit found simulator state that breaks a conservation law."""


class DeadlockError(RuntimeError):
    """The network (or chip) stopped making forward progress."""


# ---------------------------------------------------------------------------
# Network audits (read-only)
# ---------------------------------------------------------------------------


def _iter_networks(network) -> List[object]:
    """The physical :class:`MeshNetwork` slices behind ``network`` (a
    MeshNetwork itself, a NetworkSystem, or an ideal network with none)."""
    slices = getattr(network, "networks", None)
    if slices is not None:
        return list(slices)
    if hasattr(network, "routers"):
        return [network]
    return []


def _source_flit_split(net) -> Tuple[int, int, int]:
    """(flits still queued in source FIFOs, flits of partially drained
    packets, packets still queued in source FIFOs) across all nodes."""
    width = net.params.channel_width
    fifo_flits = 0
    fifo_packets = 0
    partial = 0
    for ports in net._sources.values():
        for port in ports:
            fifo_packets += len(port.fifo)
            fifo_flits += sum(p.num_flits(width) for p in port.fifo)
            if port.flits is not None:
                partial += len(port.flits)
    return fifo_flits, partial, fifo_packets


def audit_flit_conservation(net) -> List[str]:
    """Flits offered == queued + injected; injected == draining + buffered
    + in flight + reassembling + ejected."""
    problems: List[str] = []
    stats = net.stats
    fifo_flits, partial, fifo_packets = _source_flit_split(net)

    buffered = 0
    for coord, router in net.routers.items():
        actual = sum(len(vc.buffer) for vcs in router.in_ports.values()
                     for vc in vcs)
        if actual != router.occupancy:
            problems.append(
                f"router {coord}: occupancy counter {router.occupancy} != "
                f"{actual} flits actually buffered")
        buffered += actual

    in_flight = sum(len(bucket) for bucket in net._flit_cal.values())
    reassembling = sum(net._reassembly.values())

    accounted = (partial + buffered + in_flight + reassembling
                 + stats.flits_ejected)
    if stats.flits_injected != accounted:
        problems.append(
            f"flit conservation broken: injected={stats.flits_injected} != "
            f"draining={partial} + buffered={buffered} + "
            f"in-flight={in_flight} + reassembling={reassembling} + "
            f"ejected={stats.flits_ejected} (= {accounted})")
    if stats.flits_offered != fifo_flits + stats.flits_injected:
        problems.append(
            f"offered/injected skew: offered={stats.flits_offered} != "
            f"source-queued={fifo_flits} + injected={stats.flits_injected}")
    if stats.packets_offered != fifo_packets + stats.packets_injected:
        problems.append(
            f"offered/injected packet skew: offered={stats.packets_offered}"
            f" != source-queued={fifo_packets} + "
            f"injected={stats.packets_injected}")
    if net._source_flits != fifo_flits + partial:
        problems.append(
            f"source-flit counter {net._source_flits} != queued "
            f"{fifo_flits} + draining {partial}")
    occupancy_sum = sum(net._source_occupancy.values())
    if occupancy_sum != net._source_flits:
        problems.append(
            f"per-node source occupancy sums to {occupancy_sum}, counter "
            f"says {net._source_flits}")
    if net._buffered_flits != buffered:
        problems.append(
            f"buffered-flit counter {net._buffered_flits} != {buffered} "
            f"flits actually buffered across routers")

    # The power model's activity counters (DESIGN.md §17) obey exact
    # mid-run identities: every switch grant reads one buffered flit;
    # writes minus reads is precisely what is still buffered; and every
    # link delivery was first sent (the gap is the flits in flight).
    if stats.crossbar_traversals != stats.buffer_reads:
        problems.append(
            f"activity counter skew: crossbar_traversals="
            f"{stats.crossbar_traversals} != buffer_reads="
            f"{stats.buffer_reads}")
    if stats.buffer_writes - stats.buffer_reads != buffered:
        problems.append(
            f"activity counter skew: buffer_writes={stats.buffer_writes} "
            f"- buffer_reads={stats.buffer_reads} != {buffered} flits "
            f"buffered")
    carried = sum(ch.flits_carried for ch in net.channels)
    if stats.link_flit_hops != carried - in_flight:
        problems.append(
            f"activity counter skew: link_flit_hops="
            f"{stats.link_flit_hops} != carried={carried} - "
            f"in-flight={in_flight}")
    return problems


def audit_event_scheduling(net) -> List[str]:
    """Batched-core screen state against the authoritative object state,
    cell by cell: the ``ready`` bit is set exactly when the cell's front
    flit has cleared the pipeline, every front still in the pipeline sits
    in the ``pending`` calendar at its ready cycle (and nothing else
    does), and ``ok``/``need``/``blocked`` match the route, VC and credit
    state.  The screen derives its whole schedule from these masks, so
    exact masks imply no actionable cell can be skipped.  Networks on the
    reference stepper have no screen state and pass trivially."""
    core = getattr(net, "_batched", None)
    if core is None:
        return []
    problems: List[str] = []
    now = net.cycle
    booked: Dict[int, int] = {}
    for cycle, bits in core.pending.items():
        while bits:
            low = bits & -bits
            bits ^= low
            ci = low.bit_length() - 1
            if ci in booked:
                problems.append(
                    f"cell {ci} booked in the pending calendar at both "
                    f"cycle {booked[ci]} and cycle {cycle}")
            booked[ci] = cycle
    for idx, (coord, router) in enumerate(net.routers.items()):
        blocked_by_pos = core.blocked_by_pos[idx]
        for pos, port_id in enumerate(router._input_order):
            for vc_idx, vc_state in enumerate(router.in_ports[port_id]):
                ci = router._cell_base + pos * router.num_vcs + vc_idx
                cell = f"({port_id}, {vc_idx})"
                buf = vc_state.buffer
                front = buf[0].ready if buf else None
                want_ready = front is not None and front <= now
                if bool(core.ready >> ci & 1) != want_ready:
                    problems.append(
                        f"{coord}: screen ready bit for {cell} is "
                        f"{core.ready >> ci & 1}, front flit ready at "
                        f"{front} (now {now})")
                want_booked = (front if front is not None and front > now
                               else None)
                if booked.get(ci) != want_booked:
                    problems.append(
                        f"{coord}: pending calendar books {cell} at "
                        f"{booked.get(ci)}, front flit ready at {front} "
                        f"(now {now})")
                want_need = bool(buf) and vc_state.out_vc is None
                if bool(core.need >> ci & 1) != want_need:
                    problems.append(
                        f"{coord}: screen need bit for {cell} is "
                        f"{core.need >> ci & 1}, object state says "
                        f"{want_need}")
                want_ok = vc_state.out_vc is not None and (
                    router.out_ports[vc_state.out_port]
                    .credits[vc_state.out_vc] > 0)
                if bool(core.ok >> ci & 1) != want_ok:
                    problems.append(
                        f"{coord}: screen ok bit for {cell} is "
                        f"{core.ok >> ci & 1}, object state says {want_ok}")
                if not core.blocked >> ci & 1:
                    continue
                # A blocked cell must be a need head whose VC allocation
                # provably still fails: every allowed VC of its output port
                # is owned.  (Exact, not just conservative: any release on
                # that port flushes the port's blocked mask.)
                if not want_need:
                    problems.append(
                        f"{coord}: screen blocked bit for {cell} set but "
                        f"cell is not awaiting VC allocation")
                elif len(router._eject_ids) > 1 and \
                        vc_state.out_port is Direction.EJECT:
                    problems.append(
                        f"{coord}: screen blocked bit for {cell} set on a "
                        f"multi-eject router's eject head")
                elif vc_state.out_port is not None:
                    if vc_state.out_port is Direction.EJECT:
                        out = router.out_ports[router._eject_ids[0]]
                    else:
                        out = router.out_ports[vc_state.out_port]
                    if not blocked_by_pos[router._out_pos[out.port_id]] \
                            >> ci & 1:
                        problems.append(
                            f"{coord}: blocked cell {cell} missing from "
                            f"the blocked mask of {out.port_id}")
                    packet = buf[0].packet
                    allowed = router.vc_config.allowed_vcs(
                        packet.traffic_class, packet.group)
                    free = [vc for vc in allowed if out.owner[vc] is None]
                    if free:
                        problems.append(
                            f"{coord}: screen blocked bit for {cell} set "
                            f"but VCs {free} are free on {out.port_id}")
    return problems


def _in_flight_by_link(net) -> Tuple[Dict[tuple, int], Dict[tuple, int]]:
    """(flits, credits) in flight per (channel, VC), counted in one pass
    over the link calendars."""
    flits: Dict[tuple, int] = {}
    credits: Dict[tuple, int] = {}
    for bucket in net._flit_cal.values():
        for sink, _flit in bucket:
            key = (sink[0], sink[1])
            flits[key] = flits.get(key, 0) + 1
    for bucket in net._credit_cal.values():
        for event in bucket:
            key = (event[4], event[2])
            credits[key] = credits.get(key, 0) + 1
    return flits, credits


def audit_credit_conservation(net) -> List[str]:
    """Per (channel, VC): occupancy + credits + credits/flits in flight
    must equal the buffer depth; terminal ejection credits never go
    negative."""
    problems: List[str] = []
    depth = net.params.vc_buffer_depth
    flits_by_link, credits_by_link = _in_flight_by_link(net)
    for ch in net.channels:
        out = ch.src_router.out_ports[ch.src_port]
        in_vcs = ch.dst_router.in_ports[ch.dst_port]
        for vc in range(len(in_vcs)):
            flying = flits_by_link.get((ch, vc), 0)
            returning = credits_by_link.get((ch, vc), 0)
            total = (len(in_vcs[vc].buffer) + out.credits[vc]
                     + returning + flying)
            if total != depth:
                problems.append(
                    f"credit conservation broken on "
                    f"{ch.src_router.coord}->{ch.dst_router.coord} vc {vc}: "
                    f"buffered={len(in_vcs[vc].buffer)} + "
                    f"credits={out.credits[vc]} + "
                    f"credits-in-flight={returning} + "
                    f"flits-in-flight={flying} = {total}, "
                    f"expected {depth}")
            if not 0 <= out.credits[vc] <= depth:
                problems.append(
                    f"credit counter out of range on "
                    f"{ch.src_router.coord} port {ch.src_port} vc {vc}: "
                    f"{out.credits[vc]} not in [0, {depth}]")
    for coord, router in net.routers.items():
        for port_id, out in router.out_ports.items():
            if out.sink is not None:
                for vc, credits in enumerate(out.credits):
                    if credits < 0:
                        problems.append(
                            f"terminal credit underflow at {coord} port "
                            f"{port_id} vc {vc}: {credits}")
    return problems


def audit_link_calendars(net) -> List[str]:
    """The link calendars hold only what the channel phase will pop: no
    bucket at or before the current cycle (it would never be delivered),
    no empty bucket (``idle`` tests the calendars' truthiness), and no
    event of a channel outside ``net.channels``."""
    problems: List[str] = []
    now = net.cycle
    channels = set(net.channels)
    # Flit events are (sink, flit) with the channel first in the sink;
    # credit events carry their channel last.
    for kind, cal, channel_of in (
            ("flit", net._flit_cal, lambda event: event[0][0]),
            ("credit", net._credit_cal, lambda event: event[4])):
        for due, bucket in cal.items():
            if due <= now:
                problems.append(
                    f"stale {kind} calendar bucket due at cycle {due} "
                    f"(now {now}) with {len(bucket)} events")
            if not bucket:
                problems.append(
                    f"empty {kind} calendar bucket at cycle {due}")
            for event in bucket:
                if channel_of(event) not in channels:
                    problems.append(
                        f"{kind} calendar bucket at cycle {due} holds an "
                        f"event of a channel outside the network")
                    break
    return problems


def _audit_vc_buffer(coord, port_id, vc_idx, buffer) -> List[str]:
    """Flits in one VC buffer must form contiguous in-order runs: only the
    first run may start mid-packet (its head already departed downstream);
    a new packet may begin only after the previous one's tail."""
    problems: List[str] = []
    where = f"{coord} port {port_id} vc {vc_idx}"
    prev: Optional[Flit] = None
    for flit in buffer:
        if prev is None:
            pass                         # first run may be a continuation
        elif flit.packet.pid == prev.packet.pid:
            if flit.index != prev.index + 1:
                problems.append(
                    f"out-of-order flits at {where}: {prev!r} then {flit!r}")
        else:
            if not prev.is_tail:
                problems.append(
                    f"interleaved packets at {where}: {flit!r} follows "
                    f"non-tail {prev!r}")
            if not flit.is_head:
                problems.append(
                    f"new packet starts mid-buffer without head at "
                    f"{where}: {flit!r}")
        prev = flit
    return problems


def audit_vc_discipline(net) -> List[str]:
    """Ownership/routing cross-consistency, body-flit discipline, buffer
    bounds, and per-VC packet contiguity."""
    problems: List[str] = []
    depth = net.params.vc_buffer_depth
    for coord, router in net.routers.items():
        # Output ownership -> input routing state.
        owners: Dict[Tuple[object, int], Tuple[object, int]] = {}
        for port_id, out in router.out_ports.items():
            for vc, owner in enumerate(out.owner):
                if owner is None:
                    continue
                in_port, in_vc = owner
                owners[(in_port, in_vc)] = (port_id, vc)
                state = router.in_ports.get(in_port, [None] * 0)
                if in_vc >= len(state) or state[in_vc] is None:
                    problems.append(
                        f"{coord}: output {port_id} vc {vc} owned by "
                        f"nonexistent input ({in_port}, {in_vc})")
                    continue
                vc_state = state[in_vc]
                if vc_state.out_port != port_id or vc_state.out_vc != vc:
                    problems.append(
                        f"{coord}: output {port_id} vc {vc} owner "
                        f"({in_port}, {in_vc}) points elsewhere "
                        f"(out_port={vc_state.out_port}, "
                        f"out_vc={vc_state.out_vc})")
        # Input routing state -> output ownership, plus flit discipline.
        for port_id, vcs in router.in_ports.items():
            for vc_idx, vc_state in enumerate(vcs):
                if len(vc_state.buffer) > depth:
                    problems.append(
                        f"buffer overflow at {coord} port {port_id} vc "
                        f"{vc_idx}: {len(vc_state.buffer)} > {depth}")
                if vc_state.out_vc is not None:
                    expected = owners.get((port_id, vc_idx))
                    if expected != (vc_state.out_port, vc_state.out_vc):
                        problems.append(
                            f"{coord}: input ({port_id}, {vc_idx}) claims "
                            f"output ({vc_state.out_port}, "
                            f"{vc_state.out_vc}) but ownership says "
                            f"{expected}")
                if (vc_state.buffer and not vc_state.buffer[0].is_head
                        and vc_state.out_port is None):
                    problems.append(
                        f"body flit leads unrouted VC at {coord} port "
                        f"{port_id} vc {vc_idx}: {vc_state.buffer[0]!r}")
                problems.extend(_audit_vc_buffer(
                    coord, port_id, vc_idx, vc_state.buffer))
    return problems


def audit_network(net) -> List[str]:
    """Run every audit on one physical network; returns problem strings."""
    return (audit_flit_conservation(net)
            + audit_credit_conservation(net)
            + audit_link_calendars(net)
            + audit_vc_discipline(net)
            + audit_event_scheduling(net))


def check_network(net) -> None:
    """Raise :class:`InvariantViolation` (with a state dump) on any audit
    failure."""
    problems = audit_network(net)
    if problems:
        raise InvariantViolation(
            f"invariant violation in network {net.name!r} at cycle "
            f"{net.cycle}:\n  - " + "\n  - ".join(problems)
            + "\n" + format_network_state(net))


def audit_system(system) -> List[str]:
    """Audit every physical slice of a network system."""
    problems = []
    for net in _iter_networks(system):
        problems.extend(f"[{net.name}] {p}" for p in audit_network(net))
    return problems


# ---------------------------------------------------------------------------
# State dumps
# ---------------------------------------------------------------------------


def _fmt_flits(buffer: Iterable[Flit], limit: int = 12) -> str:
    flits = list(buffer)
    body = ", ".join(repr(f) for f in flits[:limit])
    if len(flits) > limit:
        body += f", ... +{len(flits) - limit}"
    return f"[{body}]"


def planned_route(net, packet: Packet, start) -> List[object]:
    """The hop sequence the routing algorithm would send ``packet`` on from
    ``start``.  Walks a copy of the packet so stateful algorithms (e.g.
    two-phase ROMM) are not perturbed — dumps stay read-only."""
    probe = copy.copy(packet)
    route: List[object] = []
    coord = start
    for _ in range(4 * net.mesh.num_nodes):
        try:
            direction = net.routing.next_port(coord, probe)
        except Exception as exc:                       # diagnostic only
            route.append(f"<route error: {exc}>")
            return route
        if direction is Direction.EJECT:
            route.append("EJECT")
            return route
        coord = coord.neighbor(direction)
        route.append(coord)
    route.append("<route does not terminate>")
    return route


def _oldest_stuck_packet(net):
    """(packet, location string, coord to plan the rest of the route from)
    for the oldest flit-carrying packet still inside the network, or
    (None, '', None)."""
    oldest: Optional[Packet] = None
    where = ""
    origin = None

    def consider(packet, location, coord):
        nonlocal oldest, where, origin
        if oldest is None or (packet.created, packet.pid) < (
                oldest.created, oldest.pid):
            oldest, where, origin = packet, location, coord
    for coord, router in net.routers.items():
        for port_id, vcs in router.in_ports.items():
            for vc_idx, vc_state in enumerate(vcs):
                if vc_state.buffer:
                    consider(vc_state.buffer[0].packet,
                             f"router {coord} in-port {port_id} vc {vc_idx}",
                             coord)
    # Per channel, not per calendar bucket: the dump must not depend on
    # the order in which the routers of one cycle sent their flits.
    for ch in net.channels:
        for flit, vc in ch.peek_flits():
            consider(flit.packet,
                     f"channel {ch.src_router.coord}->"
                     f"{ch.dst_router.coord} vc {vc}",
                     ch.dst_router.coord)
    for coord, ports in net._sources.items():
        for port in ports:
            if port.flits:
                consider(port.flits[0].packet,
                         f"source {coord} (draining, vc {port.vc})", coord)
            elif port.fifo:
                consider(port.fifo[0], f"source {coord} (queued)", coord)
    return oldest, where, origin


def format_network_state(net, max_flits: int = 12) -> str:
    """Human-readable dump of every non-empty piece of network state."""
    lines = [f"=== state of network {net.name!r} at cycle {net.cycle} ==="]
    stats = net.stats
    lines.append(
        f"offered {stats.packets_offered} pkt / {stats.flits_offered} flit"
        f"; injected {stats.packets_injected} / {stats.flits_injected}"
        f"; ejected {stats.packets_ejected} / {stats.flits_ejected}"
        f"; source-queued {net._source_flits} flits")
    for coord, router in sorted(net.routers.items(),
                                key=lambda kv: (kv[0].y, kv[0].x)):
        port_lines = []
        for port_id in sorted(router.in_ports, key=str):
            for vc_idx, vc_state in enumerate(router.in_ports[port_id]):
                if not (vc_state.buffer or vc_state.out_port is not None):
                    continue
                port_lines.append(
                    f"  in  {port_id} vc{vc_idx}: "
                    f"route={vc_state.out_port} out_vc={vc_state.out_vc} "
                    f"flits={_fmt_flits(vc_state.buffer, max_flits)}")
        for port_id in sorted(router.out_ports, key=str):
            out = router.out_ports[port_id]
            if out.sink is not None and all(o is None for o in out.owner):
                continue
            port_lines.append(
                f"  out {port_id}: credits={out.credits} "
                f"owners={out.owner}")
        if port_lines or router.occupancy:
            kind = "half" if router.spec.half else "full"
            lines.append(f"router {coord} [{kind}] "
                         f"occupancy={router.occupancy}")
            lines.extend(port_lines)
    for ch in net.channels:
        if ch.busy:
            lines.append(
                f"channel {ch.src_router.coord}->{ch.dst_router.coord}: "
                f"{ch.flits_in_flight()} flits / "
                f"{ch.credits_in_flight()} credits in flight")
    for coord, ports in sorted(net._sources.items(),
                               key=lambda kv: (kv[0].y, kv[0].x)):
        for port in ports:
            if port.fifo or port.flits:
                draining = (f", draining p{port.flits[0].packet.pid} "
                            f"({len(port.flits)} flits left on vc {port.vc})"
                            if port.flits else "")
                lines.append(
                    f"source {coord} port {port.port_id}: "
                    f"{len(port.fifo)} packets queued{draining}")
    packet, where, origin = _oldest_stuck_packet(net)
    if packet is not None:
        lines.append(
            f"oldest stuck packet: p{packet.pid} "
            f"{packet.traffic_class.name} {packet.src}->{packet.dest} "
            f"group={packet.group.value} phase={packet.phase} "
            f"created={packet.created} injected={packet.injected} "
            f"at {where}")
        # Plan the rest of the route from wherever the packet is stuck.
        hops = planned_route(net, packet, origin)
        lines.append(f"  planned route from {origin}: "
                     + " -> ".join(str(h) for h in hops))
    return "\n".join(lines)


def format_system_state(system) -> str:
    """Dump every physical network slice of a system."""
    return "\n".join(format_network_state(net)
                     for net in _iter_networks(system))


# ---------------------------------------------------------------------------
# Per-network checker (periodic audit + deadlock watchdog)
# ---------------------------------------------------------------------------


class InvariantChecker:
    """Opt-in runtime checker attached to one :class:`MeshNetwork`.

    ``check_interval`` > 0 runs the full audit every that many cycles;
    ``watchdog_cycles`` > 0 arms the deadlock watchdog: if the network is
    non-idle and no flit moves for that many consecutive cycles, a
    :class:`DeadlockError` is raised with a full state dump.  Both paths
    are read-only, so enabling them cannot change simulation results.
    """

    def __init__(self, network, check_interval: int = 0,
                 watchdog_cycles: int = 0) -> None:
        if check_interval < 0 or watchdog_cycles < 0:
            raise ValueError("check intervals must be non-negative")
        self.network = network
        self.check_interval = check_interval
        self.watchdog_cycles = watchdog_cycles
        self.audits_run = 0
        self._stalled_cycles = 0
        self._last_motion = -1

    # A monotone counter that advances whenever any flit moves: pops off a
    # source FIFO or drains into a router (injected - draining), traverses
    # a switch into a channel (flits_carried), or ejects (ejected +
    # partial reassembly).  Channel *delivery* is not counted, but it
    # always follows a send within channel-latency cycles, so a stalled
    # counter with a non-idle network means no flit is moving at all.
    def _motion(self) -> int:
        net = self.network
        stats = net.stats
        _fifo, partial, _pkts = _source_flit_split(net)
        carried = sum(ch.flits_carried for ch in net.channels)
        reassembling = sum(net._reassembly.values())
        return (stats.flits_injected - partial + carried
                + stats.flits_ejected + reassembling)

    def audit(self) -> None:
        """Run the full audit now; raises on violation."""
        self.audits_run += 1
        check_network(self.network)

    def on_cycle(self, cycle: int) -> None:
        """Called by the network at the end of every cycle when enabled."""
        if self.watchdog_cycles:
            motion = self._motion()
            if motion != self._last_motion:
                self._last_motion = motion
                self._stalled_cycles = 0
            elif not self.network.idle:
                self._stalled_cycles += 1
                if self._stalled_cycles >= self.watchdog_cycles:
                    raise DeadlockError(
                        f"no flit moved in network "
                        f"{self.network.name!r} for "
                        f"{self._stalled_cycles} non-idle cycles "
                        f"(deadlock)\n"
                        + format_network_state(self.network))
        if self.check_interval and cycle % self.check_interval == 0:
            self.audit()


# ---------------------------------------------------------------------------
# System-level (closed-loop) conservation audit
# ---------------------------------------------------------------------------


def _is_read_request(packet: Packet) -> bool:
    return (packet.traffic_class is TrafficClass.REQUEST
            and packet.size_bytes <= 8)


def _token_key(packet: Packet):
    token = packet.payload
    core = getattr(token, "core", None)
    line = getattr(token, "line_addr", None)
    if core is None or line is None:
        return None
    return (core, line)


def _network_packets(net) -> Dict[int, Packet]:
    """Every distinct packet with at least one flit inside ``net``
    (source queues, router buffers, channels)."""
    packets: Dict[int, Packet] = {}
    for ports in net._sources.values():
        for port in ports:
            for pkt in port.fifo:
                packets[pkt.pid] = pkt
            if port.flits:
                pkt = port.flits[0].packet
                packets[pkt.pid] = pkt
    for router in net.routers.values():
        for vcs in router.in_ports.values():
            for vc_state in vcs:
                for flit in vc_state.buffer:
                    packets[flit.packet.pid] = flit.packet
    for bucket in net._flit_cal.values():
        for _sink, flit in bucket:
            packets[flit.packet.pid] = flit.packet
    return packets


def audit_accelerator(accel) -> List[str]:
    """Closed-loop conservation: every issued-and-outstanding MSHR line has
    exactly one read request/reply in flight, and vice versa."""
    problems: List[str] = []

    expected: Dict[Tuple[object, int], int] = {}
    for core in accel.cores:
        for line in core.mshrs.issued_lines():
            key = (core.coord, line)
            expected[key] = expected.get(key, 0) + 1
            if expected[key] > 1:
                problems.append(
                    f"core {core.coord}: duplicate MSHR entry for line "
                    f"{line:#x}")

    found: Dict[Tuple[object, int], int] = {}
    def record(packet: Packet, location: str) -> None:
        key = _token_key(packet)
        if key is None:
            problems.append(
                f"{location}: packet p{packet.pid} carries no memory token")
            return
        found[key] = found.get(key, 0) + 1

    for core in accel.cores:
        for packet in core.outbound:
            if _is_read_request(packet):
                record(packet, f"core {core.coord} outbound")
    for net in _iter_networks(accel.network):
        for packet in _network_packets(net).values():
            if _is_read_request(packet):
                record(packet, f"network {net.name}")
            elif packet.traffic_class is TrafficClass.REPLY:
                record(packet, f"network {net.name} (reply)")
    for mc in accel.mcs:
        for packet in mc.pending_request_packets():
            if _is_read_request(packet):
                record(packet, f"MC {mc.coord} input queue")
        for request in mc.dram.outstanding_requests():
            if not request.is_write and request.payload is not None:
                record(request.payload, f"MC {mc.coord} DRAM queue")
        for packet in mc.queued_replies():
            record(packet, f"MC {mc.coord} reply backlog")

    for key, count in expected.items():
        got = found.get(key, 0)
        if got != count:
            coord, line = key
            problems.append(
                f"request conservation broken: core {coord} line "
                f"{line:#x} has {count} issued MSHR entr"
                f"{'y' if count == 1 else 'ies'} but {got} packets in "
                f"flight")
    for key, count in found.items():
        if key not in expected:
            coord, line = key
            problems.append(
                f"orphan in-flight request: core {coord} line {line:#x} "
                f"({count} packet(s)) has no outstanding MSHR entry")

    problems.extend(audit_system(accel.network))
    return problems


def check_accelerator(accel) -> None:
    """Raise :class:`InvariantViolation` on any closed-loop audit failure."""
    problems = audit_accelerator(accel)
    if problems:
        raise InvariantViolation(
            f"system invariant violation at interconnect cycle "
            f"{accel.icnt_cycle}:\n  - " + "\n  - ".join(problems)
            + "\n" + format_system_state(accel.network))
