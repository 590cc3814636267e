"""Batched cycle core: the network's default router phase.

The reference stepper (``MeshNetwork._step_scan`` / ``Router.step``)
walks every port and VC of every occupied router each cycle, yet most of
that walk finds nothing to do: a flit still in the router pipeline, a
head waiting for an output VC, a VC out of credits.  Near saturation —
the operating point the paper's throughput-effective analysis cares
about — every router is occupied and the walk is the whole cost.

:class:`BatchedCore` screens the (router, input port, VC) *cells* of the
mesh with four Python-int bitsets; bit ``ci`` of each mask describes
cell ``ci``:

* ``ready`` — the cell's front flit has cleared the pipeline
  (``front.ready <= now``);
* ``ok`` — the cell holds an output VC and that VC has credits, so a
  ready front flit is a switch request;
* ``need`` — the front flit is a head without an output VC, so a ready
  head must attempt route computation / VC allocation;
* ``blocked`` — that allocation attempt is known to fail (and to have no
  side effects) until a VC frees on the cell's output port.

Fronts still in the pipeline wait in the ``pending`` calendar
``{ready_cycle: bits}``; the entry for the current cycle is ORed into
``ready`` at the top of each :meth:`BatchedCore.sweep`.  This is exact
because a front flit cannot leave its buffer before it is ready, so it
is still the front when its calendar entry comes due.

One screen, ``ready & (ok | (need & ~blocked))``, then names every cell
the reference scan would observably mutate this cycle.  It is walked
lowest bit first: cells of one router are contiguous and routers follow
mesh order, so ascending cell order is the reference scan's
router-then-port order (ejection handlers and RNG draws fire in that
order).  Routers with no flagged cell are skipped entirely; their VA
rotation is replayed lazily from the ``Router._last_step`` anchor.  The
flagged cells drive the same ``SeparableAllocator`` pointers, channels,
tracer hooks and stats as the reference, so results are bit-identical
(pinned by ``tests/test_stepper_equivalence.py``), and the invariant
checker, telemetry and deadlock watchdog work unchanged.

Two screening arguments let whole classes of work sleep:

* A failed VC allocation mutates nothing (``free_vc`` moves its pointer
  only on success; a single eject port never rotates the eject
  pointer), and it keeps failing until an output VC of the *same output
  port* is released — so a blocked cell is skipped until the grant loop
  frees a VC there (the per-port blocked masks give the exact wake-up
  set).  Routers with several eject ports are exempt: their failed
  ejection allocations rotate the eject-port pointer.
* A source-drain pass that delivered nothing mutated nothing, and its
  outcome can only change when a grant pops a flit out of an
  injection-port buffer or a fresh packet heads an idle source port —
  tracked by ``MeshNetwork._source_stuck``.

The router objects stay authoritative: the masks are read-side mirrors,
updated at the few mutation points — flit arrival and credit 0 -> 1 in
the network's channel and source phases, VC allocation and switch
grants here.  Nothing inside :meth:`BatchedCore.process_cells`
re-enters those points: the flits and credits it sends are appended to
the network's link calendars at ``now + latency`` / ``now +
credit_delay`` (both at least one cycle, see ``repro.noc.channel``) and
delivered in a later channel phase, so the grant pass keeps the masks
in locals and writes them back once.
``audit_event_scheduling`` cross-checks every mask and the calendar
against the object state.
"""

from __future__ import annotations

from typing import Dict, List

from .packet import RouteGroup, TrafficClass
from .router import RoutingViolation
from .topology import Direction


class BatchedCore:
    """Bitset screen and grant pass attached to one ``MeshNetwork``.

    Construction is only legal while the network is idle (enforced by
    ``MeshNetwork.use_batched_stepper``): an idle network has no buffered
    flit and no owned output VC, so every mask starts empty.
    """

    def __init__(self, net) -> None:
        self.net = net
        self.routers = net._router_list
        self.num_vcs = net.vc_config.num_vcs
        v = self.num_vcs
        ends: List[int] = []
        cell_router: List[int] = []
        cell_info: List[tuple] = []
        # The cell layout (``Router._cell_base``) is the network's: the
        # link calendars' sinks carry cell bits built at construction.
        for idx, router in enumerate(self.routers):
            for pos, (in_port, in_vcs) in enumerate(router._ordered_inputs):
                for in_vc, vc_state in enumerate(in_vcs):
                    cell_info.append((pos, in_vc, in_port, vc_state))
            ncells = len(router._input_order) * v
            cell_router.extend([idx] * ncells)
            ends.append(router._cell_base + ncells)
        #: One-past-last cell index of each router; cells of one router
        #: are contiguous (input-position major, VC minor), so ascending
        #: cell order is exactly the reference scan's router-then-port
        #: order.
        self.ends = ends
        self.cell_router = cell_router
        #: Static per-cell identity ``(pos, in_vc, in_port, vc_state)`` —
        #: the ``_InputVc`` objects and their buffers never move.
        self.cell_info = cell_info
        self.ready = 0
        self.ok = 0
        self.need = 0
        self.blocked = 0
        #: Ready cycle -> cells whose front flit clears the pipeline then.
        self.pending: Dict[int, int] = {}
        #: Static per-router hot-loop state (see ``process_cells`` for the
        #: unpack order); binding one tuple beats a dozen attribute
        #: lookups per visited router.
        self._rinfo: List[tuple] = []
        #: Per router, per output position: mask of the router's cells
        #: blocked on that port, flushed when the grant loop frees a VC.
        self.blocked_by_pos: List[List[int]] = []
        #: Link calendars and their (network-wide) delays: the grant pass
        #: queues flits and credits straight into the due buckets.
        self.flit_cal = net._flit_cal
        self.credit_cal = net._credit_cal
        self.latency = net._latency
        self.credit_delay = net._credit_delay
        # Pure-DOR designs (``plan_writes_defaults``) admit two extra fast
        # paths: packets keep ``group == ANY`` for life (nothing mutates
        # it), so the allowed-VC tuple is a fixed per-class pair; and
        # ``next_port`` is a pure function of (coord, dest), so each
        # full-connectivity router can memoize dest -> (direction, out
        # position) — only the U-turn guard (the sole illegal full-router
        # turn a Direction input can see) survives on the hit path.
        dor_pure = getattr(net.routing, "plan_writes_defaults", False)
        self._fixed_allowed = None
        if dor_pure:
            ga = net.vc_config._allowed.get
            req = ga((TrafficClass.REQUEST, RouteGroup.ANY))
            rep = ga((TrafficClass.REPLY, RouteGroup.ANY))
            if req is not None and rep is not None:
                self._fixed_allowed = (req, rep)
        for idx, router in enumerate(self.routers):
            allocator = router._allocator
            eject_pos = (router._out_pos[router._eject_ids[0]]
                         if router._eject_ids else -1)
            outs = router._out_by_pos
            blocked_by_pos = [0] * len(outs)
            self.blocked_by_pos.append(blocked_by_pos)
            # Per-output-position flat caches: the output ports, their
            # credit/owner lists and the channel endpoints never move after
            # ``finalize``, so the grant loop indexes plain tuples instead
            # of chasing attributes per moved flit.  The per-VC flit sinks
            # are None exactly for ejection ports (they have a sink, no
            # channel), the per-VC credit events exactly for injection
            # ports.
            self._rinfo.append((
                router, router._cell_base, len(router._input_order),
                router._req_masks, router._req_outs, router._req_active,
                router._out_pos,
                allocator, allocator._in_ptr, allocator._out_ptr,
                allocator._num_vcs, allocator._num_inputs,
                len(router._eject_ids) <= 1, blocked_by_pos,
                eject_pos, router.coord,
                router.net_index, router._grant_scratch,
                tuple(out.credits for out in outs),
                tuple(out.owner for out in outs),
                tuple(out.free_vc for out in outs),
                tuple(out.channel._flit_sinks
                      if out.channel is not None else None for out in outs),
                tuple(out.port_id for out in outs),
                tuple(ch._credit_events if ch is not None else None
                      for ch in router._in_channel_by_pos),
                {} if dor_pure and not router.spec.half else None,
                tuple(router._out_pos.get(p, -2)
                      if not isinstance(p, tuple) else -2
                      for p in router._input_order),
            ))

    # -- the screen ----------------------------------------------------------

    def sweep(self, now: int) -> None:
        """One router phase: screen all cells, touch only the actionable
        ones.  Twin of ``Router.step`` — any semantic change must land in
        both.

        The network sweeps every cycle while any flit is buffered, and
        every calendar entry belongs to a buffered front booked for a
        later cycle, so each entry is collected exactly on its cycle."""
        due = self.pending.pop(now, 0)
        ready = self.ready
        if due:
            ready |= due
            self.ready = ready
        cand = ready & (self.ok | (self.need & ~self.blocked))
        if not cand:
            return
        cells = []
        append = cells.append
        while cand:
            low = cand & -cand
            append(low.bit_length() - 1)
            cand ^= low
        self.process_cells(now, cells)

    def process_cells(self, now: int, cells: List[int]) -> None:
        """Grant pass over a non-empty, ascending candidate cell list."""
        cell_router = self.cell_router
        cell_info = self.cell_info
        rinfo = self._rinfo
        ends = self.ends
        vpc = self.num_vcs
        ready = self.ready
        ok = self.ok
        need = self.need
        blocked = self.blocked
        pending = self.pending
        net = self.net
        net_eject = net._eject
        source_stuck = net._source_stuck
        allowed_vcs = net.vc_config.allowed_vcs
        allowed_get = net.vc_config._allowed.get
        routing = net.routing
        next_port = routing.next_port
        eject = Direction.EJECT
        fixed = self._fixed_allowed
        if fixed is not None:
            fixed_req, fixed_rep = fixed
        else:
            fixed_req = fixed_rep = None
        request_class = TrafficClass.REQUEST
        # Flits and credits sent this cycle, in send order; merged into
        # the link calendars' due buckets once at the end.
        flits_sent = []
        credits_sent = []
        moved = 0
        i = 0
        n = len(cells)
        while i < n:
            ci = cells[i]
            r = cell_router[ci]
            (router, base, n_in, req_masks, req_outs, active, out_pos_map,
             allocator, in_ptr, out_ptr, a_num_vcs, a_n_in,
             blockable, blocked_by_pos, eject_pos, coord, node_idx, grants,
             credits_by_pos, owner_by_pos, freevc_by_pos,
             sinks_by_pos, pid_by_pos, credit_events_by_pos,
             route_memo, uturn_by_pos) = rinfo[r]
            # Replay the rotation increments of the skipped cycles: the
            # reference advances ``_va_rotate`` once per occupied cycle.
            rotate = (router._va_rotate + now - router._last_step - 1) % n_in
            router._va_rotate = (rotate + 1) % n_in
            router._last_step = now
            end = ends[r]
            j = i + 1
            while j < n and cells[j] < end:
                j += 1
            tracer = router.tracer

            if j - i == 1:
                # Fast path: the router's only actionable cell.  The screen
                # conditions coincide with the switch-request conditions of
                # the reference scan, so a single candidate means at most
                # one switch request — the separable allocator trivially
                # grants it (twin of ``allocate_fast``'s pointer updates).
                i = j
                bit = 1 << ci
                pos, in_vc, in_port, vc_state = cell_info[ci]
                buf = vc_state.buffer
                out_vc = vc_state.out_vc
                if out_vc is None:
                    # need: route (once) and attempt VC allocation.
                    packet = buf[0].packet
                    out_port = vc_state.out_port
                    if out_port is None:
                        memoized = (route_memo.get(packet.dest)
                                    if route_memo is not None else None)
                        if memoized is not None:
                            direction, o = memoized
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                            else:
                                if o == uturn_by_pos[pos]:
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} (full): "
                                        f"{in_port} -> {direction} for "
                                        f"packet {packet.src}->"
                                        f"{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                vc_state.out_pos = o
                        else:
                            direction = next_port(coord, packet)
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                                if route_memo is not None:
                                    route_memo[packet.dest] = (eject, -1)
                            else:
                                if not router.connectivity(in_port,
                                                           direction):
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} "
                                        f"({'half' if router.spec.half else 'full'}"
                                        f"): {in_port} -> {direction} for packet "
                                        f"{packet.src}->{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                o = out_pos_map[direction]
                                vc_state.out_pos = o
                                if route_memo is not None:
                                    route_memo[packet.dest] = (direction, o)
                    if out_port is eject:
                        router._vc_allocate(in_port, in_vc, vc_state, packet,
                                            now)
                        out_vc = vc_state.out_vc
                        if out_vc is None:
                            if blockable:
                                blocked |= bit
                                blocked_by_pos[eject_pos] |= bit
                            continue
                        need ^= bit
                        ok |= bit  # ejection credits are unbounded
                    else:
                        o = vc_state.out_pos
                        if fixed is not None:
                            allowed = (fixed_req
                                       if packet.traffic_class
                                       is request_class else fixed_rep)
                        else:
                            allowed = allowed_get(
                                (packet.traffic_class, packet.group))
                            if allowed is None:
                                allowed = allowed_vcs(packet.traffic_class,
                                                      packet.group)
                        if len(allowed) == 1:
                            # Inline ``free_vc`` for the single-VC class:
                            # no rotation pointer to keep.
                            out_vc = allowed[0]
                            if owner_by_pos[o][out_vc] is not None:
                                out_vc = None
                        else:
                            out_vc = freevc_by_pos[o](allowed)
                        if out_vc is None:
                            blocked |= bit
                            blocked_by_pos[o] |= bit
                            continue
                        owner_by_pos[o][out_vc] = (in_port, in_vc)
                        vc_state.out_vc = out_vc
                        need ^= bit
                        if tracer is not None:
                            tracer.on_vc_alloc(packet, coord, out_port,
                                               out_vc, now)
                        if credits_by_pos[o][out_vc] <= 0:
                            continue
                        ok |= bit
                o = vc_state.out_pos
                # iSLIP pointer updates for the uncontended grant.
                out_ptr[o] = (pos + 1) % a_n_in
                in_ptr[pos] = (in_vc + 1) % a_num_vcs
                flit = buf.popleft()
                if buf:
                    nr = buf[0].ready
                    if nr > now:
                        ready ^= bit
                        pending[nr] = pending.get(nr, 0) | bit
                else:
                    ready ^= bit
                router.occupancy -= 1
                moved += 1
                credits_list = credits_by_pos[o]
                credits = credits_list[out_vc] - 1
                credits_list[out_vc] = credits
                if tracer is not None and flit.is_head:
                    tracer.on_switch(flit.packet, coord, pid_by_pos[o], now)
                sinks = sinks_by_pos[o]
                if sinks is None:
                    net_eject(flit, now)
                else:
                    sink = sinks[out_vc]
                    flits_sent.append((sink, flit))
                    channel = sink[0]
                    channel.flits_carried += 1
                    if tracer is not None:
                        tracer.on_link(channel, flit, now)
                credit_events = credit_events_by_pos[pos]
                if credit_events is not None:
                    credits_sent.append(credit_events[in_vc])
                else:
                    # Injection port: space freed, a stuck source node at
                    # this router can make progress again.
                    source_stuck[node_idx] = False
                if flit.is_tail:
                    owner_by_pos[o][out_vc] = None
                    vc_state.reset_route()
                    ok ^= bit
                    if buf:
                        need |= bit
                    freed = blocked_by_pos[o]
                    if freed:
                        blocked &= ~freed
                        blocked_by_pos[o] = 0
                elif credits == 0:
                    ok ^= bit
                continue

            # General path: several actionable cells in this router.
            if rotate:
                # Cells arrive ascending (port-position major); splitting at
                # the rotation pivot preserves relative order, giving the
                # exact rotated port walk of the reference scan.
                pivot = base + rotate * vpc
                k = i
                while k < j and cells[k] < pivot:
                    k += 1
                ordered = cells[k:j] + cells[i:k]
            else:
                ordered = cells[i:j]
            i = j

            reqs = []
            conflict = False
            for ci in ordered:
                pos, in_vc, in_port, vc_state = cell_info[ci]
                if vc_state.out_vc is None:
                    # need cell: front flit is a ready head without an
                    # output VC — route and attempt VC allocation, as the
                    # reference's route/VA scan does.
                    bit = 1 << ci
                    packet = vc_state.buffer[0].packet
                    out_port = vc_state.out_port
                    if out_port is None:
                        memoized = (route_memo.get(packet.dest)
                                    if route_memo is not None else None)
                        if memoized is not None:
                            direction, o = memoized
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                            else:
                                if o == uturn_by_pos[pos]:
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} (full): "
                                        f"{in_port} -> {direction} for "
                                        f"packet {packet.src}->"
                                        f"{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                vc_state.out_pos = o
                        else:
                            direction = next_port(coord, packet)
                            if direction is eject:
                                out_port = vc_state.out_port = eject
                                if route_memo is not None:
                                    route_memo[packet.dest] = (eject, -1)
                            else:
                                if not router.connectivity(in_port,
                                                           direction):
                                    raise RoutingViolation(
                                        f"illegal turn at {coord} "
                                        f"({'half' if router.spec.half else 'full'}"
                                        f"): {in_port} -> {direction} for packet "
                                        f"{packet.src}->{packet.dest} "
                                        f"group={packet.group}")
                                out_port = vc_state.out_port = direction
                                o = out_pos_map[direction]
                                vc_state.out_pos = o
                                if route_memo is not None:
                                    route_memo[packet.dest] = (direction, o)
                    if out_port is eject:
                        router._vc_allocate(in_port, in_vc, vc_state, packet,
                                            now)
                        if vc_state.out_vc is None:
                            if blockable:
                                blocked |= bit
                                blocked_by_pos[eject_pos] |= bit
                            continue
                        need ^= bit
                        ok |= bit  # ejection credits are unbounded
                    else:
                        o = vc_state.out_pos
                        if fixed is not None:
                            allowed = (fixed_req
                                       if packet.traffic_class
                                       is request_class else fixed_rep)
                        else:
                            allowed = allowed_get(
                                (packet.traffic_class, packet.group))
                            if allowed is None:
                                allowed = allowed_vcs(packet.traffic_class,
                                                      packet.group)
                        if len(allowed) == 1:
                            vc = allowed[0]
                            if owner_by_pos[o][vc] is not None:
                                vc = None
                        else:
                            vc = freevc_by_pos[o](allowed)
                        if vc is None:
                            blocked |= bit
                            blocked_by_pos[o] |= bit
                            continue
                        owner_by_pos[o][vc] = (in_port, in_vc)
                        vc_state.out_vc = vc
                        need ^= bit
                        if tracer is not None:
                            tracer.on_vc_alloc(packet, coord, out_port, vc,
                                               now)
                        if credits_by_pos[o][vc] <= 0:
                            continue
                        ok |= bit
                # ok cell (or a need cell that just allocated with
                # credits): a switch request.
                o = vc_state.out_pos
                for req in reqs:
                    if req[0] == pos or req[2] == o:
                        conflict = True
                        break
                reqs.append((pos, in_vc, o, ci, vc_state))

            if not reqs:
                continue
            if conflict:
                # Contended: drive the separable allocator exactly as the
                # reference scan does.
                for pos, in_vc, o, ci, vc_state in reqs:
                    m = req_masks[pos]
                    if not m:
                        active.append(pos)
                    req_masks[pos] = m | (1 << in_vc)
                    req_outs[pos][in_vc] = o
                # Stage order is part of the determinism contract: the
                # allocator walks active inputs in ascending position order.
                active.sort()
                allocator.allocate_fast(active, req_masks, req_outs, grants)
                for pos in active:
                    req_masks[pos] = 0
                del active[:]
                granted = [(pos, vc_idx, o, base + pos * vpc + vc_idx, None)
                           for pos, vc_idx, o in grants]
                del grants[:]
            else:
                # No two requests share an input position or an output
                # port: input-first allocation grants every one of them,
                # advancing exactly the granted pointers.  Sorting gives
                # the allocator's ascending-input grant order (positions
                # are distinct, so later tuple fields never compare).
                reqs.sort()
                granted = reqs

            for pos, vc_idx, o, ci, vc_state in granted:
                if vc_state is None:
                    vc_state = cell_info[ci][3]
                else:
                    # Inline grant: the allocator never ran, so advance
                    # the iSLIP pointers here (grant-only updates).
                    out_ptr[o] = (pos + 1) % a_n_in
                    in_ptr[pos] = (vc_idx + 1) % a_num_vcs
                bit = 1 << ci
                buf = vc_state.buffer
                flit = buf.popleft()
                if buf:
                    nr = buf[0].ready
                    if nr > now:
                        ready ^= bit
                        pending[nr] = pending.get(nr, 0) | bit
                else:
                    ready ^= bit
                router.occupancy -= 1
                moved += 1
                out_vc = vc_state.out_vc
                credits_list = credits_by_pos[o]
                credits = credits_list[out_vc] - 1
                credits_list[out_vc] = credits
                if tracer is not None and flit.is_head:
                    tracer.on_switch(flit.packet, coord, pid_by_pos[o], now)
                sinks = sinks_by_pos[o]
                if sinks is None:
                    net_eject(flit, now)
                else:
                    sink = sinks[out_vc]
                    flits_sent.append((sink, flit))
                    channel = sink[0]
                    channel.flits_carried += 1
                    if tracer is not None:
                        tracer.on_link(channel, flit, now)
                credit_events = credit_events_by_pos[pos]
                if credit_events is not None:
                    credits_sent.append(credit_events[vc_idx])
                else:
                    source_stuck[node_idx] = False
                if flit.is_tail:
                    owner_by_pos[o][out_vc] = None
                    vc_state.reset_route()
                    ok ^= bit
                    if buf:
                        need |= bit
                    freed = blocked_by_pos[o]
                    if freed:
                        blocked &= ~freed
                        blocked_by_pos[o] = 0
                elif credits == 0:
                    ok ^= bit

        self.ready = ready
        self.ok = ok
        self.need = need
        self.blocked = blocked
        # Buckets only ever hold events (never left empty: ``idle`` and
        # the audits rely on it).
        if flits_sent:
            due = now + self.latency
            bucket = self.flit_cal.get(due)
            if bucket is None:
                self.flit_cal[due] = flits_sent
            else:
                bucket.extend(flits_sent)
        if credits_sent:
            due = now + self.credit_delay
            bucket = self.credit_cal.get(due)
            if bucket is None:
                self.credit_cal[due] = credits_sent
            else:
                bucket.extend(credits_sent)
        net._buffered_flits -= moved
        stats = net.stats
        stats.crossbar_traversals += moved
        stats.buffer_reads += moved
