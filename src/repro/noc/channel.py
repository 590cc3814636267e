"""Mesh channels: pipelined flit delivery plus upstream credit return.

Traffic in flight does not live on the channel.  A channel inside a
:class:`~repro.noc.network.MeshNetwork` is *bound* to the network's two
link calendars, ``{due_cycle: [event, ...]}``: a flit sent at cycle ``t``
is appended to the ``t + latency`` bucket of the flit calendar as
``(sink, flit)``, a credit to the ``t + credit_delay`` bucket of the
credit calendar.  ``sink`` and the credit event are static per-(channel,
VC) tuples built once at network construction::

    sink   = (channel, vc, dst_router, dst_input_vc, cell_bit, dst_port)
    credit = (credits_list, owner_list, vc, src_router, channel)

At the start of each cycle the network hands the current buckets to
:meth:`Channel.deliver`, the channel phase of both steppers, which
applies them in one flat loop.

Delivery order within a cycle is therefore *send order*, not the older
"per channel, channels in activation order".  This is bit-identical:

* each input-VC buffer is fed by exactly one channel, and the events of
  one channel keep their FIFO order inside a bucket;
* every other effect of a delivery commutes with the others: credit
  increments, the batched core's mask ORs and ``pending`` keys, the
  ``Router._last_step = now - 1`` anchor, the stats counters, and the
  tracer's per-packet hop records and per-link counts.

Both delays must be at least one cycle: a bucket due at the sending
cycle would land behind the pop that should have delivered it.  For the
same reason the network steps one cycle at a time; a bucket is delivered
only on its own due cycle.

A channel carries traffic only once its network has bound it to the
calendars (:meth:`Channel.bind`).
"""

from __future__ import annotations

from typing import Dict, Optional

from .packet import Flit
from .topology import PortId


class Channel:
    """A unidirectional channel between two routers.

    Flits travel downstream with ``latency`` cycles of delay; credits travel
    upstream (toward the sending router's output port) with ``credit_delay``
    cycles of delay.
    """

    __slots__ = ("latency", "credit_delay", "src_router", "src_port",
                 "dst_router", "dst_port", "flits_carried", "tracer",
                 "_flit_cal", "_credit_cal", "_flit_sinks", "_credit_events")

    def __init__(self, latency: int = 1, credit_delay: int = 1) -> None:
        if latency < 1:
            raise ValueError("channel latency must be at least 1 cycle")
        if credit_delay < 1:
            raise ValueError("credit delay must be at least 1 cycle")
        self.latency = latency
        self.credit_delay = credit_delay
        self.src_router = None
        self.src_port: Optional[PortId] = None
        self.dst_router = None
        self.dst_port: Optional[PortId] = None
        self.flits_carried = 0
        #: Opt-in per-link flit tracer (``repro.telemetry``); ``None``
        #: keeps the send path at a single attribute test.
        self.tracer = None
        #: The network's calendars and this channel's per-VC static
        #: events, set by :meth:`bind` (empty / ``None`` until then).
        self._flit_cal: Dict[int, list] = {}
        self._credit_cal: Dict[int, list] = {}
        self._flit_sinks: Optional[tuple] = None
        self._credit_events: Optional[tuple] = None

    def connect(self, src_router, src_port: PortId,
                dst_router, dst_port: PortId) -> None:
        self.src_router = src_router
        self.src_port = src_port
        self.dst_router = dst_router
        self.dst_port = dst_port

    def bind(self, flit_cal: Dict[int, list], credit_cal: Dict[int, list],
             flit_sinks: tuple, credit_events: tuple) -> None:
        """Send into a network's shared calendars from now on (the
        network delivers them); called once, before any traffic."""
        self._flit_cal = flit_cal
        self._credit_cal = credit_cal
        self._flit_sinks = flit_sinks
        self._credit_events = credit_events

    def send_flit(self, flit: Flit, vc: int, cycle: int) -> None:
        event = (self._flit_sinks[vc], flit)
        due = cycle + self.latency
        bucket = self._flit_cal.get(due)
        if bucket is None:
            self._flit_cal[due] = [event]
        else:
            bucket.append(event)
        self.flits_carried += 1
        if self.tracer is not None:
            self.tracer.on_link(self, flit, cycle)

    def send_credit(self, vc: int, cycle: int) -> None:
        event = self._credit_events[vc]
        due = cycle + self.credit_delay
        bucket = self._credit_cal.get(due)
        if bucket is None:
            self._credit_cal[due] = [event]
        else:
            bucket.append(event)

    @classmethod
    def deliver(cls, net, now: int) -> int:
        """Channel phase of ``net`` (a ``MeshNetwork``), shared by both
        steppers: pop the link calendars' buckets due at cycle ``now``
        and apply every event in send order (exact, see the module
        docstring); returns the number of flits handed to routers.

        A flit arrival is the mesh-input twin of the source phase's
        injection (``MeshNetwork._source_phase``); any semantic change
        to one must be checked against the other."""
        flits = net._flit_cal.pop(now, None)
        credits = net._credit_cal.pop(now, None)
        screen = net._batched
        if screen is not None:
            pending = screen.pending
            need = screen.need
        arrived = 0
        if flits is not None:
            depth = net.params.vc_buffer_depth
            tracer = net.tracer
            for (_channel, vc, dst, state, bit, port), flit in flits:
                buf = state.buffer
                queued = len(buf)
                if queued >= depth:
                    raise RuntimeError(
                        f"buffer overflow at {dst.coord} port {port} vc "
                        f"{vc}: credit accounting violated")
                if not dst.occupancy:
                    # Empty -> occupied: re-anchor the VA rotation clock at
                    # the cycle the scan stepper first steps this router —
                    # this same cycle (the router phase follows this one).
                    dst._last_step = now - 1
                # Uncontended per-hop latency = pipeline_latency + channel
                # latency (5 cycles for the 4-stage baseline, Section
                # III-B).
                ready = flit.ready = now + dst.pipeline_latency
                buf.append(flit)
                dst.occupancy += 1
                if not queued and screen is not None:
                    # The flit became the cell's front: book its pipeline
                    # ready cycle (and a fresh head's VA obligation).
                    pending[ready] = pending.get(ready, 0) | bit
                    if state.out_vc is None:
                        need |= bit
                if tracer is not None and flit.is_head:
                    tracer.on_hop_arrive(flit.packet, dst.coord, port, now)
            arrived = len(flits)
            net._buffered_flits += arrived
            stats = net.stats
            stats.link_flit_hops += arrived
            stats.buffer_writes += arrived
        if credits is not None:
            if screen is not None:
                ok = screen.ok
            for credit_list, owner_list, vc, src, _channel in credits:
                count = credit_list[vc] + 1
                credit_list[vc] = count
                if count == 1 and screen is not None:
                    # 0 -> 1: the owning input cell (if any) is a switch
                    # request again.
                    owner = owner_list[vc]
                    if owner is not None:
                        ok |= 1 << (src._cell_base
                                    + src._in_pos[owner[0]] * src.num_vcs
                                    + owner[1])
            if screen is not None:
                screen.ok = ok
        if screen is not None:
            screen.need = need
        return arrived

    @property
    def busy(self) -> bool:
        return bool(self.flits_in_flight() or self.credits_in_flight())

    # -- read-only introspection (invariant checker / state dumps) ----------
    # These scan the calendars, which are shared network-wide: they are
    # for the checker path, never the cycle loop.

    def flits_in_flight(self, vc: Optional[int] = None) -> int:
        """Flits currently travelling this channel (optionally one VC's)."""
        return sum(1 for bucket in self._flit_cal.values()
                   for sink, _ in bucket
                   if sink[0] is self and (vc is None or sink[1] == vc))

    def credits_in_flight(self, vc: Optional[int] = None) -> int:
        """Credits currently travelling upstream (optionally one VC's)."""
        return sum(1 for bucket in self._credit_cal.values()
                   for event in bucket
                   if event[4] is self and (vc is None or event[2] == vc))

    def peek_flits(self):
        """Yield (flit, vc) for every flit in flight, delivery order."""
        cal = self._flit_cal
        for due in sorted(cal):
            for sink, flit in cal[due]:
                if sink[0] is self:
                    yield flit, sink[1]
