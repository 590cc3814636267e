"""Tests for mesh channels and the link calendars (flit delay, credit
return, in-flight introspection)."""

import random

import pytest

from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.channel import Channel
from repro.noc.network import MeshNetwork, NocParams
from repro.noc.openloop import OpenLoopRunner
from repro.noc.packet import read_reply, read_request
from repro.noc.router import RouterSpec
from repro.noc.routing import DorXY
from repro.noc.topology import Coord, Direction, Mesh
from repro.noc.traffic import UniformManyToFew
from repro.noc.vc import shared_vc_config


def flit():
    return read_request(Coord(0, 0), Coord(1, 0)).make_flits(16)[0]


def make_network(cols=3, rows=3, vcs_per_class=2, latency=1,
                 credit_delay=1):
    mesh = Mesh(cols, rows)
    params = NocParams(channel_latency=latency, credit_delay=credit_delay,
                       source_queue_flits=None)
    specs = {c: RouterSpec(c, pipeline_latency=1) for c in mesh.coords()}
    net = MeshNetwork(mesh, specs, params, shared_vc_config(vcs_per_class),
                      DorXY(mesh), seed=3)
    for node in mesh.coords():
        net.set_ejection_handler(node, lambda p, c: None)
    return net


def bound_channel(net, src, direction):
    return net.routers[src].out_ports[direction].channel


def buffered(net, ch, vc=0):
    """The flits in the input VC a channel feeds."""
    return list(ch.dst_router.in_ports[ch.dst_port][vc].buffer)


class TestChannel:
    """Channels send into their network's link calendars; the channel
    phase (:meth:`Channel.deliver`) applies a cycle's bucket."""

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            Channel(0)

    def test_rejects_zero_credit_delay(self):
        # A credit due in its own sending cycle would sit behind the pop
        # that should deliver it and be stranded.
        with pytest.raises(ValueError, match="credit delay"):
            Channel(1, 0)
        with pytest.raises(ValueError, match="credit delay"):
            make_network(credit_delay=0)

    def test_flit_arrives_after_latency(self):
        net = make_network(latency=2)
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        f = flit()
        ch.send_flit(f, 0, cycle=10)
        assert list(net._flit_cal) == [12]
        assert Channel.deliver(net, 11) == 0
        assert buffered(net, ch) == []
        assert Channel.deliver(net, 12) == 1
        assert buffered(net, ch) == [f]
        assert f.ready == 12 + ch.dst_router.pipeline_latency
        assert net._flit_cal == {}
        assert net.stats.link_flit_hops == 1

    def test_credit_returns_upstream(self):
        net = make_network(credit_delay=2)
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        credits = ch.src_router.out_ports[ch.src_port].credits
        before = list(credits)
        ch.send_credit(1, cycle=5)
        assert list(net._credit_cal) == [7]
        Channel.deliver(net, 6)
        assert credits == before
        Channel.deliver(net, 7)
        assert credits[1] == before[1] + 1 and credits[0] == before[0]
        assert net._credit_cal == {}

    def test_in_order_delivery(self):
        net = make_network(latency=2)
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        f1, f2, f3 = flit(), flit(), flit()
        ch.send_flit(f1, 0, cycle=0)
        ch.send_flit(f2, 0, cycle=1)
        ch.send_flit(f3, 0, cycle=1)
        assert list(ch.peek_flits()) == [(f1, 0), (f2, 0), (f3, 0)]
        for cycle in (2, 3):
            Channel.deliver(net, cycle)
        assert buffered(net, ch) == [f1, f2, f3]

    def test_busy_flag(self):
        net = make_network()
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        assert not ch.busy
        ch.send_flit(flit(), 0, cycle=0)
        assert ch.busy
        Channel.deliver(net, 1)
        assert not ch.busy
        ch.send_credit(0, cycle=1)
        assert ch.busy
        Channel.deliver(net, 2)
        assert not ch.busy

    def test_flit_count_stat(self):
        net = make_network()
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        for _ in range(3):
            ch.send_flit(flit(), 0, cycle=0)
        assert ch.flits_carried == 3
        assert ch.flits_in_flight() == 3
        assert ch.flits_in_flight(0) == 3
        assert ch.flits_in_flight(1) == 0

    def test_late_deliver_flushes_everything_due(self):
        # The channel phase runs every cycle, so every bucket is delivered
        # on its own due cycle; a network step that would skip a cycle
        # (and strand that cycle's bucket) is refused.
        net = make_network(latency=1)
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        f0, f1 = flit(), flit()
        ch.send_flit(f0, 0, cycle=0)
        ch.send_flit(f1, 1, cycle=3)
        with pytest.raises(ValueError, match="only step to 1"):
            net.step(5)
        assert net.cycle == 0
        assert sum(Channel.deliver(net, c) for c in range(1, 5)) == 2
        assert net._flit_cal == {}
        assert buffered(net, ch, 0) == [f0]
        assert buffered(net, ch, 1) == [f1]


class TestBoundChannel:
    """Channels inside a network send into the network's calendars."""

    def test_send_lands_in_network_calendars(self):
        net = make_network(latency=3, credit_delay=2)
        ch = bound_channel(net, Coord(0, 0), Direction.EAST)
        f = flit()
        ch.send_flit(f, 1, cycle=10)
        ch.send_credit(0, cycle=10)
        ((sink, sent),) = net._flit_cal[13]
        assert sent is f
        assert sink[:3] == (ch, 1, ch.dst_router)
        assert sink[3] is ch.dst_router.in_ports[ch.dst_port][1]
        (event,) = net._credit_cal[12]
        assert event[2:] == (0, ch.src_router, ch)
        assert event[0] is ch.src_router.out_ports[ch.src_port].credits
        assert ch.flits_in_flight() == 1 and ch.credits_in_flight() == 1
        assert ch.busy and not net.idle
        # Other channels share the calendars but not the events.
        other = bound_channel(net, Coord(1, 0), Direction.EAST)
        assert not other.busy

    def test_unbound_channel_carries_nothing(self):
        ch = Channel()
        assert not ch.busy and list(ch.peek_flits()) == []
        with pytest.raises(TypeError):
            ch.send_flit(flit(), 0, cycle=0)

    @pytest.mark.parametrize("latency", (1, 3))
    def test_hop_latency_and_credit_return(self, latency):
        net = make_network(cols=2, rows=1, latency=latency)
        src, dst = Coord(0, 0), Coord(1, 0)
        ejected = []
        net.set_ejection_handler(dst, lambda p, c: ejected.append(c))
        ch = bound_channel(net, src, Direction.EAST)
        out = net.routers[src].out_ports[Direction.EAST]
        net.try_inject(read_request(src, dst), 0)
        sent_at = None
        while not net.idle:
            net.step()
            if sent_at is None and ch.flits_carried:
                sent_at = net.cycle
                assert list(net._flit_cal) == [sent_at + latency]
        assert ejected
        assert net._flit_cal == {} and net._credit_cal == {}
        assert out.credits == [net.params.vc_buffer_depth] * len(out.credits)


def _brute_force(net):
    flits, credits, peeks = {}, {}, {}
    for due in sorted(net._flit_cal):
        for sink, f in net._flit_cal[due]:
            key = (sink[0], sink[1])
            flits[key] = flits.get(key, 0) + 1
            peeks.setdefault(sink[0], []).append((f, sink[1]))
    for bucket in net._credit_cal.values():
        for event in bucket:
            key = (event[4], event[2])
            credits[key] = credits.get(key, 0) + 1
    return flits, credits, peeks


class TestLiveCalendars:
    def test_introspection_matches_calendars_at_saturation(self):
        system = build(open_loop_variant(design_by_name("TB-DOR")),
                       Mesh(4, 4), num_mcs=4, seed=5)
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.3,
                                seed=5)
        runner.run(warmup=150, measure=50)
        (net,) = system.networks
        assert net._flit_cal and net._credit_cal
        flits, credits, peeks = _brute_force(net)
        num_vcs = net.vc_config.num_vcs
        for ch in net.channels:
            for vc in range(num_vcs):
                assert ch.flits_in_flight(vc) == flits.get((ch, vc), 0)
                assert ch.credits_in_flight(vc) == credits.get((ch, vc), 0)
            assert ch.flits_in_flight() == sum(
                flits.get((ch, vc), 0) for vc in range(num_vcs))
            assert list(ch.peek_flits()) == peeks.get(ch, [])
            assert ch.busy == bool(ch.flits_in_flight()
                                   or ch.credits_in_flight())

    def test_idle_exactly_when_queues_and_calendars_empty(self):
        net = make_network()
        rng = random.Random(9)
        nodes = list(net.mesh.coords())
        for i in range(300):
            if i < 120:
                src, dst = rng.sample(nodes, 2)
                net.try_inject(read_reply(src, dst), net.cycle)
            net.step()
            empty = not (net._source_flits or net._buffered_flits
                         or net._flit_cal or net._credit_cal)
            assert net.idle == empty
            assert all(net._flit_cal.values())
            assert all(net._credit_cal.values())
        assert net.idle

    def test_reference_round_trip_at_idle(self):
        net = make_network()
        src, dst = Coord(0, 0), Coord(2, 2)
        assert net.try_inject(read_reply(src, dst), 0)
        for _ in range(3):
            net.step()
        assert not net.idle
        with pytest.raises(RuntimeError, match="idle"):
            net.use_reference_stepper()
        net.run_until_idle()
        with net.use_stepper("reference"):
            assert net.stepper_backend == "reference"
            net.try_inject(read_reply(src, dst), net.cycle)
            net.run_until_idle()
        assert net.stepper_backend == "batched"
        net.try_inject(read_reply(dst, src), net.cycle)
        net.run_until_idle()
        assert net.stats.packets_ejected == 3
        assert net._flit_cal == {} and net._credit_cal == {}
