"""Tests for the runtime invariant checker and deadlock watchdog.

Three kinds of coverage:

* clean runs — the audits hold under load for every named design, open and
  closed loop, and enabling them never changes results (golden test);
* seeded fault injection — corrupting a credit, a counter, or VC ownership
  is detected and reported with a useful message;
* forced deadlock — a routing cycle on a tiny ring trips the watchdog,
  whose dump names the oldest stuck packet and its planned route.
"""

import random

import pytest

from repro.core.builder import (BASELINE, NAMED_DESIGNS, build,
                                checked_variant, design_by_name)
from repro.noc.invariants import (DeadlockError, InvariantChecker,
                                  InvariantViolation, audit_accelerator,
                                  audit_network, check_network,
                                  format_network_state)
from repro.noc.network import MeshNetwork, NocParams
from repro.noc.packet import RouteGroup, read_reply, read_request
from repro.noc.router import RouterSpec
from repro.noc.routing import DorXY, RoutingAlgorithm
from repro.noc.topology import Coord, Direction, Mesh
from repro.noc.vc import shared_vc_config
from repro.system.accelerator import build_chip
from repro.workloads.profiles import profile


def make_network(cols=4, rows=4, vcs_per_class=2, depth=8, width=16,
                 check_interval=0, watchdog_cycles=0, routing=None,
                 latency=1):
    mesh = Mesh(cols, rows)
    params = NocParams(channel_width=width, vc_buffer_depth=depth,
                       source_queue_flits=None,
                       check_interval=check_interval,
                       watchdog_cycles=watchdog_cycles)
    specs = {c: RouterSpec(c, pipeline_latency=latency)
             for c in mesh.coords()}
    routing = routing or DorXY(mesh)
    net = MeshNetwork(mesh, specs, params, shared_vc_config(vcs_per_class),
                      routing, seed=3)
    for node in mesh.coords():
        net.set_ejection_handler(node, lambda p, c: None)
    return net


def drive_random_traffic(net, packets=120, seed=5):
    rng = random.Random(seed)
    nodes = list(net.mesh.coords())
    for i in range(packets):
        src, dst = rng.sample(nodes, 2)
        p = read_reply(src, dst) if i % 3 else read_request(src, dst)
        net.try_inject(p, net.cycle)
        if i % 4 == 0:
            net.step()


class TestCleanAudits:
    def test_audits_pass_under_load(self):
        net = make_network(check_interval=8)
        drive_random_traffic(net)
        net.run_until_idle()
        assert net.checker.audits_run > 0
        assert audit_network(net) == []

    def test_midflight_audit_every_cycle(self):
        """The conservation laws hold at *every* cycle, not just at drain."""
        net = make_network(check_interval=1, watchdog_cycles=1000)
        drive_random_traffic(net)
        net.run_until_idle()
        assert net.checker.audits_run >= net.cycle

    def test_audits_pass_for_all_named_designs(self):
        prof = profile("RD")
        for name in sorted(NAMED_DESIGNS):
            design = checked_variant(design_by_name(name),
                                     check_interval=32,
                                     watchdog_cycles=20_000)
            chip = build_chip(prof, design=design, seed=11)
            chip.run(warmup=60, measure=120)
            assert chip.audit() == [], name

    def test_network_system_audit_covers_both_slices(self):
        design = checked_variant(design_by_name("Double-CP-CR"),
                                 check_interval=16)
        system = build(design)
        assert len(system.networks) == 2
        for net in system.networks:
            assert net.checker is not None
        assert system.audit() == []


class TestGoldenBitIdentical:
    def test_closed_loop_results_identical_with_checks(self):
        prof = profile("RD")
        base = build_chip(prof, design=BASELINE, seed=11)
        plain = base.run(warmup=80, measure=160)
        checked = build_chip(
            prof, design=checked_variant(BASELINE, check_interval=16,
                                         watchdog_cycles=10_000),
            seed=11)
        audited = checked.run(warmup=80, measure=160)
        assert audited.as_dict() == plain.as_dict()

    def test_open_loop_stats_identical_with_checks(self):
        def run(check_interval):
            net = make_network(check_interval=check_interval)
            drive_random_traffic(net)
            net.run_until_idle()
            return net
        plain, checked = run(0), run(4)
        assert plain.checker is None
        assert checked.checker.audits_run > 0
        for attr in ("cycles", "packets_offered", "flits_offered",
                     "packets_injected", "flits_injected",
                     "packets_ejected", "flits_ejected"):
            assert getattr(checked.stats, attr) == getattr(plain.stats, attr)
        assert (checked.stats.mean_packet_latency()
                == plain.stats.mean_packet_latency())
        assert checked.stats.node_ejected_flits == plain.stats.node_ejected_flits


def quiesced_network():
    net = make_network(check_interval=8)
    drive_random_traffic(net, packets=40)
    net.run_until_idle()
    assert audit_network(net) == []
    return net


def mesh_out_port(net):
    """Some router output port that feeds a mesh channel."""
    router = net.routers[Coord(1, 1)]
    return router.out_ports[Direction.EAST]


class TestFaultInjection:
    def test_stolen_credit_detected(self):
        net = quiesced_network()
        mesh_out_port(net).credits[0] -= 1
        problems = audit_network(net)
        assert any("credit conservation broken" in p for p in problems)
        with pytest.raises(InvariantViolation) as err:
            check_network(net)
        assert "credit conservation broken" in str(err.value)

    def test_counterfeit_credit_detected(self):
        net = quiesced_network()
        mesh_out_port(net).credits[1] += 1
        problems = audit_network(net)
        assert any("credit conservation broken" in p for p in problems)
        assert any("vc 1" in p for p in problems)

    def test_corrupt_flit_counter_detected(self):
        net = quiesced_network()
        net.stats.flits_injected += 1
        problems = audit_network(net)
        assert any("flit conservation broken" in p for p in problems)

    def test_offered_injected_skew_detected(self):
        net = quiesced_network()
        net.stats.flits_offered += 2
        problems = audit_network(net)
        assert any("offered/injected skew" in p for p in problems)

    def test_phantom_vc_owner_detected(self):
        net = quiesced_network()
        mesh_out_port(net).owner[0] = (Direction.WEST, 0)
        problems = audit_network(net)
        assert any("points elsewhere" in p for p in problems)

    def test_corrupt_occupancy_counter_detected(self):
        net = quiesced_network()
        net.routers[Coord(0, 0)].occupancy += 1
        problems = audit_network(net)
        assert any("occupancy counter" in p for p in problems)

    def test_cleared_screen_ready_bit_detected(self):
        """Dropping a ready front flit from the batched core's screen
        would starve its cell for good; the audit must name the cell."""
        net = make_network()
        drive_random_traffic(net)
        core = net._batched
        for _ in range(200):
            if core.ready:
                break
            net.step()
        assert core.ready, "traffic never left a ready front waiting"
        assert audit_network(net) == []
        core.ready &= core.ready - 1       # clear the lowest ready bit
        problems = audit_network(net)
        assert any("screen ready bit" in p for p in problems)

    def test_empty_calendar_bucket_detected(self):
        """An empty bucket would keep ``idle`` false forever."""
        net = quiesced_network()
        net._credit_cal[net.cycle + 1] = []
        assert not net.idle
        problems = audit_network(net)
        assert any("empty credit calendar bucket" in p for p in problems)

    def test_stale_calendar_bucket_detected(self):
        """A bucket at or before the current cycle is never popped: its
        flits would vanish from the network while still counted."""
        net = make_network()
        drive_random_traffic(net)
        for _ in range(200):
            if net._flit_cal:
                break
            net.step()
        assert net._flit_cal, "traffic never put a flit on a link"
        assert audit_network(net) == []
        due = min(net._flit_cal)
        net._flit_cal[net.cycle] = net._flit_cal.pop(due)
        problems = audit_network(net)
        assert any("stale flit calendar bucket" in p for p in problems)

    def test_foreign_channel_event_detected(self):
        net = quiesced_network()
        other = make_network()
        net._credit_cal[net.cycle + 1] = [
            other.channels[0]._credit_events[0]]
        problems = audit_network(net)
        assert any("outside the network" in p for p in problems)

    def test_checker_audit_raises_with_dump(self):
        net = quiesced_network()
        mesh_out_port(net).credits[0] -= 1
        with pytest.raises(InvariantViolation) as err:
            net.checker.audit()
        assert "=== state of network" in str(err.value)


class ClockwiseRing(RoutingAlgorithm):
    """Routes every packet clockwise around the 2x2 perimeter; a textbook
    cyclic channel dependency with no VC escape — guaranteed deadlock."""

    _STEP = {
        Coord(0, 0): Direction.EAST,
        Coord(1, 0): Direction.SOUTH,
        Coord(1, 1): Direction.WEST,
        Coord(0, 1): Direction.NORTH,
    }

    def plan(self, packet, rng=None):
        packet.group = RouteGroup.ANY
        packet.intermediate = None
        packet.phase = 1

    def next_port(self, coord, packet):
        if coord == packet.dest:
            return Direction.EJECT
        return self._STEP[coord]


def deadlocked_ring(watchdog_cycles=0):
    """2x2 ring, depth-2 buffers, one 4-flit packet per corner, each headed
    three hops clockwise: every worm holds one channel VC while waiting for
    the next — a hold-and-wait cycle."""
    mesh = Mesh(2, 2)
    net = make_network(cols=2, rows=2, vcs_per_class=1, depth=2,
                       watchdog_cycles=watchdog_cycles,
                       routing=ClockwiseRing(mesh))
    ring = [Coord(0, 0), Coord(1, 0), Coord(1, 1), Coord(0, 1)]
    for i, src in enumerate(ring):
        dest = ring[(i + 3) % 4]      # three clockwise hops away
        net.try_inject(read_reply(src, dest), 0)
    return net


class TestDeadlockWatchdog:
    def test_routing_cycle_trips_watchdog(self):
        net = deadlocked_ring(watchdog_cycles=64)
        with pytest.raises(DeadlockError) as err:
            for _ in range(5_000):
                net.step()
        message = str(err.value)
        assert "no flit moved" in message
        assert "oldest stuck packet" in message
        assert "planned route" in message

    def test_dump_names_the_stuck_packet(self):
        net = deadlocked_ring(watchdog_cycles=64)
        pids = {p.pid for ports in net._sources.values()
                for port in ports for p in port.fifo}
        with pytest.raises(DeadlockError) as err:
            for _ in range(5_000):
                net.step()
        oldest = min(pids)
        assert f"p{oldest}" in str(err.value)

    def test_run_until_idle_dumps_state(self):
        net = deadlocked_ring()
        with pytest.raises(DeadlockError) as err:
            net.run_until_idle(max_cycles=500)
        message = str(err.value)
        assert "failed to drain" in message
        assert "oldest stuck packet" in message

    def test_watchdog_quiet_on_live_traffic(self):
        net = make_network(watchdog_cycles=32)
        drive_random_traffic(net)
        net.run_until_idle()          # must not raise
        assert net.idle

    def test_checker_rejects_negative_intervals(self):
        net = make_network()
        with pytest.raises(ValueError):
            InvariantChecker(net, check_interval=-1)


class TestSystemAudit:
    @staticmethod
    def chip_with_outstanding_requests():
        design = checked_variant(BASELINE, check_interval=32)
        chip = build_chip(profile("RD"), design=design, seed=11)
        for _ in range(400):
            chip.step()
            if any(core.mshrs.issued_lines() for core in chip.cores):
                break
        assert any(core.mshrs.issued_lines() for core in chip.cores)
        return chip

    def test_request_conservation_holds_midflight(self):
        chip = self.chip_with_outstanding_requests()
        assert audit_accelerator(chip) == []

    def test_vanished_request_detected(self):
        chip = self.chip_with_outstanding_requests()
        core = next(c for c in chip.cores if c.mshrs.issued_lines())
        line = core.mshrs.issued_lines()[0]
        entry = core.mshrs._entries.pop(line)
        problems = audit_accelerator(chip)
        assert any("orphan in-flight request" in p for p in problems)
        core.mshrs._entries[line] = entry
        assert audit_accelerator(chip) == []

    def test_phantom_mshr_detected(self):
        chip = self.chip_with_outstanding_requests()
        core = chip.cores[0]
        entry = core.mshrs.allocate(0xDEAD000, waiter=0)
        entry.issued = True
        problems = audit_accelerator(chip)
        assert any("request conservation broken" in p for p in problems)

    def test_periodic_system_check_runs_clean(self):
        design = checked_variant(BASELINE, check_interval=16)
        chip = build_chip(profile("RD"), design=design, seed=11)
        for _ in range(300):
            chip.step()               # check_accelerator runs inline
        assert chip.audit() == []


class TestStateDump:
    def test_dump_shows_traffic(self):
        net = make_network()
        net.try_inject(read_reply(Coord(0, 0), Coord(3, 3)), 0)
        for _ in range(4):
            net.step()
        dump = format_network_state(net)
        assert "=== state of network" in dump
        assert "oldest stuck packet" in dump
        assert "planned route" in dump

    def test_dump_route_is_read_only(self):
        """Planning the dump's route must not advance ROMM phase state."""
        net = make_network()
        p = read_reply(Coord(0, 0), Coord(3, 3))
        net.try_inject(p, 0)
        for _ in range(4):
            net.step()
        phase_before = p.phase
        format_network_state(net)
        assert p.phase == phase_before


class TestActivityCounterConservation:
    """The power model's always-on counters cross-checked against two
    independent accountings: the per-link flit tracer and the per-packet
    hop traces (DESIGN.md §17)."""

    def traced_drained_network(self):
        from repro.telemetry.trace import PacketTracer
        net = make_network(check_interval=8)
        tracer = PacketTracer()
        net.enable_tracer(tracer)
        drive_random_traffic(net)
        net.run_until_idle()
        assert audit_network(net) == []
        return net, tracer

    def test_link_hops_match_tracer_per_link_counts(self):
        # The tracer counts every flit crossing every channel on its own
        # event hook — fully independent of the stats counter.
        net, tracer = self.traced_drained_network()
        traced = sum(sum(counts) for counts in tracer.link_flits.values())
        assert net.stats.link_flit_hops == traced > 0

    def test_link_hops_match_flits_times_hops_from_traces(self):
        # Per packet: hop records count router arrivals, so link
        # traversals are (hops - 1); each moves the packet's every flit.
        net, tracer = self.traced_drained_network()
        width = net.params.channel_width
        assert tracer.incomplete == 0 and tracer.dropped_traces == 0
        expected = sum(
            (trace.num_hops - 1) * max(1, -(-trace.size_bytes // width))
            for trace in tracer.completed)
        assert net.stats.link_flit_hops == expected

    def test_drained_counters_telescope(self):
        net, _ = self.traced_drained_network()
        stats = net.stats
        # at drain nothing is buffered or staged: reads caught up with
        # writes, and every write was an injection or a link delivery
        assert stats.crossbar_traversals == stats.buffer_reads
        assert stats.buffer_writes == stats.buffer_reads
        assert stats.buffer_writes \
            == stats.flits_injected + stats.link_flit_hops

    def test_corrupt_activity_counter_detected(self):
        net = quiesced_network()
        net.stats.buffer_writes += 1
        problems = audit_network(net)
        assert any("activity counter skew" in p for p in problems)

    def test_corrupt_link_hop_counter_detected(self):
        net = quiesced_network()
        net.stats.link_flit_hops -= 1
        problems = audit_network(net)
        assert any("link_flit_hops" in p for p in problems)
