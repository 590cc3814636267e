"""Tests for design points, placement and network assembly."""

import dataclasses

import pytest

from repro.core.builder import (BASELINE, CP_CR, CP_DOR, DOUBLE_BW,
                                DOUBLE_CP_CR, DOUBLE_CP_CR_2P,
                                DOUBLE_CP_CR_DEDICATED, NAMED_DESIGNS,
                                THROUGHPUT_EFFECTIVE, NetworkDesign,
                                build, design_by_name, open_loop_variant)
from repro.core.placement import (DEFAULT_CHECKERBOARD_6X6,
                                  checkerboard_placement, compute_nodes,
                                  random_checkerboard_placements,
                                  top_bottom_placement,
                                  validate_checkerboard_placement)
from repro.noc.packet import TrafficClass, read_reply, read_request
from repro.noc.topology import Coord, Mesh

MESH = Mesh(6, 6)


class TestPlacement:
    def test_top_bottom_rows(self):
        mcs = top_bottom_placement(MESH, 8)
        assert len(mcs) == 8
        assert sum(1 for m in mcs if m.y == 0) == 4
        assert sum(1 for m in mcs if m.y == 5) == 4

    def test_checkerboard_default_is_valid(self):
        mcs = checkerboard_placement(MESH, 8)
        assert mcs == list(DEFAULT_CHECKERBOARD_6X6)
        validate_checkerboard_placement(MESH, mcs)

    def test_checkerboard_spreads_edges(self):
        mcs = checkerboard_placement(MESH, 8)
        assert any(m.y == 0 for m in mcs)
        assert any(m.y == 5 for m in mcs)
        assert any(m.x == 0 for m in mcs)
        assert any(m.x == 5 for m in mcs)

    def test_validation_rejects_full_router_tiles(self):
        with pytest.raises(ValueError):
            validate_checkerboard_placement(MESH, [Coord(0, 0)])

    def test_validation_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_checkerboard_placement(
                MESH, [Coord(1, 0), Coord(1, 0)])

    def test_validation_rejects_outside(self):
        with pytest.raises(ValueError):
            validate_checkerboard_placement(MESH, [Coord(7, 0)])

    def test_compute_nodes_complement(self):
        mcs = checkerboard_placement(MESH, 8)
        cores = compute_nodes(MESH, mcs)
        assert len(cores) == 28
        assert set(cores).isdisjoint(mcs)

    def test_random_placements_valid_and_distinct(self):
        placements = list(random_checkerboard_placements(MESH, 8, 5, seed=1))
        assert len(placements) == 5
        seen = set()
        for p in placements:
            validate_checkerboard_placement(MESH, p)
            seen.add(tuple(p))
        assert len(seen) == 5

    def test_generic_mesh_placement(self):
        mesh = Mesh(8, 8)
        mcs = checkerboard_placement(mesh, 8)
        validate_checkerboard_placement(mesh, mcs)


class TestDesignValidation:
    def test_cr_requires_half_routers(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASELINE, routing="cr",
                                vcs_per_class=2).validate()

    def test_cr_requires_two_vcs(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CP_CR, vcs_per_class=1).validate()

    def test_half_routers_require_checkerboard_placement(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASELINE, half_routers=True).validate()

    def test_unknown_slice_mode(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DOUBLE_CP_CR, slice_mode="x").validate()

    def test_named_designs_all_valid(self):
        for design in NAMED_DESIGNS.values():
            design.validate()

    def test_design_by_name(self):
        assert design_by_name("TB-DOR") is BASELINE
        with pytest.raises(KeyError):
            design_by_name("nope")

    def test_throughput_effective_composition(self):
        d = THROUGHPUT_EFFECTIVE
        assert d.placement == "checkerboard"
        assert d.routing == "cr"
        assert d.half_routers
        assert d.double_network
        assert d.mc_inject_ports == 2
        assert d.mc_eject_ports == 1    # paper drops the extra ejection port

    def test_open_loop_variant(self):
        assert open_loop_variant(BASELINE).source_queue_flits is None


class TestBuild:
    def test_baseline_structure(self):
        system = build(BASELINE)
        assert len(system.networks) == 1
        assert len(system.mc_nodes) == 8
        assert len(system.compute_nodes) == 28
        net = system.networks[0]
        assert net.params.channel_width == 16
        assert net.vc_config.num_vcs == 2
        assert all(not r.spec.half for r in net.routers.values())

    def test_cp_cr_structure(self):
        system = build(CP_CR)
        net = system.networks[0]
        assert net.vc_config.num_vcs == 4
        halves = [c for c, r in net.routers.items() if r.spec.half]
        assert len(halves) == 18
        assert all(c.parity() == 1 for c in halves)
        assert all(mc.parity() == 1 for mc in system.mc_nodes)

    def test_half_router_pipeline_shorter(self):
        system = build(CP_CR)
        net = system.networks[0]
        assert net.routers[Coord(1, 0)].pipeline_latency == 3
        assert net.routers[Coord(0, 0)].pipeline_latency == 4

    def test_double_network_structure(self):
        system = build(DOUBLE_CP_CR)
        assert len(system.networks) == 2
        for net in system.networks:
            assert net.params.channel_width == 8

    def test_dedicated_slices_carry_one_class(self):
        system = build(DOUBLE_CP_CR_DEDICATED)
        req = read_request(system.compute_nodes[0], system.mc_nodes[0])
        rep = read_reply(system.mc_nodes[0], system.compute_nodes[0])
        carriers_req = [n for n in system.networks if n.carries(req)]
        carriers_rep = [n for n in system.networks if n.carries(rep)]
        assert len(carriers_req) == 1
        assert len(carriers_rep) == 1
        assert carriers_req[0] is not carriers_rep[0]

    def test_balanced_slices_carry_both(self):
        system = build(DOUBLE_CP_CR)
        req = read_request(system.compute_nodes[0], system.mc_nodes[0])
        assert all(n.carries(req) for n in system.networks)

    def test_balanced_round_robin_split(self):
        system = build(DOUBLE_CP_CR)
        src, dst = system.compute_nodes[0], system.mc_nodes[0]
        for _ in range(10):
            system.try_inject(read_request(src, dst), 0)
        injected = [len(n._sources[src][0].fifo) for n in system.networks]
        assert injected == [5, 5]

    def test_multiport_only_at_mcs(self):
        system = build(DOUBLE_CP_CR_2P)
        for net in system.networks:
            for coord, router in net.routers.items():
                expected = 2 if coord in set(system.mc_nodes) else 1
                assert router.spec.num_inject_ports == expected

    def test_2x_bandwidth_width(self):
        system = build(DOUBLE_BW)
        assert system.networks[0].params.channel_width == 32

    def test_mc_coords_override(self):
        custom = [Coord(1, 0), Coord(3, 0), Coord(0, 1), Coord(5, 2),
                  Coord(0, 3), Coord(5, 4), Coord(2, 5), Coord(4, 5)]
        design = dataclasses.replace(CP_CR, mc_coords=tuple(custom))
        system = build(design)
        assert system.mc_nodes == custom

    def test_invalid_mc_override_rejected(self):
        design = dataclasses.replace(CP_CR, mc_coords=(Coord(0, 0),) * 8)
        with pytest.raises(ValueError):
            build(design)


class TestNetworkSystemInterface:
    def test_stats_merged_across_slices(self):
        system = build(DOUBLE_CP_CR)
        src, dst = system.compute_nodes[0], system.mc_nodes[0]
        system.set_ejection_handler(dst, lambda p, c: None)
        for _ in range(4):
            system.try_inject(read_request(src, dst), 0)
        system.run_until_idle()
        assert system.stats.packets_ejected == 4

    def test_end_to_end_request_reply(self):
        system = build(THROUGHPUT_EFFECTIVE)
        src, dst = system.compute_nodes[5], system.mc_nodes[3]
        got = []
        system.set_ejection_handler(dst, lambda p, c: got.append(p))
        system.set_ejection_handler(src, lambda p, c: got.append(p))
        system.try_inject(read_request(src, dst), 0)
        for _ in range(200):
            system.step()
            if got:
                break
        assert got and got[0].dest == dst
        system.try_inject(read_reply(dst, src), system.cycle)
        system.run_until_idle()
        assert len(got) == 2

    def test_out_of_order_step_leaves_state_untouched(self):
        # A rejected cycle must not advance the system's clock ahead of
        # its slices, or every later step() would fail too.
        system = build(DOUBLE_CP_CR)
        with pytest.raises(ValueError):
            system.step(5)
        assert system.cycle == 0
        assert [n.cycle for n in system.networks] == [0, 0]
        system.step()
        system.step(2)
        assert system.cycle == 2
        assert [n.cycle for n in system.networks] == [2, 2]
