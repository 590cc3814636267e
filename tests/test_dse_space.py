"""Search-space enumeration and the up-front constraint pass.

The acceptance bar: every illegal axis combination is rejected with a
*named* rule before any simulation starts — pinned here by checking the
rule name per combination and by asserting the in-process execution
counter never moves during enumeration (or during an exploration whose
space is entirely illegal)."""

import dataclasses

import pytest

from repro.core.builder import (BASELINE, CP_CR, ConstraintViolation,
                                design_by_name,
                                design_constraint_violations,
                                materialize_design)
from repro.dse import (Axis, ExplorationSpec, FidelityLadder, SearchSpace,
                       design_label, explore, preset)
from repro.noc.topology import Coord, Mesh
from repro.parallel import EXECUTION_COUNTER


def rules_of(design, mesh=None, num_mcs=8):
    return [v.rule for v in
            design_constraint_violations(design, mesh, num_mcs)]


class TestConstraintRules:
    """Each named rule fires on its illegal combination (and only then)."""

    def test_legal_designs_have_no_violations(self):
        for name in ("TB-DOR", "CP-DOR", "CP-CR-4VC", "CP-ROMM-4VC",
                     "Double-CP-CR", "Throughput-Effective"):
            assert rules_of(design_by_name(name), Mesh(6, 6)) == []

    @pytest.mark.parametrize("overrides,rule", [
        ({"placement": "diagonal"}, "unknown-placement"),
        ({"routing": "adaptive"}, "unknown-routing"),
        ({"double_network": True, "slice_mode": "striped"},
         "unknown-slice-mode"),
        ({"cr_intermediate": "nearest"}, "unknown-cr-intermediate"),
        ({"routing": "cr", "placement": "checkerboard",
          "vcs_per_class": 2}, "cr-requires-half-routers"),
        ({"routing": "cr", "placement": "checkerboard",
          "half_routers": True}, "cr-needs-two-routing-vcs"),
        ({"routing": "romm", "placement": "checkerboard",
          "half_routers": True, "vcs_per_class": 2},
         "romm-needs-full-routers"),
        ({"routing": "romm"}, "romm-needs-two-routing-vcs"),
        ({"half_routers": True, "routing": "cr", "vcs_per_class": 2},
         "half-routers-need-checkerboard-placement"),
        ({"half_routers": True, "placement": "checkerboard"},
         "half-routers-need-checkerboard-routing"),
        ({"half_routers": True, "placement": "checkerboard",
          "routing": "dor_yx"}, "half-routers-need-checkerboard-routing"),
        ({"double_network": True, "channel_width": 15},
         "slicing-needs-even-channel-width"),
        ({"channel_width": 0}, "positive-channel-width"),
        ({"vcs_per_class": 0}, "positive-vc-count"),
        ({"vc_buffer_depth": 0}, "positive-vc-buffer-depth"),
        ({"mc_inject_ports": 0}, "positive-mc-ports"),
        ({"mc_eject_ports": 0}, "positive-mc-ports"),
        ({"router_latency": 0}, "positive-router-latency"),
        ({"half_router_latency": 0}, "positive-router-latency"),
        ({"channel_latency": -1}, "positive-channel-latency"),
        ({"source_queue_flits": 0}, "positive-source-queue"),
        # 0 used to pass the rules and then fail in ``build``.
        ({"channel_latency": 0}, "positive-channel-latency"),
    ])
    def test_rule_fires(self, overrides, rule):
        design = materialize_design("bad", BASELINE, **overrides)
        assert rule in rules_of(design)

    def test_sliced_single_wide_channel_is_double_violation(self):
        design = materialize_design("bad", BASELINE, double_network=True,
                                    channel_width=1)
        rules = rules_of(design)
        assert "slicing-needs-even-channel-width" in rules
        assert "positive-channel-width" in rules

    def test_violations_carry_reasons(self):
        design = materialize_design("bad", BASELINE, routing="cr")
        violations = design_constraint_violations(design)
        assert all(isinstance(v, ConstraintViolation) for v in violations)
        assert all(v.reason for v in violations)
        assert "half-routers" in violations[0].reason

    def test_validate_raises_first_reason(self):
        design = materialize_design("bad", BASELINE, vcs_per_class=0)
        with pytest.raises(ValueError, match="at least one VC"):
            design.validate()


class TestMeshRules:
    def test_mesh_too_small_for_cores(self):
        assert "mesh-too-small-for-cores" in rules_of(
            BASELINE, Mesh(2, 2), num_mcs=8)

    def test_mc_outside_mesh(self):
        design = dataclasses.replace(BASELINE, mc_coords=(Coord(9, 9),))
        assert "mc-outside-mesh" in rules_of(design, Mesh(6, 6), num_mcs=1)

    def test_mc_on_full_router_tile(self):
        # a full-router tile (parity 0) may not host an MC when the
        # checkerboard organisation puts MCs at half-routers
        tile = next(c for c in Mesh(6, 6).coords() if c.parity() == 0)
        design = dataclasses.replace(design_by_name("CP-CR-4VC"),
                                     mc_coords=(tile,))
        rules = rules_of(design, Mesh(6, 6), num_mcs=1)
        assert "mc-on-full-router-tile" in rules

    def test_duplicate_mc(self):
        design = dataclasses.replace(BASELINE,
                                     mc_coords=(Coord(0, 0), Coord(0, 0)))
        assert "duplicate-mc" in rules_of(design, Mesh(6, 6), num_mcs=2)

    def test_checkerboard_capacity(self):
        assert "checkerboard-placement-capacity" in rules_of(
            design_by_name("CP-CR-4VC"), Mesh(3, 3), num_mcs=5)

    def test_top_bottom_capacity(self):
        assert "top-bottom-placement-capacity" in rules_of(
            BASELINE, Mesh(3, 6), num_mcs=8)

    def test_no_simulation_during_constraint_pass(self):
        EXECUTION_COUNTER.reset()
        for mesh in (Mesh(2, 2), Mesh(6, 6), Mesh(8, 8)):
            design_constraint_violations(design_by_name("CP-CR-4VC"), mesh)
        assert EXECUTION_COUNTER.executed == 0


class TestAxis:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("routing", ())

    def test_rejects_repeated_values(self):
        with pytest.raises(ValueError, match="repeats"):
            Axis("routing", ("dor", "dor"))

    def test_rejects_unknown_field_with_hint(self):
        with pytest.raises(ValueError, match="vcs_per_class"):
            Axis("vcs_per_clas", (1, 2))

    def test_rejects_name_axis(self):
        with pytest.raises(ValueError):
            Axis("name", ("a", "b"))

    def test_mesh_axis_checks_shape(self):
        with pytest.raises(ValueError, match="bad mesh"):
            Axis("mesh", ((6, 0),))


class TestSearchSpace:
    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SearchSpace(name="nothing")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            SearchSpace(name="dup",
                        axes=(Axis("routing", ("dor",)),
                              Axis("routing", ("cr",))))

    def test_size_counts_raw_points(self):
        space = SearchSpace(
            name="s", designs=(CP_CR,),
            axes=(Axis("placement", ("top_bottom", "checkerboard")),
                  Axis("vcs_per_class", (1, 2, 4))))
        assert space.size() == 1 + 2 * 3

    def test_enumerate_is_deterministic_and_constraint_checked(self):
        space = SearchSpace(
            name="s",
            axes=(Axis("placement", ("top_bottom", "checkerboard")),
                  Axis("routing", ("dor", "cr")),
                  Axis("vcs_per_class", (1, 2))))
        EXECUTION_COUNTER.reset()
        candidates, rejected = space.enumerate()
        again = space.enumerate()
        assert EXECUTION_COUNTER.executed == 0
        assert [c.name for c in candidates] == [c.name for c in again[0]]
        assert len(candidates) + len(rejected) == space.size()
        # every cr point without half-routers is rejected, with the rule
        for point in rejected:
            assert point.rules
            assert "cr-requires-half-routers" in point.rules
        # and every candidate is genuinely legal
        for c in candidates:
            assert rules_of(c.design, c.mesh, c.num_mcs) == []

    def test_mesh_axis_scales_candidates(self):
        space = SearchSpace(
            name="s", axes=(Axis("mesh", ((6, 6), (8, 8), (2, 2))),))
        candidates, rejected = space.enumerate()
        assert [c.name for c in candidates] == [
            "tb-dor-w16-v1-b8", "tb-dor-w16-v1-b8-8x8"]
        assert candidates[0].chip_config() is None
        config = candidates[1].chip_config()
        assert (config.mesh_cols, config.mesh_rows) == (8, 8)
        (small,) = rejected
        assert "mesh-too-small-for-cores" in small.rules

    def test_duplicate_labels_rejected(self):
        space = SearchSpace(name="s", designs=(BASELINE, BASELINE))
        with pytest.raises(ValueError, match="duplicate point"):
            space.enumerate()

    def test_labels_encode_distinguishing_fields(self):
        label = design_label(design_by_name("Throughput-Effective"))
        assert label == "cp-cr-w16-v2-b8-half-dblbal-i2"
        assert design_label(BASELINE, 8, 8).endswith("-8x8")
        slow = materialize_design("p", BASELINE, router_latency=3)
        assert design_label(slow, extra_fields=("router_latency",)) \
            == "tb-dor-w16-v1-b8-routerlatency-3"


class TestMaterialize:
    def test_unknown_field_did_you_mean(self):
        with pytest.raises(TypeError, match="did you mean 'vcs_per_class'"):
            materialize_design("p", BASELINE, vcs_per_clas=2)

    def test_does_not_validate(self):
        # materialization is schema-checked but not legality-checked;
        # the constraint pass owns legality so spaces can *report* illegal
        # points instead of crashing on them
        design = materialize_design("p", BASELINE, vcs_per_class=0)
        assert design.vcs_per_class == 0

    def test_design_by_name_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'TB-DOR'"):
            design_by_name("TB-DORR")


class TestExploreRejectsBeforeSimulating:
    def test_fully_illegal_space_runs_nothing(self):
        space = SearchSpace(
            name="illegal",
            axes=(Axis("routing", ("cr",)),
                  Axis("vcs_per_class", (1,)),
                  Axis("placement", ("top_bottom", "checkerboard"))))
        spec = ExplorationSpec(name="illegal", space=space, mix=("RD",),
                               round_mix=("RD",),
                               ladder=FidelityLadder(min_survivors=1))
        EXECUTION_COUNTER.reset()
        result = explore(spec, jobs=1)
        assert EXECUTION_COUNTER.executed == 0
        assert result.candidates == [] and result.ranking == []
        assert result.frontier == []
        assert len(result.rejected) == 2
        for point in result.rejected:
            rules = [v["rule"] for v in point["violations"]]
            assert "cr-requires-half-routers" in rules
            assert "cr-needs-two-routing-vcs" in rules


class TestPresets:
    def test_unknown_preset_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'figure2'"):
            preset("figur2")

    def test_figure2_is_the_papers_seven_points(self):
        spec = preset("figure2")
        candidates, rejected = spec.space.enumerate()
        assert [c.name for c in candidates] == [
            "TB-DOR", "TB-DOR-1cyc", "2x-TB-DOR", "CP-DOR", "CP-CR-4VC",
            "Double-CP-CR", "Throughput-Effective"]
        assert rejected == []
        assert spec.seed_policy == "fixed" and spec.seed == 11
        assert not spec.ladder.screen and spec.ladder.halving_rounds == 0
        assert (spec.ladder.confirm_warmup,
                spec.ladder.confirm_measure) == (400, 1000)

    def test_smoke_and_extended_enumerate(self):
        for name, legal, total in (("smoke", 9, 17),
                                   ("extended", 176, 512)):
            spec = preset(name)
            candidates, rejected = spec.space.enumerate()
            assert (len(candidates), spec.space.size()) == (legal, total)
            assert len(candidates) + len(rejected) == total

    def test_spec_validates_seed_policy_and_mix(self):
        with pytest.raises(ValueError, match="seed_policy"):
            ExplorationSpec(name="x", space=preset("smoke").space,
                            mix=("RD",), round_mix=(),
                            seed_policy="random")
        with pytest.raises(KeyError):
            ExplorationSpec(name="x", space=preset("smoke").space,
                            mix=("NOPE",), round_mix=())
