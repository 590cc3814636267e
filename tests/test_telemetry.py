"""Telemetry layer tests.

The pinned contracts:

* zero perturbation — closed-loop and open-loop results are bit-identical
  with telemetry enabled or disabled (the golden tests here);
* one cycle body per driver — a telemetry run executes the same
  wake-gated chip loop as a plain run, the reference oracle yields the
  same telemetry, and the host profile has a fixed set of sections;
* exact decomposition — every completed per-hop trace's components sum to
  ``packet.latency`` exactly, on single and double networks;
* the sampler's occupancy columns agree with a direct recount of router
  state;
* artifact schemas (JSONL headers, heatmap text, summary keys) are stable.
"""

import json
import random

import pytest

from repro.cli import main
from repro.core import BASELINE, build, open_loop_variant
from repro.core.builder import design_by_name
from repro.noc.histogram import StreamingHistogram, merge_histograms
from repro.noc.openloop import OpenLoopRunner
from repro.noc.stats import NetworkStats, merge_stats
from repro.noc.topology import Coord
from repro.noc.traffic import UniformManyToFew
from repro.noc.packet import read_reply, read_request
from repro.gpu.core import SimtCore
from repro.system.accelerator import build_chip, perfect_chip
from repro.telemetry import (COMPONENTS, SAMPLES_SCHEMA, TRACE_SCHEMA,
                             TelemetryHub, TelemetrySpec, coord_key,
                             link_key, parse_coord, parse_link, read_jsonl,
                             render_node_heatmap, write_jsonl)
from repro.workloads.profiles import profile


# ---------------------------------------------------------------------------
# StreamingHistogram


class TestStreamingHistogram:
    def test_exact_below_linear_limit(self):
        h = StreamingHistogram()
        values = [3, 3, 7, 100, 4095]
        for v in values:
            h.add(v)
        assert h.total == 5
        assert len(h) == 4            # distinct buckets
        assert h.min == 3
        assert h.max == 4095
        assert h.percentile(50) == 7
        assert h.mean() == pytest.approx(sum(values) / len(values))

    def test_percentiles_match_sorted_rank(self):
        rng = random.Random(5)
        values = sorted(rng.randrange(2000) for _ in range(999))
        h = StreamingHistogram()
        for v in values:
            h.add(v)
        # Ceil-rank definition: percentile p = value at rank ceil(n*p/100).
        for p in (50, 95, 99):
            rank = -(-len(values) * p // 100)
            assert h.percentile(p) == values[rank - 1]

    def test_rank_is_exact_at_bucket_boundaries(self):
        # p50 boundary: rank ceil((2**53 + 1) / 2) = 2**52 + 1, which is
        # the first sample of the second bucket.  Computing the rank in
        # float arithmetic rounds total * p to 2**53 * 50 and lands one
        # rank low (in the first bucket) — the rank must come from exact
        # integer arithmetic.
        h = StreamingHistogram()
        h.add(0, count=2 ** 52)
        h.add(1, count=2 ** 52 + 1)
        assert h.percentile(50) == 1
        assert h.percentile(100) == 1

        # Exact small boundaries: rank 100 of 200 is the last sample of
        # the first bucket; any p past 50% crosses into the second.
        h = StreamingHistogram()
        h.add(0, count=100)
        h.add(1, count=100)
        assert h.percentile(50) == 0
        assert h.percentile(50.5) == 1

        # Float percentiles are resolved against the float's exact value:
        # 99.9 is binary 99.90000000000000568…, so rank ceil(1000 * p /
        # 100) = 1000, not 999.
        h = StreamingHistogram()
        for v in range(1000):
            h.add(v)
        assert h.percentile(99.9) == 999

    def test_power_of_two_buckets_above_limit(self):
        h = StreamingHistogram()
        h.add(5000)        # 13 bits -> representative 4096
        h.add(70_000)      # 17 bits -> representative 65536
        # min/max stay exact; percentiles use bucket representatives.
        assert h.min == 5000
        assert h.max == 70_000
        assert h.percentile(50) == 4096
        assert h.percentile(99) == 65_536

    def test_merge_and_copy_are_independent(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.add(1)
        b.add(2)
        c = a.copy()
        c.merge(b)
        assert c.total == 2 and a.total == 1
        assert merge_histograms([a, b]).summary() == c.summary()

    def test_delta_isolates_window(self):
        h = StreamingHistogram()
        h.add(10)
        before = h.copy()
        h.add(20)
        h.add(30)
        window = h.delta(before)
        assert window.total == 2
        assert window.min == 20 and window.max == 30

    def test_delta_rejects_non_prefix(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        b.add(9)
        with pytest.raises(ValueError):
            a.delta(b)

    def test_empty_summary_is_zeros(self):
        s = StreamingHistogram().summary()
        assert s == {"count": 0, "min": 0.0, "max": 0.0, "p50": 0.0,
                     "p95": 0.0, "p99": 0.0}


# ---------------------------------------------------------------------------
# merge_stats rate contract (satellite: double-network accounting)


def _stats(cycles, flits_ejected, node=None, node_flits=0):
    s = NetworkStats()
    s.cycles = cycles
    s.flits_ejected = flits_ejected
    if node is not None:
        s.node_injected_flits[node] = node_flits
    return s


class TestMergeStatsRates:
    def test_equal_cycles_keeps_single_division(self):
        a = _stats(1000, 301)
        b = _stats(1000, 77)
        merged = merge_stats([a, b])
        assert merged.cycles == 1000
        # Bit-identical to the historical arithmetic, NOT a/c + b/c.
        assert merged.accepted_flit_rate() == (301 + 77) / 1000

    def test_unequal_cycles_sums_per_slice_rates(self):
        a = _stats(1000, 300)
        b = _stats(500, 300)
        merged = merge_stats([a, b])
        assert merged.cycles == 1000            # master clock
        assert merged.accepted_flit_rate() == pytest.approx(
            300 / 1000 + 300 / 500)

    def test_unequal_cycles_injection_rate(self):
        node = Coord(1, 1)
        a = _stats(1000, 0, node, 100)
        b = _stats(250, 0, node, 100)
        merged = merge_stats([a, b])
        assert merged.injection_rate(node) == pytest.approx(
            100 / 1000 + 100 / 250)

    def test_latency_summary_merges_histograms(self):
        a, b = NetworkStats(), NetworkStats()
        a.record_ejection(_packet(latency=10), 1)
        b.record_ejection(_packet(latency=30), 1)
        merged = merge_stats([a, b])
        summary = merged.latency_summary()
        assert summary["count"] == 2
        assert summary["min"] == 10 and summary["max"] == 30


def _packet(latency):
    p = read_request(Coord(0, 0), Coord(1, 0), created=0)
    p.injected = 0
    p.ejected = latency
    return p


# ---------------------------------------------------------------------------
# Golden bit-identity + exact decomposition


CLOSED_DESIGNS = ["TB-DOR", "Double-CP-CR"]


class TestZeroPerturbation:
    @pytest.mark.parametrize("design", CLOSED_DESIGNS)
    def test_closed_loop_bit_identical(self, design):
        prof = profile("RD")
        plain = build_chip(prof, design=design_by_name(design), seed=11)
        baseline = plain.run(warmup=100, measure=300)

        chip = build_chip(prof, design=design_by_name(design), seed=11)
        hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=50))
        hub.attach_chip(chip)
        traced = chip.run(warmup=100, measure=300)

        assert traced.to_json() == baseline.to_json()
        # Every retained trace decomposes exactly.
        assert hub.tracer.completed
        for trace in hub.tracer.completed:
            parts = trace.components()
            assert tuple(parts) == COMPONENTS
            assert sum(parts.values()) == trace.latency
            assert trace.network_latency == trace.latency - parts["queue"]
        assert hub.tracer.incomplete == 0

    def test_open_loop_bit_identical(self):
        def point(telemetry):
            system = build(open_loop_variant(BASELINE))
            runner = OpenLoopRunner(
                system, system.compute_nodes, system.mc_nodes,
                UniformManyToFew(system.mc_nodes), 0.03,
                telemetry=telemetry)
            return runner.run(warmup=200, measure=500)

        hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=100))
        assert point(hub).to_json() == point(None).to_json()
        assert hub.tracer.completed
        for trace in hub.tracer.completed:
            assert sum(trace.components().values()) == trace.latency

    def test_hooks_default_off(self):
        system = build(open_loop_variant(BASELINE))
        for net in system.networks:
            assert net.tracer is None
            for router in net.routers.values():
                assert router.tracer is None
            for channel in net.channels:
                assert channel.tracer is None

    def test_perfect_chip_bit_identical(self):
        # The zero-latency NoC has no routers to trace, but the chip body
        # still runs its phase marks and the sampler's chip rows.
        prof = profile("RD")
        baseline = perfect_chip(prof, seed=11).run(warmup=100, measure=300)
        chip = perfect_chip(prof, seed=11)
        hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=50))
        hub.attach_chip(chip)
        assert chip.run(warmup=100, measure=300).to_json() == \
            baseline.to_json()
        assert [row["kind"] for row in hub.sampler.rows] == ["chip"] * 8


# ---------------------------------------------------------------------------
# One cycle body per driver


CHIP_SECTIONS = {"cores", "network", "memory", "telemetry"}
OPEN_LOOP_SECTIONS = {"injection", "network", "telemetry"}


def _closed_loop(backend):
    """Telemetry of a finite RD kernel on Throughput-Effective, run to
    completion so the stepper context can restore on a drained chip."""
    chip = build_chip(profile("RD"),
                      design=design_by_name("Throughput-Effective"),
                      seed=11, instructions_per_warp=4)
    hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=50))
    hub.attach_chip(chip)
    with chip.use_stepper(backend):
        result = chip.run_to_completion()
    return result, hub


def _open_loop(backend):
    system = build(open_loop_variant(design_by_name("Throughput-Effective")))
    hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=50))
    runner = OpenLoopRunner(
        system, system.compute_nodes, system.mc_nodes,
        UniformManyToFew(system.mc_nodes), 0.05, telemetry=hub)
    with system.use_stepper(backend):
        point = runner.run(warmup=100, measure=300, drain=300)
    return point, hub


class TestOneCycleBody:
    def test_telemetry_keeps_core_wake_gating(self, monkeypatch):
        calls = [0]
        real_step = SimtCore.step

        def spy(core, cycle):
            calls[0] += 1
            real_step(core, cycle)

        monkeypatch.setattr(SimtCore, "step", spy)

        def core_steps(spec):
            chip = build_chip(profile("RD"), design=design_by_name("TB-DOR"),
                              seed=11)
            if spec is not None:
                TelemetryHub(spec).attach_chip(chip)
            calls[0] = 0
            result = chip.run(warmup=100, measure=300)
            return calls[0], result, len(chip.cores) * chip.core_cycle

        plain, plain_result, exhaustive = core_steps(None)
        traced, traced_result, _ = core_steps(
            TelemetrySpec(trace=True, sample_interval=50))
        assert plain < exhaustive          # the wake gating skips steps
        assert traced == plain
        assert traced_result.to_json() == plain_result.to_json()

    def test_closed_loop_reference_gives_same_telemetry(self):
        ref_result, ref = _closed_loop("reference")
        result, hub = _closed_loop("batched")
        assert ref.sampler.rows and ref.tracer.completed
        assert hub.sampler.rows == ref.sampler.rows
        assert hub.tracer.summary() == ref.tracer.summary()
        assert result.to_json() == ref_result.to_json()

    def test_open_loop_reference_gives_same_telemetry(self):
        ref_point, ref = _open_loop("reference")
        point, hub = _open_loop("batched")
        assert ref.sampler.rows and ref.tracer.completed
        assert hub.sampler.rows == ref.sampler.rows
        assert hub.tracer.summary() == ref.tracer.summary()
        assert point.to_json() == ref_point.to_json()

    @pytest.mark.parametrize("backend", ["batched", "reference"])
    def test_chip_profile_sections(self, backend):
        chip = build_chip(profile("RD"), design=design_by_name("TB-DOR"),
                          seed=11)
        hub = TelemetryHub(TelemetrySpec())
        hub.attach_chip(chip)
        if backend == "reference":
            chip.use_reference_stepper()
        chip.run(warmup=20, measure=50)
        assert set(hub.profiler.sections) == CHIP_SECTIONS
        assert hub.profiler.cycles == chip.icnt_cycle == 70

    def test_open_loop_profile_sections(self):
        system = build(open_loop_variant(BASELINE))
        hub = TelemetryHub(TelemetrySpec())
        runner = OpenLoopRunner(
            system, system.compute_nodes, system.mc_nodes,
            UniformManyToFew(system.mc_nodes), 0.03, telemetry=hub)
        runner.run(warmup=20, measure=50)
        assert set(hub.profiler.sections) == OPEN_LOOP_SECTIONS
        assert hub.profiler.cycles == system.cycle == 70


class TestTraceAggregates:
    def test_per_class_means_match_traces(self):
        system = build(open_loop_variant(BASELINE))
        hub = TelemetryHub(TelemetrySpec(trace=True))
        runner = OpenLoopRunner(
            system, system.compute_nodes, system.mc_nodes,
            UniformManyToFew(system.mc_nodes), 0.02, telemetry=hub)
        runner.run(warmup=100, measure=400)
        tracer = hub.tracer
        assert tracer.traced_packets == len(tracer.completed)
        for tclass, agg in tracer.per_class.items():
            mine = [t for t in tracer.completed if t.tclass == tclass]
            assert agg.packets == len(mine)
            total = sum(t.latency for t in mine)
            assert agg.to_json()["mean_latency"] == pytest.approx(
                total / len(mine))
        # Per-route packet counts cover every completed trace once.
        assert sum(a.packets for a in tracer.per_route.values()) == \
            len(tracer.completed)


# ---------------------------------------------------------------------------
# Sampler vs direct recount


class TestSampler:
    def test_occupancy_matches_direct_recount(self):
        system = build(open_loop_variant(BASELINE))
        hub = TelemetryHub(TelemetrySpec(sample_interval=25))
        runner = OpenLoopRunner(
            system, system.compute_nodes, system.mc_nodes,
            UniformManyToFew(system.mc_nodes), 0.08, telemetry=hub)
        runner.run(warmup=0, measure=200)

        rows = hub.sampler.rows
        assert rows, "sampler recorded nothing"
        by_cycle = {}
        for row in rows:
            by_cycle.setdefault(row["cycle"], []).append(row)
        # The final sample's state is still live: recount it directly.
        last = max(by_cycle)
        nets = {net.name: net for net in system.networks}
        counted = 0
        for row in by_cycle[last]:
            net = nets[row["network"]]
            direct = sum(
                len(vc.buffer)
                for router in net.routers.values()
                for vcs in router.in_ports.values() for vc in vcs)
            assert row["buffer_occupancy"] == direct
            assert sum(row["router_occupancy"].values()) == direct
            assert sum(row["vc_occupancy"].values()) == direct
            assert row["source_queue_flits"] == net._source_flits
            counted += 1
        assert counted == len(system.networks)

    def test_link_utilization_is_windowed(self):
        system = build(open_loop_variant(BASELINE))
        hub = TelemetryHub(TelemetrySpec(sample_interval=50))
        runner = OpenLoopRunner(
            system, system.compute_nodes, system.mc_nodes,
            UniformManyToFew(system.mc_nodes), 0.05, telemetry=hub)
        runner.run(warmup=0, measure=300)
        for row in hub.sampler.rows:
            if row["kind"] != "network":
                continue
            # flits per cycle over a 50-cycle window can never exceed 1.
            assert 0.0 <= row["link_util_peak"] <= 1.0
            for util in row["link_utilization"].values():
                assert 0.0 < util <= 1.0

    def test_chip_row_memory_columns(self):
        prof = profile("RD")
        chip = build_chip(prof, design=design_by_name("TB-DOR"), seed=3)
        hub = TelemetryHub(TelemetrySpec(sample_interval=40))
        hub.attach_chip(chip)
        chip.run(warmup=80, measure=160)
        chip_rows = [r for r in hub.sampler.rows if r["kind"] == "chip"]
        assert chip_rows
        row = chip_rows[-1]
        assert row["mshr_occupancy"] == sum(
            core.mshrs.occupancy for core in chip.cores)
        assert set(row["mc"]) == {coord_key(mc.coord) for mc in chip.mcs}
        assert 0.0 <= row["dram_row_hit_rate_window"] <= 1.0

    def test_rejects_zero_interval(self):
        from repro.telemetry import TimeSeriesSampler
        with pytest.raises(ValueError):
            TimeSeriesSampler(0)


# ---------------------------------------------------------------------------
# Export schema stability


class TestExportSchemas:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        rows = [{"a": 1, "b": "y"}, {"a": 2, "b": "z"}]
        write_jsonl(path, {"schema": "test-v1", "rows": 2}, rows)
        header, out = read_jsonl(path)
        assert header == {"schema": "test-v1", "rows": 2}
        assert out == rows

    def test_jsonl_rejects_missing_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"rows": 0}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_coord_and_link_keys_round_trip(self):
        c1, c2 = Coord(3, 5), Coord(4, 5)
        assert coord_key(c1) == "3,5"
        assert parse_coord(coord_key(c1)) == c1
        assert link_key(c1, c2) == "3,5->4,5"
        assert parse_link(link_key(c1, c2)) == (c1, c2)

    def test_node_heatmap_exact_text(self):
        values = {Coord(0, 0): 0.5, Coord(1, 1): 1.0}
        text = render_node_heatmap(2, 2, values, "demo")
        assert text == (
            "demo (peak 1.0000)\n"
            "           0       1 \n"
            " y0    0.500+  0.000 \n"
            " y1    0.000   1.000@"
        )


# ---------------------------------------------------------------------------
# Artifacts + CLI round trip


class TestArtifacts:
    def test_write_artifacts_schema(self, tmp_path):
        prof = profile("RD")
        chip = build_chip(prof, design=design_by_name("TB-DOR"), seed=11)
        hub = TelemetryHub(TelemetrySpec(trace=True, sample_interval=50,
                                         out_dir=str(tmp_path / "out")))
        hub.attach_chip(chip)
        result = chip.run(warmup=80, measure=200)
        written = hub.write_artifacts()
        assert set(written) == {"trace", "samples", "samples_csv",
                                "heatmaps", "summary"}

        header, traces = read_jsonl(written["trace"])
        assert header["schema"] == TRACE_SCHEMA
        assert header["retained"] == len(traces)
        for row in traces:
            assert sum(row["components"].values()) == row["latency"]
            assert len(row["hops"]) >= 1

        header, samples = read_jsonl(written["samples"])
        assert header["schema"] == SAMPLES_SCHEMA
        assert header["interval"] == 50
        assert {row["kind"] for row in samples} == {"network", "chip"}

        summary = json.loads(written["summary"].read_text())
        assert summary["trace"]["incomplete"] == 0
        assert summary["trace"]["traced_packets"] > 0
        net = summary["networks"][0]
        assert net["latency"]["count"] > 0
        assert set(net["latency"]) == {"count", "min", "max", "p50",
                                       "p95", "p99"}
        assert result.latency_max > 0
        assert (tmp_path / "out" / "samples.csv").read_text().splitlines()

    def test_result_tail_percentiles_ordered(self):
        prof = profile("RD")
        chip = build_chip(prof, design=design_by_name("TB-DOR"), seed=11)
        result = chip.run(warmup=80, measure=200)
        assert result.latency_min <= result.latency_p50 \
            <= result.latency_p95 <= result.latency_p99 \
            <= result.latency_max
        assert result.latency_max > 0
        assert result.latency_p50 <= result.mean_packet_latency * 2


class TestCliTelemetry:
    def test_run_flags_round_trip(self, tmp_path, capsys):
        out = tmp_path / "tele"
        assert main(["run", "--benchmark", "AES", "--warmup", "50",
                     "--measure", "150", "--trace",
                     "--sample-interval", "50",
                     "--telemetry-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "latency decomposition" in printed
        assert "host profile" in printed
        for name in ("trace.jsonl", "samples.jsonl", "samples.csv",
                     "heatmaps.txt", "summary.json"):
            assert (out / name).is_file(), name
        assert main(["report", str(out), "--heatmaps"]) == 0
        report = capsys.readouterr().out
        assert "latency decomposition" in report
        assert "link utilization" in report

    def test_run_without_flags_has_no_telemetry_block(self, capsys):
        assert main(["run", "--benchmark", "AES", "--warmup", "50",
                     "--measure", "100"]) == 0
        printed = capsys.readouterr().out
        assert "host profile" not in printed
        assert "latency tail" in printed      # always-on histogram

    def test_sweep_requires_out_dir(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--design", "TB-DOR", "--rates", "0.01",
                  "--trace"])

    def test_sweep_writes_per_task_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--design", "TB-DOR", "--rates", "0.01",
                     "--warmup", "100", "--measure", "200", "--trace",
                     "--telemetry-out", str(out)]) == 0
        task_dirs = list(out.iterdir())
        assert len(task_dirs) == 1
        assert (task_dirs[0] / "summary.json").is_file()
        assert main(["report", str(task_dirs[0])]) == 0

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "summary.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Telemetry through the parallel harness


class TestParallelTelemetry:
    def _task(self, telemetry):
        from repro.parallel import SimTask, derive_seed
        return SimTask(
            kind="openloop", label="TB-DOR/uniform@0.02",
            seed=derive_seed(7, "openloop", "TB-DOR", "uniform", 0.02),
            warmup=100, measure=300,
            design=design_by_name("TB-DOR"),
            pattern_factory=UniformManyToFew, pattern_name="uniform",
            rate=0.02, telemetry=telemetry)

    def test_telemetry_excluded_from_cache_key(self, tmp_path):
        spec = TelemetrySpec(trace=True, out_dir=str(tmp_path))
        assert self._task(None).cache_key() == \
            self._task(spec).cache_key()

    def test_results_identical_and_artifacts_written(self, tmp_path):
        from repro.parallel import run_tasks
        spec = TelemetrySpec(trace=True, sample_interval=100,
                             out_dir=str(tmp_path / "art"))
        plain = run_tasks([self._task(None)])
        traced = run_tasks([self._task(spec)])
        assert plain[0]["result"] == traced[0]["result"]
        art_dir = traced[0]["telemetry_dir"]
        assert art_dir.startswith(str(tmp_path / "art"))
        assert (tmp_path / "art").is_dir()

    def test_cache_hit_bypassed_when_artifacts_missing(self, tmp_path):
        from repro.parallel import ResultCache, run_tasks
        cache = ResultCache(tmp_path / "cache")
        run_tasks([self._task(None)], cache=cache)   # primes the cache
        spec = TelemetrySpec(trace=True, out_dir=str(tmp_path / "art"))
        traced = run_tasks([self._task(spec)], cache=cache)
        # The hit was bypassed so the artifacts exist now...
        art = self._task(spec).telemetry_dir()
        assert art is not None and art.is_dir()
        assert "telemetry_dir" in traced[0]
        # ...and a second run serves the hit since artifacts are present.
        again = run_tasks([self._task(spec)], cache=cache)
        assert again[0]["result"] == traced[0]["result"]
