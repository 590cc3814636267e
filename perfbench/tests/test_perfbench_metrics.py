"""Metric derivations, the simulated-statistics record and the checks,
on synthetic span records and on a traced open-loop run at tiny windows."""

from types import SimpleNamespace

import pytest

from perfbench import checks, layers, metrics, spans
from perfbench.spans import SpanTracer
from perfbench.workloads import OpenLoop, WarmRun

TINY = dict(warmup=20, measure=40)


def rec(calls=0, total=0, self_ns=0, tally=0):
    return [calls, total, self_ns, tally]


def test_fastest_repetition_estimators():
    a = {"t1": 2.0, "t2": 5.0}
    b = {"t1": 3.0, "t2": 4.0}
    assert metrics.fastest_sum([a, b]) == 2.0 + 4.0
    # Walls 7.5 and 7.2 leave call overheads 0.5 and 0.2.
    assert metrics.best_wall([7.5, 7.2], [a, b]) == pytest.approx(6.2)


def test_span_metrics_ratios_and_empty_denominators():
    cold = {
        "noc.router_step": rec(10, 900, 800),
        "noc.channel_deliver": rec(4, 100, 100, tally=3),
        "noc.try_inject": rec(5, 50, 50, tally=4),
        "sim.crossbar": rec(tally=25),
        "sim.flit_hops": rec(tally=6),
        "noc.network_step": rec(2, 2000, 50),
    }
    out = metrics.span_metrics(cold, layers.NOC_SPANS)
    assert out["noc.router_step.self_s"] == 800e-9
    assert out["noc.flits_per_router_step"] == 2.5
    assert out["noc.flits_per_deliver"] == 0.75
    assert out["noc.try_inject.accept_ratio"] == 0.8
    assert out["noc.ns_per_flit_hop"] == (800 + 100 + 50 + 50) / 6
    assert out["gpu.instr_per_core_step"] == 0.0     # no core steps
    assert out["gpu.core_step.calls"] == 0


def test_warm_and_dse_metrics():
    warm = {"parallel.cache_get": rec(66, 0, 4000, tally=66),
            "parallel.deserialize": rec(10, 0, 1000)}
    phases = {"screen": 1.0, "round1": 0.5, "round2": 0.25,
              "confirm": 2.0, "rank": 0.1, "power": 0.05}
    replays = [WarmRun(0.01, 33, [], phases), WarmRun(0.03, 33, [], phases),
               WarmRun(0.011, 33, [], phases)]
    out = metrics.warm_metrics(warm, replays)
    assert out["parallel.warm_hits_per_s"] == 3000.0
    assert out["parallel.cache_get_s"] == pytest.approx(4000e-9 / 3)
    assert out["parallel.cache_hit_ratio"] == 1.0
    assert out["parallel.deserialize_s"] == pytest.approx(1000e-9 / 3)
    assert out["dse.rank_s"] == pytest.approx(0.15)
    assert metrics.dse_phase_metrics(phases) == {
        "dse.screen_s": 1.0, "dse.halving_s": 0.75, "dse.confirm_s": 2.0}
    assert metrics.dse_phase_metrics(None)["dse.halving_s"] == 0.0
    assert metrics.rank_seconds(phases) == pytest.approx(0.15)
    assert metrics.busy_ratio(3.0, 2.0, 2) == 0.75


def test_rate_throughput_selects_points_by_rate():
    reports = [SimpleNamespace(label="A@0.01", seconds=2.0, cached=False),
               SimpleNamespace(label="B@0.01", seconds=2.0, cached=False),
               SimpleNamespace(label="A@0.08", seconds=8.0, cached=False)]
    cycles = {"A@0.01": 100, "B@0.01": 300, "A@0.08": 400}
    assert metrics.rate_throughput(reports, cycles, 0.01) == 100.0
    assert metrics.rate_throughput(reports, cycles, 0.08) == 50.0
    assert metrics.rate_throughput(reports, cycles, 0.5) == 0.0


def test_digest_ignores_host_time_only():
    a = [{"kind": "openloop", "label": "x", "elapsed": 1.0,
          "result": {"v": 0.1}}]
    b = [dict(a[0], elapsed=2.5)]
    c = [dict(a[0], result={"v": 0.1000000001})]
    assert metrics.digest(a) == metrics.digest(b)
    assert metrics.digest(a) != metrics.digest(c)
    assert metrics.digest(a) != metrics.digest(a, [{"ranking": []}])
    assert metrics.digest_number("f" * 64) == 2 ** 52 - 1


def test_sim_record():
    closed = {"retired_scalar": 10, "ipc": 2.0, "dram_row_hit_rate": 0.5,
              "flits_ejected": 3, "link_flit_hops": 9, "latency_p99": 40.0}
    payloads = [
        {"kind": "closed", "label": "A/RD", "result": closed},
        {"kind": "closed", "label": "A/BLK",
         "result": dict(closed, ipc=4.0, dram_row_hit_rate=0.25)},
        {"kind": "openloop", "label": "A@0.35",
         "result": {"flits_ejected": 7, "link_flit_hops": 1,
                    "latency_p99": 90.0}},
    ]
    out = metrics.sim_record(payloads, "0" * 64)
    assert out["sim.flits_ejected"] == 13
    assert out["sim.link_flit_hops"] == 19
    assert out["sim.retired_instr"] == 20
    assert out["sim.ipc_hm"] == pytest.approx(2 / (1 / 2.0 + 1 / 4.0))
    assert out["sim.latency_p99"] == 90.0
    assert out["sim.dram_row_hit_rate"] == 0.375
    assert out["sim.digest"] == 0


def test_coverage_checks_flag_broken_designs():
    cold = {"noc.network_step": rec(5), "gpu.core_step": rec(3),
            "parallel.cache_get": rec(1)}
    warm = {"parallel.cache_get": rec(12, tally=11),
            "noc.router_step": rec(2)}
    failed = {name for name, why in
              checks.coverage_checks("openloop", cold, warm, 2, 6) if why}
    assert failed == {"coverage.openloop_no_gpu_mem",
                      "coverage.cold_no_cache",
                      "coverage.warm_no_simulation",
                      "coverage.warm_all_hits"}


@pytest.fixture(scope="module")
def traced_openloop(tmp_path_factory):
    """One tiny open-loop cold call and two warm replays, traced."""
    workdir = tmp_path_factory.mktemp("openloop")
    wl = OpenLoop(seed=3, **TINY)
    untraced = wl.cold(workdir)
    tracer = SpanTracer()
    tracer.install(layers.targets())
    try:
        cold = wl.cold(workdir)
        cold_records = tracer.snapshot()
        store = wl.fill(cold, workdir)
        tracer.reset()
        warms = [wl.warm(store) for _ in range(2)]
        warm_records = tracer.snapshot()
    finally:
        tracer.uninstall()
    return SimpleNamespace(wl=wl, untraced=untraced, cold=cold,
                           cold_records=cold_records, warms=warms,
                           warm_records=warm_records)


def test_traced_counters_match_simulated_statistics(traced_openloop):
    t = traced_openloop
    results = [p["result"] for p in t.cold.payloads]
    rec_ = t.cold_records
    # Open-loop points count activity over the whole run, like the spans.
    assert metrics.tally(rec_, "sim.crossbar") == \
        sum(r["crossbar_traversals"] for r in results)
    assert metrics.tally(rec_, "sim.flit_hops") == \
        sum(r["link_flit_hops"] for r in results)
    # Every flit a channel delivers is one link hop.
    assert metrics.tally(rec_, "noc.channel_deliver") == \
        sum(r["link_flit_hops"] for r in results)
    assert metrics.calls(rec_, "noc.inject_gen") == len(results)
    slices = sum(2 if task.design.double_network else 1
                 for task in t.wl.tasks())
    assert metrics.calls(rec_, "noc.network_step") == \
        slices * (TINY["warmup"] + TINY["measure"])


def test_traced_run_passes_coverage_and_is_read_only(traced_openloop):
    t = traced_openloop
    found = checks.coverage_checks("openloop", t.cold_records,
                                   t.warm_records, len(t.warms),
                                   len(t.cold.payloads))
    assert [c for c in found if c[1]] == []
    assert metrics.digest(t.cold.payloads) == \
        metrics.digest(t.untraced.payloads)
    assert checks.warm_equals_cold(t.wl.cold_results(t.cold),
                                   t.warms[-1].results)[1] is None


def test_stepper_checks_pass_at_tiny_windows():
    task = OpenLoop(seed=3).check_point(warmup=20, measure=40)
    assert [c for c in checks.stepper_checks(task) if c[1]] == []


def test_merge_sums_records():
    a = {"x": rec(1, 2, 3, 4)}
    b = {"x": rec(1, 1, 1, 1), "y": rec(2)}
    assert spans.merge(a, b) == {"x": [2, 3, 4, 5], "y": [2, 0, 0, 0]}
