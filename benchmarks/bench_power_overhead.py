"""Activity-counter overhead: the power model's counting must be free.

The four always-on :class:`repro.noc.stats.NetworkStats` activity
counters (``crossbar_traversals`` / ``buffer_reads`` / ``buffer_writes``
/ ``link_flit_hops`` — DESIGN.md §17) are incremented on the hottest
paths of both cycle cores, so their cost is bounded here in the regime
where it matters most: the saturated open-loop mesh on the batched
core, the fastest stepper and therefore the worst case for *relative*
overhead.

Enforcing the ``< 2%`` contract follows the same reasoning as
``bench_obs_overhead.py``: the per-event cost is a handful of integer
attribute adds (~50–100 ns worth per *batch*, nanoseconds per flit)
while end-to-end run time on a shared CI box jitters by milliseconds,
so differencing two run-time distributions cannot resolve it — and the
counters have no off switch to difference against anyway (always-on is
the contract).  Instead the enforced number is deterministic and
deliberately an *upper bound*: the benchmark times a bare
``stats.<counter> += 1`` in a tight loop, prices every increment the
simulator executes as one such bare increment, and divides by the
measured saturated run time.  The code batches (``+= moved`` /
``+= arrived`` once per phase per cycle), so the executed increments
are counted, in a separate untimed replay of the same run whose
networks carry a ``NetworkStats`` that counts assignments to the four
counters, rather than read off the counter totals: pricing every
counted *unit* as its own increment overstated the cost by two orders
of magnitude and made the bound rise whenever the simulator got faster.
The batch sizes themselves are computed for the buffer accounting
anyway.  A change that moved a counter back to a per-flit ``+= 1``
would multiply the executed count and trip the floor.

The saturated run is re-timed over ``REPRO_BENCH_REPS`` rounds (default
3) with up to ``REPRO_BENCH_EXTRA_REPS`` retry rounds (default 4) while
the floor is unmet — per-round minima only sharpen with more samples,
so retries converge to the clean-machine number instead of flaking on a
noise burst.  Writes ``benchmarks/results/BENCH_power.json``.
"""

from __future__ import annotations

import json
import os
import time

from common import RESULTS_DIR, SEED, once, report
from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.openloop import OpenLoopRunner
from repro.noc.stats import NetworkStats
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew

BENCH_SCHEMA = 2
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))
EXTRA_REPS = max(0, int(os.environ.get("REPRO_BENCH_EXTRA_REPS", "4")))
FLOOR_PCT = float(os.environ.get("REPRO_BENCH_POWER_FLOOR_PCT", "2.0"))
COST_LOOPS = 200_000

#: The saturated open-loop workload from ``bench_core_throughput`` — the
#: batched core's home regime, where per-cycle simulation work is at its
#: cheapest relative to the flit traffic being counted.
DESIGN = "TB-DOR"
MESH = (20, 20)
WARMUP, MEASURE = 300, 800
SATURATED_RATE = 0.30

COUNTERS = ("crossbar_traversals", "buffer_reads", "buffer_writes",
            "link_flit_hops")


def _increment_cost_ns() -> float:
    """Nanoseconds for one bare ``stats.<counter> += 1``.

    Min of 3 rounds over a real :class:`NetworkStats` instance, so a GC
    pause or scheduler preemption cannot inflate the enforced number.
    """
    stats = NetworkStats()
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(COST_LOOPS):
            stats.crossbar_traversals += 1
        rounds.append((time.perf_counter() - start) / COST_LOOPS * 1e9)
    return min(rounds)


class _CountingStats(NetworkStats):
    """``NetworkStats`` that also counts assignments to the activity
    counters: one per executed ``stats.<counter> += n``."""

    def __init__(self) -> None:
        super().__init__()
        object.__setattr__(self, "increments", 0)

    def __setattr__(self, name, value) -> None:
        if name in COUNTERS and "increments" in self.__dict__:
            object.__setattr__(self, "increments", self.increments + 1)
        object.__setattr__(self, name, value)


def _saturated_run(count_increments: bool = False):
    """One saturated open-loop run on the batched core.

    Returns (wall seconds, total counter units, payload, increments);
    ``increments`` (executed counter increments) is counted only when
    ``count_increments`` is set, and is ``None`` otherwise.
    """
    system = build(open_loop_variant(design_by_name(DESIGN)),
                   Mesh(*MESH), num_mcs=8, seed=SEED)
    system.use_batched_stepper()
    if count_increments:
        for net in system.networks:
            net.stats = _CountingStats()
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes),
                            SATURATED_RATE, seed=SEED)
    start = time.perf_counter()
    point = runner.run(warmup=WARMUP, measure=MEASURE)
    seconds = time.perf_counter() - start
    units = sum(getattr(net.stats, name) for net in system.networks
                for name in COUNTERS)
    increments = (sum(net.stats.increments for net in system.networks)
                  if count_increments else None)
    return seconds, units, point.to_json(), increments


def _experiment():
    cost_ns = _increment_cost_ns()

    best_seconds = None
    units = None
    golden = None
    reps = 0

    def one_round():
        nonlocal best_seconds, units, golden, reps
        seconds, round_units, payload, _ = _saturated_run()
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
        if golden is None:
            golden, units = payload, round_units
        elif payload != golden or round_units != units:
            raise AssertionError(
                "saturated run is not deterministic across repetitions")
        reps += 1

    def overhead_pct():
        return increments * cost_ns / (best_seconds * 1e9) * 100.0

    for _ in range(REPS):
        one_round()
    _, counted_units, counted_payload, increments = _saturated_run(
        count_increments=True)
    if counted_payload != golden or counted_units != units:
        raise AssertionError(
            "the increment-counting replay diverged from the timed runs")
    for _ in range(EXTRA_REPS):
        if overhead_pct() < FLOOR_PCT:
            break
        one_round()

    pct = round(overhead_pct(), 3)
    payload = {
        "schema": BENCH_SCHEMA,
        "workload": {"design": DESIGN, "mesh": list(MESH),
                     "rate": SATURATED_RATE, "warmup": WARMUP,
                     "measure": MEASURE, "stepper": "batched"},
        "reps": reps,
        "floor_pct": FLOOR_PCT,
        "increment_cost_ns": round(cost_ns, 2),
        "counter_units": units,
        "increments_executed": increments,
        "best_run_seconds": round(best_seconds, 4),
        "overhead_pct_upper_bound": pct,
        "deterministic": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_power.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    if pct >= FLOOR_PCT:
        raise AssertionError(
            f"activity counters price at {increments} x {cost_ns:.1f} "
            "ns = "
            f"{pct:.2f}% of a {best_seconds:.3f}s saturated run "
            f"(upper bound), over the {FLOOR_PCT}% floor after {reps} "
            "rounds")

    return [
        f"increment cost          {cost_ns:8.1f} ns per bare += 1 "
        "(measured directly, min of 3 rounds)",
        f"counter units           {units:8d} counted by the four counters",
        f"increments executed     {increments:8d} priced, each as a bare "
        "+= 1 (counted in an untimed replay)",
        f"saturated run (batched) {best_seconds:8.3f} s best of "
        f"{reps} rounds",
        f"counter overhead        {pct:+8.2f} % of saturated throughput "
        f"(upper bound; floor {FLOOR_PCT}%)",
        "(details in results/BENCH_power.json)",
    ]


def test_power_overhead(benchmark):
    report("power_overhead", once(benchmark, _experiment))


if __name__ == "__main__":
    # Plain-script entry for CI (no pytest-benchmark dependency).
    report("power_overhead", _experiment())
