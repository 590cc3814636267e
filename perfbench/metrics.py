"""Metric derivations: end-to-end figures from timed calls, per-layer
figures from span records, and the simulated-statistics record.

Everything here is a pure function of its inputs, so the derivations are
tested at tiny windows without timing anything.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

from perfbench.spans import CALLS, SELF_NS, TALLY

#: (name, unit, better) for every end-to-end metric, in print order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) for every per-layer metric, in print order.  The
#: ``sim.*`` statistics must stay identical under a speed-only change;
#: their direction is nominal.
PER_LAYER = (
    ("noc.router_step.self_s", "s", "lower"),
    ("noc.router_step.calls", "count", "lower"),
    ("noc.batched_sweep.self_s", "s", "lower"),
    ("noc.channel_deliver.self_s", "s", "lower"),
    ("noc.channel_deliver.calls", "count", "lower"),
    ("noc.network_step.self_s", "s", "lower"),
    ("noc.flits_per_router_step", "flits/step", "higher"),
    ("noc.flits_per_deliver", "flits/call", "higher"),
    ("noc.ns_per_flit_hop", "ns/hop", "lower"),
    ("noc.light_cycles_per_s", "cycles/s", "higher"),
    ("noc.sat_cycles_per_s", "cycles/s", "higher"),
    ("noc.try_inject.calls", "count", "lower"),
    ("noc.try_inject.accept_ratio", "fraction", "higher"),
    ("noc.inject_gen.self_s", "s", "lower"),
    ("gpu.core_step.self_s", "s", "lower"),
    ("gpu.core_step.calls", "count", "lower"),
    ("gpu.instr_per_core_step", "instr/step", "higher"),
    ("mem.mc_step.self_s", "s", "lower"),
    ("mem.mc_step.calls", "count", "lower"),
    ("mem.dram_step.self_s", "s", "lower"),
    ("mem.dram_step.calls", "count", "lower"),
    ("system.chip_step.self_s", "s", "lower"),
    ("parallel.build_s", "s", "lower"),
    ("parallel.warm_hits_per_s", "hits/s", "higher"),
    ("parallel.cache_get_s", "s", "lower"),
    ("parallel.cache_hit_ratio", "fraction", "higher"),
    ("parallel.deserialize_s", "s", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.serialize_s", "s", "lower"),
    ("parallel.worker_busy_ratio", "fraction", "higher"),
    ("dse.rank_s", "s", "lower"),
    ("dse.screen_s", "s", "lower"),
    ("dse.halving_s", "s", "lower"),
    ("dse.confirm_s", "s", "lower"),
    ("sim.flits_ejected", "count", "higher"),
    ("sim.link_flit_hops", "count", "lower"),
    ("sim.retired_instr", "count", "higher"),
    ("sim.ipc_hm", "instr/cycle", "higher"),
    ("sim.latency_p99", "cycles", "lower"),
    ("sim.dram_row_hit_rate", "fraction", "higher"),
    ("sim.digest", "sha256_52bit", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


# -- estimators over a run's repeated samples ---------------------------------
#
# Host speed on a shared machine drifts by tens of per cent over seconds to
# minutes and switches between fast and slow spells.  A median reads
# whichever spell dominated the run, so the estimators take repeated work
# at its fast end instead: each task or stage of the cold calls at its
# fastest repetition in the run.


def fastest_sum(samples: Sequence[Dict[str, float]]) -> float:
    """Sum over keys of each key's fastest repetition across samples."""
    keys = {key for sample in samples for key in sample}
    return sum(min(s[key] for s in samples if key in s) for key in keys)


def best_wall(walls: Sequence[float],
              segments: Sequence[Dict[str, float]]) -> float:
    """Best-case wall-clock of a repeated call: each segment (task or
    stage) at its fastest repetition plus the smallest leftover call
    overhead."""
    leftover = min(w - sum(seg.values()) for w, seg in zip(walls, segments))
    return fastest_sum(segments) + leftover


# -- span records -------------------------------------------------------------


def _field(records: Dict[str, List[int]], name: str, index: int) -> int:
    rec = records.get(name)
    return rec[index] if rec is not None else 0


def calls(records: Dict[str, List[int]], name: str) -> int:
    return _field(records, name, CALLS)


def self_s(records: Dict[str, List[int]], name: str) -> float:
    return _field(records, name, SELF_NS) / 1e9


def tally(records: Dict[str, List[int]], name: str) -> int:
    return _field(records, name, TALLY)


def span_metrics(cold: Dict[str, List[int]], noc_spans: Iterable[str]
                 ) -> Dict[str, float]:
    """Per-layer metrics of one traced cold call."""
    router_steps = calls(cold, "noc.router_step")
    delivers = calls(cold, "noc.channel_deliver")
    injects = calls(cold, "noc.try_inject")
    core_steps = calls(cold, "gpu.core_step")
    noc_ns = sum(_field(cold, name, SELF_NS) for name in noc_spans)
    return {
        "noc.router_step.self_s": self_s(cold, "noc.router_step"),
        "noc.router_step.calls": router_steps,
        "noc.batched_sweep.self_s": self_s(cold, "noc.batched_sweep"),
        "noc.channel_deliver.self_s": self_s(cold, "noc.channel_deliver"),
        "noc.channel_deliver.calls": delivers,
        "noc.network_step.self_s": self_s(cold, "noc.network_step"),
        "noc.flits_per_router_step": ratio(tally(cold, "sim.crossbar"),
                                           router_steps),
        "noc.flits_per_deliver": ratio(tally(cold, "noc.channel_deliver"),
                                       delivers),
        "noc.ns_per_flit_hop": ratio(noc_ns, tally(cold, "sim.flit_hops")),
        "noc.try_inject.calls": injects,
        "noc.try_inject.accept_ratio": ratio(tally(cold, "noc.try_inject"),
                                             injects),
        "noc.inject_gen.self_s": self_s(cold, "noc.inject_gen"),
        "gpu.core_step.self_s": self_s(cold, "gpu.core_step"),
        "gpu.core_step.calls": core_steps,
        "gpu.instr_per_core_step": ratio(tally(cold, "sim.retired"),
                                         core_steps),
        "mem.mc_step.self_s": self_s(cold, "mem.mc_step"),
        "mem.mc_step.calls": calls(cold, "mem.mc_step"),
        "mem.dram_step.self_s": self_s(cold, "mem.dram_step"),
        "mem.dram_step.calls": calls(cold, "mem.dram_step"),
        "system.chip_step.self_s": self_s(cold, "system.chip_step"),
        "parallel.build_s": self_s(cold, "parallel.build"),
        "parallel.cache_put_s": self_s(cold, "parallel.cache_put"),
        "parallel.serialize_s": self_s(cold, "parallel.serialize"),
    }


def warm_metrics(warm: Dict[str, List[int]], replays) -> Dict[str, float]:
    """Per-replay metrics of traced warm replays (``WarmRun`` objects)."""
    n = len(replays)
    gets = calls(warm, "parallel.cache_get")
    return {
        "parallel.warm_hits_per_s": statistics.median(
            r.hits / r.wall_s for r in replays),
        "parallel.cache_get_s": ratio(self_s(warm, "parallel.cache_get"),
                                      n),
        "parallel.cache_hit_ratio": ratio(tally(warm, "parallel.cache_get"),
                                          gets),
        "parallel.deserialize_s": ratio(
            self_s(warm, "parallel.deserialize"), n),
        "dse.rank_s": ratio(sum(rank_seconds(r.phases) for r in replays), n),
    }


def dse_phase_metrics(phases: Optional[Dict[str, float]]
                      ) -> Dict[str, float]:
    """Stage times from an exploration's own host profile (zero for
    workloads that run no exploration)."""
    phases = phases or {}
    return {
        "dse.screen_s": phases.get("screen", 0.0),
        "dse.halving_s": sum((v for k, v in phases.items()
                              if k.startswith("round")), 0.0),
        "dse.confirm_s": phases.get("confirm", 0.0),
    }


def rank_seconds(phases: Optional[Dict[str, float]]) -> float:
    """Post-simulation time of an exploration: ranking, Pareto frontiers
    and power pricing."""
    phases = phases or {}
    return phases.get("rank", 0.0) + phases.get("power", 0.0)


def busy_ratio(task_seconds: float, wall_s: float, jobs: int) -> float:
    """Summed task seconds over the workers' available seconds."""
    return ratio(task_seconds, wall_s * jobs)


def rate_throughput(reports, cycles_by_label: Dict[str, int],
                    rate: float) -> float:
    """Host throughput (simulated cycles per task second) of the
    open-loop points at offered ``rate``; 0.0 if there are none."""
    suffix = f"@{rate:g}"
    cycles = seconds = 0.0
    for report in reports:
        if report.label.endswith(suffix) and not report.cached:
            cycles += cycles_by_label[report.label]
            seconds += report.seconds
    return ratio(cycles, seconds)


# -- simulated statistics -----------------------------------------------------


def canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def strip_host(payload: dict) -> dict:
    """A task payload without its host wall-clock field."""
    return {k: v for k, v in payload.items() if k != "elapsed"}


def digest(payloads: Sequence[dict], results: Sequence[dict] = ()) -> str:
    """sha256 over the canonical task payloads (host ``elapsed`` removed)
    followed by any study-level results."""
    body = canonical([[strip_host(p) for p in payloads], list(results)])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def digest_number(hexdigest: str) -> int:
    """The digest's first 52 bits: exact in a JSON number."""
    return int(hexdigest[:13], 16)


def _harmonic_mean(values: List[float]) -> float:
    if not values or any(v <= 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def sim_record(payloads: Sequence[dict], hexdigest: str) -> Dict[str, float]:
    """Exact simulated statistics of a workload's tasks.  Identical for
    any change that only alters host speed.

    ``sim.ipc_hm`` is the harmonic-mean IPC over the closed-loop tasks.
    The repository holds no measured reference for it, so it is
    unvalidated: it tracks model changes, not accuracy."""
    results = [p["result"] for p in payloads]
    closed = [p["result"] for p in payloads
              if p["kind"] in ("closed", "perfect")]
    return {
        "sim.flits_ejected": sum(r.get("flits_ejected", 0) for r in results),
        "sim.link_flit_hops": sum(r.get("link_flit_hops", 0)
                                  for r in results),
        "sim.retired_instr": sum(r["retired_scalar"] for r in closed),
        "sim.ipc_hm": _harmonic_mean([r["ipc"] for r in closed]),
        "sim.latency_p99": max((r.get("latency_p99", 0.0) for r in results),
                               default=0.0),
        "sim.dram_row_hit_rate": ratio(
            sum(r["dram_row_hit_rate"] for r in closed), len(closed)),
        "sim.digest": digest_number(hexdigest),
    }
