"""Correctness checks, run outside every timed region.

Each check returns ``(name, failure)`` with ``failure`` ``None`` when it
passed.  A failed check counts as a failed operation and makes the
benchmark exit nonzero.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional, Tuple

from repro.core.builder import checked_variant
from repro.parallel import SimTask, run_tasks
from repro.system.accelerator import build_chip

from perfbench import layers
from perfbench.metrics import calls, canonical, tally
from perfbench.workloads import _open_loop_system

Check = Tuple[str, Optional[str]]


def run_direct(task: SimTask, reference: bool = False) -> dict:
    """Run ``task`` on a system built here from public constructors,
    switched to the reference stepper before any traffic exists if
    ``reference``."""
    if task.kind == "openloop":
        system, sim = _open_loop_system(task)
    else:
        system = sim = build_chip(task.profile, design=task.design,
                                  config=task.config, seed=task.seed)
    if reference:
        system.use_reference_stepper()
    return sim.run(warmup=task.warmup, measure=task.measure).to_json()


def _diff(a: dict, b: dict) -> Optional[str]:
    if canonical(a) == canonical(b):
        return None
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return f"fields differ: {keys[:8]}"


def stepper_checks(task: SimTask) -> List[Check]:
    """The executor's payload for ``task`` must equal, bit for bit, the
    reference stepper's result and the result with the invariant checker
    armed (which must also raise no violation)."""
    out: List[Check] = []
    default = run_tasks([task], jobs=1)[0]["result"]
    for name, run in (
            ("reference_stepper",
             lambda: run_direct(task, reference=True)),
            ("invariant_checker",
             lambda: run_direct(dataclasses.replace(
                 task, design=checked_variant(task.design))))):
        try:
            failure = _diff(default, run())
        except Exception as exc:         # a violation or a crash: report it
            failure = f"{type(exc).__name__}: {exc}"
        out.append((f"{name}[{task.label}]", failure))
    return out


def warm_equals_cold(cold_results: list, warm_results: list) -> Check:
    if len(cold_results) != len(warm_results):
        return ("warm_equals_cold",
                f"{len(warm_results)} warm vs {len(cold_results)} cold")
    for i, (cold, warm) in enumerate(zip(cold_results, warm_results)):
        failure = _diff(cold, warm)
        if failure is not None:
            return ("warm_equals_cold", f"result {i}: {failure}")
    return ("warm_equals_cold", None)


def warm_hits(hits: List[int], expected: int) -> Check:
    """Every warm replay was served entirely from the cache."""
    wrong = sorted({h for h in hits if h != expected})
    return ("warm_hits", None if not wrong
            else f"replays served {wrong} hits, want {expected}")


def repeat_identical(digests: List[str]) -> Check:
    """Repeated cold calls of one run (and a traced call beside an
    untraced one) produce identical payloads."""
    return ("repeat_identical", None if len(set(digests)) == 1
            else f"{len(set(digests))} digests over {len(digests)} calls")


def json_round_trip(payloads: list) -> Check:
    """Every payload survives an exact JSON round trip."""
    for payload in payloads:
        text = canonical(payload)
        if canonical(json.loads(text)) != text:
            return ("json_round_trip", f"payload {payload.get('label')}")
    return ("json_round_trip", None)


def coverage_checks(workload: str, cold: dict, warm: dict, replays: int,
                    tasks_per_call: int) -> List[Check]:
    """The workload design, verified by measurement on the traced run."""
    out: List[Check] = []

    def expect(name: str, ok: bool, detail: str) -> None:
        out.append((f"coverage.{name}", None if ok else detail))

    sim_calls = {name: calls(cold, name) for name in layers.SIM_SPANS}
    expect("noc_runs", sim_calls["noc.network_step"] > 0,
           "no MeshNetwork.step span was recorded")
    if workload == "explore":
        expect("gpu_mem_run",
               sim_calls["gpu.core_step"] > 0
               and sim_calls["mem.mc_step"] > 0,
               f"core/mc steps {sim_calls['gpu.core_step']}/"
               f"{sim_calls['mem.mc_step']}")
    if workload == "openloop":
        idle = {n: c for n, c in sim_calls.items()
                if n.split(".")[0] in ("gpu", "mem", "system") and c}
        expect("openloop_no_gpu_mem", not idle, f"calls: {idle}")
        cache = calls(cold, "parallel.cache_get") + \
            calls(cold, "parallel.cache_put")
        expect("cold_no_cache", cache == 0, f"{cache} cache calls")
    warm_sim = {name: calls(warm, name)
                for name in layers.SIM_SPANS + ("parallel.build",)}
    warm_sim = {name: n for name, n in warm_sim.items() if n}
    expect("warm_no_simulation", not warm_sim, f"calls: {warm_sim}")
    hits = tally(warm, "parallel.cache_get")
    gets = calls(warm, "parallel.cache_get")
    expect("warm_all_hits",
           hits == gets == tasks_per_call * replays,
           f"{hits} hits of {gets} gets, want {tasks_per_call} x {replays}")
    return out
