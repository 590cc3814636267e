"""One measurement in a fresh interpreter; started by ``run.py``.

Modes:

* ``setup`` — import ``repro`` and build the workload's first system;
  reports the seconds that took.
* ``measure`` — untraced: serial cold calls for the time budget with
  ``setup`` probes between them, peak RSS, one warm replay and the
  correctness checks.
* ``trace`` — one untraced cold call, then the same call and warm
  replays with span wrappers installed; per-layer metrics, the
  layer-coverage self-check and the correctness checks.

The result is one JSON object on the last line of standard output.
``repro`` is imported lazily so that ``setup`` times the import.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Traced warm replays in ``trace`` mode.
TRACED_WARM_REPLAYS = 5
#: ``setup`` probes after each cold call in ``measure`` mode, so that the
#: probes of a run spread over all of it.
PROBES_PER_CALL = 1
#: Network steps per chunk of the ``measure`` mode's chunk clock.
CHUNK_STEPS = 50
#: Seconds budgeted per cold call: ``measure`` makes
#: ``max(2, seconds // CALL_BUDGET_S)`` cold calls.  The count depends on
#: ``--seconds`` alone, never on the host's speed at the time, because
#: the fastest-repetition estimators read lower the more repetitions they
#: get (three against four calls moved ``openloop.wall_s`` by 10 %).
CALL_BUDGET_S = 18.0


def _import_repro() -> None:
    """Import ``repro`` and insist it is this checkout's copy."""
    import repro
    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def setup(args, workdir: Path) -> dict:
    start = time.perf_counter()
    _import_repro()
    from perfbench.workloads import make
    make(args.workload, args.seed).first_system()
    return {"setup_s": time.perf_counter() - start}


def _backend(wl) -> str:
    system = wl.first_system()
    if isinstance(system, tuple):           # (network system, runner)
        system = system[0]
    return system.stepper_backend


def _peak_rss_mb() -> float:
    """Peak RSS so far of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_probe(args) -> float:
    """``setup_s`` of one fresh interpreter, run as a child."""
    cmd = [sys.executable, "-m", "perfbench.worker", "setup",
           "--workload", args.workload, "--workdir", str(args.workdir)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def _common(wl, colds, warms) -> dict:
    """Simulated-statistics record and the correctness checks shared by
    both modes."""
    from perfbench import checks, metrics
    last = colds[-1]
    payloads = wl.payloads(last)
    digests = [metrics.digest(wl.payloads(c), wl.cold_results(c))
               for c in colds]
    results = checks.stepper_checks(wl.check_point())
    results += [
        checks.warm_equals_cold(wl.cold_results(last), warms[-1].results),
        checks.warm_hits([w.hits for w in warms], len(payloads)),
        checks.json_round_trip(payloads),
        checks.repeat_identical(digests),
    ]
    return {
        "payloads": payloads,
        "checks": results,
        "sim": metrics.sim_record(payloads, digests[-1]),
        "digest": digests[-1],
        "backend": _backend(wl),
        "seed": wl.seed,
        "tasks": sum(len(c.reports) for c in colds),
    }


def measure(args, workdir: Path) -> dict:
    """A fixed number of serial cold calls for the time budget, each
    followed by ``setup`` probes, then one warm replay for the checks.
    Peak RSS covers the first cold call.

    A chunk clock on ``MeshNetwork.step`` splits every call into chunks
    of ``CHUNK_STEPS`` network steps (one per simulated cycle and
    network); ``wall_s`` and ``sim_cycles_per_s`` take each chunk at its
    fastest repetition.  If the calls were not split alike, they fall
    back to each task at its fastest repetition."""
    from perfbench import metrics
    from perfbench.chunks import ChunkClock
    from perfbench.workloads import make
    from repro.noc.network import MeshNetwork
    wl = make(args.workload, args.seed, jobs=1)
    colds, chunks, steps = [], [], []
    setup_samples = []
    rss = None
    clock = ChunkClock(MeshNetwork, "step", CHUNK_STEPS)
    clock.install()
    try:
        for _ in range(max(2, int(args.seconds // CALL_BUDGET_S))):
            clock.restart()
            colds.append(wl.cold(workdir))
            chunks.append(clock.segments())
            steps.append(clock.calls)
            if rss is None:
                rss = _peak_rss_mb()
            setup_samples += [_setup_probe(args)
                              for _ in range(PROBES_PER_CALL)]
    finally:
        clock.uninstall()
    warms = [wl.warm(wl.fill(colds[0], workdir))]

    out = _common(wl, colds, warms)
    del out["payloads"]
    walls = [c.wall_s for c in colds]
    if chunks[0] and len(set(steps)) == 1:
        estimator = "chunks"
        wall = metrics.best_wall(walls, chunks)
        # Cycles simulated across the chunked steps, per fastest second.
        chunked = len(chunks[0]) * CHUNK_STEPS / steps[0]
        sim = colds[0].sim_cycles * chunked / metrics.fastest_sum(chunks)
    else:
        estimator = "tasks"
        wall = metrics.best_wall(walls, [c.segments for c in colds])
        sim = colds[0].sim_cycles / metrics.fastest_sum(
            [c.task_times() for c in colds])
    out["metrics"] = {"wall_s": wall, "sim_cycles_per_s": sim,
                      "peak_rss_mb": rss}
    out["setup_samples"] = setup_samples
    out["samples"] = {"cold_calls": len(colds), "estimator": estimator,
                      "chunks": len(chunks[0])}
    return out


def trace(args, workdir: Path) -> dict:
    from perfbench import checks, layers, metrics, spans
    from perfbench.workloads import (LIGHT_RATE, SATURATED_RATE, Explore,
                                     OpenLoop, make)
    wl = make(args.workload, args.seed)
    untraced = wl.cold(workdir)

    flush_dir = workdir / "spans"
    flush_dir.mkdir()
    tracer = spans.SpanTracer(flush_on=[layers.TASK_END_SPAN],
                              flush_dir=flush_dir)
    tracer.install(layers.targets())
    try:
        traced = wl.cold(workdir)
        cold_records = spans.merge(tracer.snapshot(),
                                   spans.merge_dir(flush_dir))
        store = wl.fill(traced, workdir)
        tracer.reset()
        warms = [wl.warm(store) for _ in range(TRACED_WARM_REPLAYS)]
        warm_records = tracer.snapshot()
    finally:
        tracer.uninstall()

    out = _common(wl, [untraced, traced], warms)
    payloads = out.pop("payloads")
    out["checks"] += checks.coverage_checks(
        args.workload, cold_records, warm_records, len(warms),
        len(payloads))

    layer = metrics.span_metrics(cold_records, layers.NOC_SPANS)
    layer.update(metrics.warm_metrics(warm_records, warms))
    layer.update(metrics.dse_phase_metrics(
        untraced.segments if isinstance(wl, Explore) else None))
    layer["parallel.worker_busy_ratio"] = metrics.busy_ratio(
        untraced.task_seconds, untraced.wall_s, untraced.jobs)
    light = sat = 0.0
    if isinstance(wl, OpenLoop):
        cycles = {t.label: t.warmup + t.measure for t in wl.tasks()}
        light = metrics.rate_throughput(untraced.reports, cycles,
                                        LIGHT_RATE)
        sat = metrics.rate_throughput(untraced.reports, cycles,
                                      SATURATED_RATE)
    layer["noc.light_cycles_per_s"] = light
    layer["noc.sat_cycles_per_s"] = sat
    layer.update(out["sim"])
    layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    out["metrics"] = layer
    out["samples"] = {"cold_calls": 2, "warm_replays": len(warms)}
    return out


MODES = {"setup": setup, "measure": measure, "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.mode != "setup":
        _import_repro()
    result = MODES[args.mode](args, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
