"""The benchmark's workloads, each a set of calls into public entry
points of :mod:`repro`.

Every workload offers the same surface:

* ``cold(workdir)`` — the pinned call, from scratch: fresh systems, no
  usable cache.  Returns a :class:`ColdRun` with the payload of every
  task it simulated.
* ``fill(cold, workdir)`` — a :class:`~repro.parallel.ResultCache`
  holding every task of the cold call (for ``explore`` the cold call's own
  cache).
* ``warm(store)`` — the same study replayed through the library's study
  function against that cache; returns a :class:`WarmRun`.
* ``first_system()`` — builds the system of the workload's first task
  (what ``setup_s`` times in a fresh interpreter).
* ``check_point(windows)`` — one short pinned point as a ``SimTask``, for
  the correctness checks.

Seeds come from the command line; windows are the library's defaults
unless a test shrinks them.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.builder import (BASELINE, THROUGHPUT_EFFECTIVE, build,
                                open_loop_variant)
from repro.dse import explore_preset
from repro.dse.presets import preset
from repro.experiments import load_latency_curves, open_loop_task
from repro.noc.openloop import OpenLoopRunner
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew
from repro.parallel import ReportCollector, ResultCache, SimTask, run_tasks

OPENLOOP_DESIGNS = (BASELINE, THROUGHPUT_EFFECTIVE)
OPENLOOP_RATES = (0.01, 0.04, 0.08)
LIGHT_RATE = 0.01
SATURATED_RATE = 0.08
EXPLORE_PRESET = "smoke"
#: Pool size of the traced exploration, which covers the process pool.
#: The untraced end-to-end run uses ``jobs=1``: on a host with two CPUs a
#: two-worker pool's wall-clock needs both to be free at once, and one set
#: of ten runs with the pool spread it by the largest allowed bound.
EXPLORE_JOBS = 2


@dataclass
class ColdRun:
    """One cold call: wall-clock, per-task reports and payloads.

    ``segments`` splits the call's wall-clock into named consecutive
    parts that repeat in every call (tasks of a serial call, ladder
    stages of an exploration); the rest of the wall is call overhead.
    """

    wall_s: float
    reports: list                   # TaskReport, in completion order
    payloads: Optional[List[dict]]  # task payloads, canonical order
    sim_cycles: int                 # interconnect cycles simulated
    jobs: int
    segments: Dict[str, float]
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def task_seconds(self) -> float:
        """Summed host seconds of the executed tasks."""
        return sum(r.seconds for r in self.reports if not r.cached)

    def task_times(self) -> Dict[str, float]:
        """Host seconds of each executed task, keyed by its position in
        its ``run_tasks`` call (labels alone can repeat across stages)."""
        return {f"{r.total}/{r.index}/{r.label}": r.seconds
                for r in self.reports if not r.cached}


@dataclass
class WarmRun:
    """One warm replay: wall-clock of the library call(s), cache hits
    served, results comparable with the cold call's, and the
    exploration's host phases (``explore`` only)."""

    wall_s: float
    hits: int
    results: list
    phases: Optional[Dict[str, float]] = None


def _timed_tasks(tasks: List[SimTask], jobs: int) -> ColdRun:
    collector = ReportCollector()
    start = time.perf_counter()
    payloads = run_tasks(tasks, jobs=jobs, progress=collector)
    wall = time.perf_counter() - start
    return ColdRun(wall_s=wall, reports=collector.reports,
                   payloads=payloads,
                   sim_cycles=sum(t.warmup + t.measure for t in tasks),
                   jobs=jobs,
                   segments={r.label: r.seconds for r in collector.reports})


def _filled_cache(tasks: List[SimTask], cold: ColdRun,
                  workdir: Path) -> ResultCache:
    store = ResultCache(workdir / "warm-cache")
    store.clear()
    for task, payload in zip(tasks, cold.payloads):
        store.put(task.cache_key(), payload)
    return store


class OpenLoop:
    """Figure 21's load-latency sweep: TB-DOR and Throughput-Effective
    under many-to-few uniform traffic, from light load to past TB-DOR
    saturation."""

    name = "openloop"
    default_seed = 7

    def __init__(self, seed: int, jobs: int = 1, warmup: int = 1000,
                 measure: int = 3000) -> None:
        self.seed = seed
        self.jobs = jobs
        self.warmup = warmup
        self.measure = measure

    def tasks(self) -> List[SimTask]:
        """Exactly the tasks ``load_latency_curves`` builds."""
        return [open_loop_task(design, UniformManyToFew, "uniform", rate,
                               base_seed=self.seed, warmup=self.warmup,
                               measure=self.measure)
                for design in OPENLOOP_DESIGNS for rate in OPENLOOP_RATES]

    def cold(self, workdir: Path) -> ColdRun:
        return _timed_tasks(self.tasks(), self.jobs)

    def fill(self, cold: ColdRun, workdir: Path) -> ResultCache:
        return _filled_cache(self.tasks(), cold, workdir)

    def warm(self, store: ResultCache) -> WarmRun:
        collector = ReportCollector()
        start = time.perf_counter()
        curves = load_latency_curves(
            list(OPENLOOP_DESIGNS), list(OPENLOOP_RATES), UniformManyToFew,
            "uniform", warmup=self.warmup, measure=self.measure,
            seed=self.seed, jobs=self.jobs, cache=store,
            progress=collector)
        wall = time.perf_counter() - start
        return WarmRun(wall, collector.cached,
                       [p.to_json() for c in curves for p in c.points])

    def payloads(self, cold: ColdRun) -> List[dict]:
        return cold.payloads

    def cold_results(self, cold: ColdRun) -> list:
        return [p["result"] for p in cold.payloads]

    def first_system(self):
        return _open_loop_system(self.tasks()[0])

    def check_point(self, warmup: int = 200, measure: int = 400) -> SimTask:
        return open_loop_task(BASELINE, UniformManyToFew, "uniform",
                              SATURATED_RATE, base_seed=self.seed,
                              warmup=warmup, measure=measure)


class Explore:
    """The DSE ladder: ``explore_preset("smoke")`` cold against an empty
    private cache, then warm replays against the filled one."""

    name = "explore"
    default_seed = 11

    def __init__(self, seed: int, jobs: int = EXPLORE_JOBS) -> None:
        self.seed = seed
        self.jobs = jobs
        self.spec = preset(EXPLORE_PRESET)
        self._calls = 0

    def cold(self, workdir: Path) -> ColdRun:
        self._calls += 1
        cache_dir = workdir / f"explore-cache-{self._calls}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        store = ResultCache(cache_dir)
        collector = ReportCollector()
        start = time.perf_counter()
        result = explore_preset(EXPLORE_PRESET, seed=self.seed,
                                jobs=self.jobs, cache=store,
                                progress=collector)
        wall = time.perf_counter() - start
        # The task payloads live in the cache; ``payloads`` reads them
        # after the call so the read is not part of it.
        cold = ColdRun(wall_s=wall, reports=collector.reports,
                       payloads=None,
                       sim_cycles=self._stage_cycles(result.host),
                       jobs=self.jobs,
                       segments=dict(result.host["phases"]),
                       extra={"result": result, "cache_dir": cache_dir})
        if self.jobs == 1:
            # Serial tasks add up to the wall-clock, so they are the
            # finer split.
            cold.segments = cold.task_times()
        return cold

    def payloads(self, cold: ColdRun) -> List[dict]:
        """The cold call's task payloads from its cache, in key order (a
        canonical order independent of worker scheduling)."""
        store = ResultCache(cold.extra["cache_dir"])
        return [store.get(path.stem) for path in
                sorted(Path(cold.extra["cache_dir"]).glob("*.json"))]

    def _stage_cycles(self, host: dict) -> int:
        """Interconnect cycles simulated, from the stage tallies and the
        preset's ladder windows."""
        ladder = self.spec.ladder
        cycles = 0
        for stage in host["stages"]:
            name, executed = stage["stage"], stage["executed"]
            if name == "screen":
                window = ladder.screen_warmup + ladder.screen_measure
            elif name == "confirm":
                window = ladder.confirm_warmup + ladder.confirm_measure
            else:                       # "round<k>", windows double
                scale = 2 ** (int(name[len("round"):]) - 1)
                window = (ladder.round_warmup + ladder.round_measure) * scale
            cycles += executed * window
        return cycles

    def fill(self, cold: ColdRun, workdir: Path) -> ResultCache:
        return ResultCache(cold.extra["cache_dir"])

    def warm(self, store: ResultCache) -> WarmRun:
        collector = ReportCollector()
        start = time.perf_counter()
        result = explore_preset(EXPLORE_PRESET, seed=self.seed,
                                jobs=self.jobs, cache=store,
                                progress=collector)
        wall = time.perf_counter() - start
        return WarmRun(wall, collector.cached, [result.to_json()],
                       dict(result.host["phases"]))

    def cold_results(self, cold: ColdRun) -> list:
        return [cold.extra["result"].to_json()]

    def first_system(self):
        # The first task screens the first candidate; windows do not
        # affect the build.
        return _open_loop_system(self.check_point())

    def check_point(self, warmup: int = 100, measure: int = 200) -> SimTask:
        """The first candidate's screen point at short windows."""
        candidates, _ = self.spec.space.enumerate()
        return open_loop_task(candidates[0].design, UniformManyToFew,
                              "uniform", self.spec.ladder.screen_rate,
                              base_seed=self.seed, warmup=warmup,
                              measure=measure,
                              config=candidates[0].chip_config())


WORKLOADS = {cls.name: cls for cls in (OpenLoop, Explore)}


def make(name: str, seed: Optional[int] = None, jobs: Optional[int] = None):
    """The named workload at ``seed`` (its default seed when ``None``),
    with ``jobs`` workers (its traced pool size when ``None``)."""
    cls = WORKLOADS[name]
    kwargs = {} if jobs is None else {"jobs": jobs}
    return cls(cls.default_seed if seed is None else seed, **kwargs)


def _open_loop_system(task: SimTask):
    """Open-loop system and runner for ``task``, built from public
    constructors the way the task executor builds them."""
    mesh, num_mcs = None, 8
    if task.config is not None:
        mesh = Mesh(task.config.mesh_cols, task.config.mesh_rows)
        num_mcs = task.config.num_memory_channels
    system = build(open_loop_variant(task.design), mesh, num_mcs=num_mcs,
                   seed=task.seed)
    return system, OpenLoopRunner(
        system, system.compute_nodes, system.mc_nodes,
        task.pattern_factory(system.mc_nodes), task.rate, seed=task.seed)
