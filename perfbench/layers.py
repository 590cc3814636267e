"""Where each layer's spans are taken: public methods of public classes
in the repository's modules, wrapped at class level.

Layers are named after the modules: ``noc`` (MeshNetwork, Router,
Channel, BatchedCore, OpenLoopRunner), ``gpu`` (SimtCore), ``mem``
(MemoryController, GddrChannel), ``system`` (Accelerator), ``parallel``
(system construction, ResultCache, result (de)serialization) and ``dse``
(the engine's stage and ranking phases, read from the exploration
result's own host profile rather than from spans).

Serialization spans cover the result classes' ``to_json``/``from_json``;
the ``json`` text encoding and parsing around them is not wrapped (the
library also uses ``json`` for cache keys and seeds), so parsing a cache
entry counts in ``ResultCache.get``'s self time.

Ejection handlers (``SimtCore.on_reply``, ``MemoryController.on_packet``)
are not wrapped: they run inside ``MeshNetwork.step`` and count in its
self time together with source drain and wake scheduling.
"""

from __future__ import annotations

from typing import List

from repro.gpu.core import SimtCore
from repro.mem.controller import MemoryController
from repro.mem.dram import GddrChannel
from repro.core.builder import NetworkSystem
from repro.noc.batched import BatchedCore
from repro.noc.channel import Channel
from repro.noc.ideal import PerfectNetwork
from repro.noc.network import MeshNetwork
from repro.noc.openloop import LoadLatencyPoint, OpenLoopRunner
from repro.noc.router import Router
from repro.parallel import ResultCache
from repro.system.accelerator import Accelerator, SimulationResult

from perfbench.spans import Target

#: Span names that make up the NoC's own host time.
NOC_SPANS = ("noc.router_step", "noc.batched_sweep", "noc.channel_deliver",
             "noc.network_step", "noc.try_inject")
#: Spans that only run while something is being simulated.
SIM_SPANS = NOC_SPANS + ("noc.inject_gen", "gpu.core_step", "mem.mc_step",
                         "mem.dram_step", "system.chip_step",
                         "system.chip_run")
#: The span whose end marks the end of a task in a pool worker: the
#: result's conversion for transport.  Workers flush their totals there.
TASK_END_SPAN = "parallel.serialize"


def _stats_counters(network) -> dict:
    stats = getattr(network, "stats", None)
    return {"sim.crossbar": getattr(stats, "crossbar_traversals", 0),
            "sim.flit_hops": getattr(stats, "link_flit_hops", 0)}


def _chip_counters(result, args) -> dict:
    """Whole-run totals of a finished chip (warmup included), to pair
    with whole-run call counts."""
    chip = args[0]
    counters = _stats_counters(chip.network)
    counters["sim.retired"] = sum(core.retired_scalar
                                  for core in chip.cores)
    return counters


def _runner_counters(result, args) -> dict:
    return _stats_counters(args[0].network)


def _count_true(result, args) -> int:
    return 1 if result else 0


def _count_hit(result, args) -> int:
    return 0 if result is None else 1


def _returned(result, args) -> int:
    return result


def targets() -> List[Target]:
    """Every wrapped method and the span it feeds."""
    build = "parallel.build"
    serialize = "parallel.serialize"
    deserialize = "parallel.deserialize"
    return [
        # noc
        Target(Router, "step", "noc.router_step"),
        Target(Router, "step_reference", "noc.router_step"),
        Target(BatchedCore, "sweep", "noc.batched_sweep"),
        Target(Channel, "deliver", "noc.channel_deliver", tally=_returned),
        Target(MeshNetwork, "step", "noc.network_step"),
        Target(MeshNetwork, "try_inject", "noc.try_inject",
               tally=_count_true),
        Target(OpenLoopRunner, "run", "noc.inject_gen",
               counters=_runner_counters),
        # gpu, mem, system
        Target(SimtCore, "step", "gpu.core_step"),
        Target(MemoryController, "icnt_step", "mem.mc_step"),
        Target(GddrChannel, "step", "mem.dram_step"),
        Target(Accelerator, "step", "system.chip_step"),
        Target(Accelerator, "run", "system.chip_run",
               counters=_chip_counters),
        # parallel: construction
        Target(MeshNetwork, "__init__", build),
        Target(NetworkSystem, "__init__", build),
        Target(BatchedCore, "__init__", build),
        Target(PerfectNetwork, "__init__", build),
        Target(Accelerator, "__init__", build),
        Target(OpenLoopRunner, "__init__", build),
        # parallel: cache and JSON transport
        Target(ResultCache, "get", "parallel.cache_get", tally=_count_hit),
        Target(ResultCache, "put", "parallel.cache_put"),
        Target(SimulationResult, "to_json", serialize),
        Target(LoadLatencyPoint, "to_json", serialize),
        Target(SimulationResult, "from_json", deserialize),
        Target(LoadLatencyPoint, "from_json", deserialize),
    ]
