"""Closed-loop accelerator simulation.

Couples the SIMT cores, the NoC (real mesh design, perfect network, or
bandwidth-capped ideal network) and the MC nodes (L2 + GDDR3) into the full
feedback loop of Figure 1: core → request network → L2/DRAM → reply
network → core.  All of the paper's closed-loop experiments are runs of
this class under different network designs and workload profiles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.builder import NetworkDesign, NetworkSystem, build
from ..gpu.core import SimtCore
from ..mem.controller import AddressMap, MemoryController
from ..noc.histogram import merge_histograms
from ..noc.ideal import BandwidthLimitedNetwork, PerfectNetwork
from ..noc.network import _StepperContext
from ..noc.invariants import (audit_accelerator, check_accelerator,
                              format_system_state)
from ..noc.topology import Coord, Mesh
from ..core.placement import compute_nodes, top_bottom_placement
from ..workloads.generator import SyntheticKernel
from ..workloads.profiles import BenchmarkProfile
from .clocks import RateAccumulator
from .config import ChipConfig, paper_config


@dataclass
class SimulationResult:
    """Metrics over one measurement window."""

    benchmark: str
    network: str
    icnt_cycles: int
    core_cycles: int
    retired_scalar: int
    ipc: float                           # scalar instr / core clock
    accepted_bytes_per_cycle_per_node: float
    mc_injection_rate_flits: float       # flits / icnt cycle / MC node
    mc_injection_rate_bytes: float
    mc_stall_fraction: float             # Figure 11
    mean_network_latency: float          # cycles (network only)
    mean_packet_latency: float           # includes source queueing
    dram_efficiency: float
    dram_row_hit_rate: float
    l1_hit_rate: float
    l2_hit_rate: float
    # Packet-latency tail statistics over the measurement window (bounded
    # streaming histogram; defaults keep old cached/serialized payloads
    # loadable).
    latency_min: float = 0.0
    latency_max: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    # Per-component activity over the measurement window, summed across
    # physical networks (always-on NetworkStats counters; DESIGN.md §17).
    # They feed the repro.power model post-hoc, so a PowerReport is
    # computable from any cached result without rerunning.  Defaults keep
    # old serialized payloads loadable.
    crossbar_traversals: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    link_flit_hops: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline IPC is zero")
        return self.ipc / baseline.ipc - 1.0

    def as_dict(self) -> dict:
        """Plain-dict view for JSON/CSV tooling."""
        from dataclasses import asdict
        return asdict(self)

    def to_json(self) -> dict:
        """JSON-compatible dict; floats survive exactly (``repr`` round
        trip), which the parallel harness's transport and cache rely on."""
        return self.as_dict()

    @classmethod
    def from_json(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_json` with field-for-field equality."""
        return cls(**data)


@dataclass
class _Snapshot:
    core_cycles: int
    retired: int
    icnt_cycles: int
    bytes_ejected: float
    mc_inj_flits: float
    mc_inj_bytes: float
    mc_blocked: int
    mc_cycles: int
    net_latency_sum: int
    packet_latency_sum: int
    packets: int
    dram_busy: int
    dram_pending: int
    dram_row_hits: int
    dram_row_total: int
    l1_hits: int
    l1_accesses: int
    l2_hits: int
    l2_accesses: int
    crossbar_traversals: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    link_flit_hops: int = 0
    flits_injected: int = 0
    flits_ejected: int = 0
    latency_hist: object = None          # StreamingHistogram copy


class Accelerator:
    """The full chip."""

    def __init__(self, network, mc_coords: Sequence[Coord],
                 compute_coords: Sequence[Coord], kernel: SyntheticKernel,
                 config: Optional[ChipConfig] = None) -> None:
        self.config = config if config is not None else paper_config()
        self.network = network
        self.kernel = kernel
        self.mc_coords = list(mc_coords)
        self.compute_coords = list(compute_coords)
        if len(self.mc_coords) != self.config.num_memory_channels:
            raise ValueError("MC count does not match the configuration")
        if len(self.compute_coords) != self.config.num_compute_cores:
            raise ValueError("core count does not match the configuration")

        self.address_map = AddressMap(len(self.mc_coords))
        self.cores: List[SimtCore] = [
            SimtCore(coord, self.config.core, kernel, self._route_request,
                     num_warps=min(kernel.profile.warps_per_core,
                                   self.config.core.max_warps))
            for coord in self.compute_coords
        ]
        self.mcs: List[MemoryController] = [
            MemoryController(coord, self.config.mc, inject=self._inject)
            for coord in self.mc_coords
        ]
        for core in self.cores:
            network.set_ejection_handler(core.coord, core.on_reply)
        for mc in self.mcs:
            network.set_ejection_handler(mc.coord, mc.on_packet)

        clocks = self.config.clocks
        self._core_clock = RateAccumulator(clocks.core_per_icnt)
        self._dram_clock = RateAccumulator(clocks.dram_per_icnt)
        self.icnt_cycle = 0
        self.core_cycle = 0
        self.dram_cycle = 0
        #: System-level audit interval (0 = off); per-network invariant
        #: checkers are configured on the design and run inside
        #: ``network.step`` independently of this.
        self._check_interval = 0
        #: Opt-in telemetry hub (``repro.telemetry``), attached via
        #: ``TelemetryHub.attach_chip``; ``None`` skips ``step``'s phase
        #: marks and per-cycle hook.
        self.telemetry = None
        #: Debug escape hatch mirroring the network's: run the reference
        #: exhaustive component loops instead of the wake-gated ones.
        self._reference = os.environ.get("REPRO_REFERENCE_STEPPER") == "1"

    # -- plumbing -------------------------------------------------------------

    def _route_request(self, line_addr: int):
        index = self.address_map.mc_index(line_addr)
        return (self.mc_coords[index],
                self.address_map.local_address(line_addr))

    def _inject(self, packet, cycle: int) -> bool:
        return self.network.try_inject(packet, cycle)

    def enable_checks(self, check_interval: int = 64) -> None:
        """Audit system-level request conservation (requests issued ==
        in MSHRs + in NoC + at MCs + replied) every ``check_interval``
        interconnect cycles.  Read-only; results are unchanged."""
        if check_interval < 0:
            raise ValueError("check_interval must be non-negative")
        self._check_interval = check_interval

    def audit(self):
        """Run the system-level conservation audit now; returns the list
        of violations (empty = clean)."""
        return audit_accelerator(self)

    # -- simulation loop --------------------------------------------------------

    def step(self) -> None:
        """One interconnect cycle (master clock), wake-gated.

        Cores are stepped only when their wake time is due (a skipped
        ``SimtCore.step`` is provably a no-op), drained MCs and idle DRAM
        channels take an inline idle tick that performs exactly the
        mutations their full step would.  ``_step_reference`` is the
        exhaustive twin; both must change together and the golden tests
        compare them bit for bit.  Telemetry runs use the same bodies:
        each phase mark costs one ``prof is not None`` test, and the
        system audit and telemetry hook run once after either body.
        """
        telemetry = self.telemetry
        if self._reference:
            self._step_reference()
        else:
            prof = None
            if telemetry is not None:
                prof = telemetry.profiler
                t = prof.clock()
            self.icnt_cycle += 1
            now = self.icnt_cycle
            for _ in range(self._core_clock.advance()):
                self.core_cycle += 1
                cc = self.core_cycle
                for core in self.cores:
                    if core.wake <= cc:
                        core.step(cc)
            if prof is not None:
                t = prof.add_since("cores", t)
            for core in self.cores:
                outbound = core.outbound
                while outbound:
                    # Cores timestamp in core cycles; packet latency is
                    # in interconnect cycles: re-stamp at the interface.
                    outbound[0].created = now
                    if not self.network.try_inject(outbound[0], now):
                        break
                    outbound.popleft()
            self.network.step(now)
            if prof is not None:
                t = prof.add_since("network", t)
            for mc in self.mcs:
                if mc._input or mc._replies or mc._writebacks:
                    mc.icnt_step(now)
                else:
                    # Idle tick: exactly what ``icnt_step`` mutates with
                    # all three queues empty (see the note there).
                    mc.cycles += 1
                    mc._icnt_cycle = now
            for _ in range(self._dram_clock.advance()):
                self.dram_cycle += 1
                mclk = self.dram_cycle
                for mc in self.mcs:
                    dram = mc.dram
                    if dram._queue or dram._in_flight:
                        dram.step(mclk)
                    else:
                        # Idle tick: an empty ``GddrChannel.step``
                        # only advances its clock.
                        dram.now = mclk
            if prof is not None:
                prof.add_since("memory", t)
        now = self.icnt_cycle
        if self._check_interval and now % self._check_interval == 0:
            check_accelerator(self)
        if telemetry is not None:
            prof = telemetry.profiler
            t = prof.clock()
            telemetry.on_cycle(now)
            prof.add_since("telemetry", t)

    def _step_reference(self) -> None:
        """Reference exhaustive body of :meth:`step`: every core, MC and
        DRAM channel is stepped every cycle.  Used as the benchmark
        baseline and bit-identity oracle."""
        telemetry = self.telemetry
        prof = None
        if telemetry is not None:
            prof = telemetry.profiler
            t = prof.clock()
        self.icnt_cycle += 1
        now = self.icnt_cycle
        for _ in range(self._core_clock.advance()):
            self.core_cycle += 1
            cc = self.core_cycle
            for core in self.cores:
                core.step(cc)
        if prof is not None:
            t = prof.add_since("cores", t)
        for core in self.cores:
            outbound = core.outbound
            while outbound:
                outbound[0].created = now
                if not self.network.try_inject(outbound[0], now):
                    break
                outbound.popleft()
        self.network.step(now)
        if prof is not None:
            t = prof.add_since("network", t)
        for mc in self.mcs:
            mc.icnt_step(now)
        for _ in range(self._dram_clock.advance()):
            self.dram_cycle += 1
            mclk = self.dram_cycle
            for mc in self.mcs:
                mc.dram_step(mclk)
        if prof is not None:
            prof.add_since("memory", t)

    def use_reference_stepper(self) -> None:
        """Run the exhaustive reference loops (chip and network).  Only
        legal before traffic, or while the whole system is drained."""
        self._reference = True
        if hasattr(self.network, "use_reference_stepper"):
            self.network.use_reference_stepper()

    def use_batched_stepper(self) -> None:
        """Switch (back) to the default loops: wake-gated chip components
        and the networks' batched core.  Drained-state only."""
        self._reference = False
        if hasattr(self.network, "use_batched_stepper"):
            self.network.use_batched_stepper()

    @property
    def stepper_backend(self) -> str:
        """Name of the active backend (the chip and its networks are
        switched in lockstep by the ``use_*_stepper`` methods; an ideal
        network has no stepper of its own)."""
        if self._reference:
            return "reference"
        return getattr(self.network, "stepper_backend", "batched")

    def use_stepper(self, backend: str):
        """Context manager: run on ``backend`` ("reference" |
        "batched"), restoring the previous backend on exit."""
        return _StepperContext(self, backend)

    def run(self, warmup: int = 1_000, measure: int = 3_000,
            label: Optional[str] = None) -> SimulationResult:
        """Warm up, then measure a steady-state window."""
        for _ in range(warmup):
            self.step()
        before = self._snapshot()
        for _ in range(measure):
            self.step()
        after = self._snapshot()
        return self._result(before, after, label)

    def run_to_completion(self, max_cycles: int = 2_000_000,
                          label: Optional[str] = None) -> SimulationResult:
        """Run a finite kernel until every warp, queue and channel drains."""
        before = self._snapshot()
        start = self.icnt_cycle
        while not self.finished:
            if self.icnt_cycle - start > max_cycles:
                raise RuntimeError(
                    "simulation did not finish; did you use an infinite "
                    "kernel?\n" + format_system_state(self.network))
            self.step()
        return self._result(before, self._snapshot(), label)

    @property
    def finished(self) -> bool:
        if not all(core.finished for core in self.cores):
            return False
        if not all(mc.idle for mc in self.mcs):
            return False
        return getattr(self.network, "idle", True)

    # -- metrics ------------------------------------------------------------------

    def _network_list(self):
        return getattr(self.network, "networks", [self.network])

    def _bytes_flits(self, node_filter=None):
        """(bytes ejected, flits injected at filtered nodes, bytes injected
        at filtered nodes) across physical networks."""
        total_bytes = 0.0
        inj_flits = 0.0
        inj_bytes = 0.0
        for net in self._network_list():
            width = getattr(net, "params", None)
            width = width.channel_width if width is not None else (
                getattr(net, "channel_width", 16))
            total_bytes += net.stats.flits_ejected * width
            if node_filter:
                for node in node_filter:
                    flits = net.stats.node_injected_flits.get(node, 0)
                    inj_flits += flits
                    inj_bytes += flits * width
        return total_bytes, inj_flits, inj_bytes

    def _snapshot(self) -> _Snapshot:
        bytes_ejected, mc_flits, mc_bytes = self._bytes_flits(self.mc_coords)
        nets = self._network_list()
        net_lat = packet_lat = packets = 0
        for net in nets:
            for cs in net.stats.per_class.values():
                net_lat += cs.network_latency_sum
                packet_lat += cs.latency_sum
                packets += cs.packets
        latency_hist = merge_histograms(
            cs.latency_hist for net in nets
            for cs in net.stats.per_class.values())
        return _Snapshot(
            core_cycles=self.core_cycle,
            retired=sum(core.retired_scalar for core in self.cores),
            icnt_cycles=self.icnt_cycle,
            bytes_ejected=bytes_ejected,
            mc_inj_flits=mc_flits,
            mc_inj_bytes=mc_bytes,
            mc_blocked=sum(mc.blocked_cycles for mc in self.mcs),
            mc_cycles=sum(mc.cycles for mc in self.mcs),
            net_latency_sum=net_lat,
            packet_latency_sum=packet_lat,
            packets=packets,
            dram_busy=sum(mc.dram.data_busy_cycles for mc in self.mcs),
            dram_pending=sum(mc.dram.pending_cycles for mc in self.mcs),
            dram_row_hits=sum(mc.dram.row_hits for mc in self.mcs),
            dram_row_total=sum(mc.dram.row_hits + mc.dram.row_misses
                               for mc in self.mcs),
            l1_hits=sum(core.l1.hits for core in self.cores),
            l1_accesses=sum(core.l1.accesses for core in self.cores),
            l2_hits=sum(mc.l2.hits for mc in self.mcs),
            l2_accesses=sum(mc.l2.accesses for mc in self.mcs),
            crossbar_traversals=sum(net.stats.crossbar_traversals
                                    for net in nets),
            buffer_reads=sum(net.stats.buffer_reads for net in nets),
            buffer_writes=sum(net.stats.buffer_writes for net in nets),
            link_flit_hops=sum(net.stats.link_flit_hops for net in nets),
            flits_injected=sum(net.stats.flits_injected for net in nets),
            flits_ejected=sum(net.stats.flits_ejected for net in nets),
            latency_hist=latency_hist,
        )

    def _result(self, before: _Snapshot, after: _Snapshot,
                label: Optional[str]) -> SimulationResult:
        d_core = after.core_cycles - before.core_cycles
        d_icnt = after.icnt_cycles - before.icnt_cycles
        d_retired = after.retired - before.retired
        d_packets = after.packets - before.packets
        num_nodes = len(self.mc_coords) + len(self.compute_coords)
        d_mc_cycles = after.mc_cycles - before.mc_cycles

        def rate(num, den):
            return num / den if den else 0.0

        window_hist = after.latency_hist.delta(before.latency_hist)
        tail = window_hist.summary()
        return SimulationResult(
            benchmark=self.kernel.profile.abbr,
            network=label if label is not None else getattr(
                getattr(self.network, "design", None), "name",
                type(self.network).__name__),
            icnt_cycles=d_icnt,
            core_cycles=d_core,
            retired_scalar=d_retired,
            ipc=rate(d_retired, d_core),
            accepted_bytes_per_cycle_per_node=rate(
                after.bytes_ejected - before.bytes_ejected,
                d_icnt * num_nodes),
            mc_injection_rate_flits=rate(
                after.mc_inj_flits - before.mc_inj_flits,
                d_icnt * len(self.mc_coords)),
            mc_injection_rate_bytes=rate(
                after.mc_inj_bytes - before.mc_inj_bytes,
                d_icnt * len(self.mc_coords)),
            mc_stall_fraction=rate(after.mc_blocked - before.mc_blocked,
                                   d_mc_cycles),
            mean_network_latency=rate(
                after.net_latency_sum - before.net_latency_sum, d_packets),
            mean_packet_latency=rate(
                after.packet_latency_sum - before.packet_latency_sum,
                d_packets),
            dram_efficiency=rate(after.dram_busy - before.dram_busy,
                                 after.dram_pending - before.dram_pending),
            dram_row_hit_rate=rate(
                after.dram_row_hits - before.dram_row_hits,
                after.dram_row_total - before.dram_row_total),
            l1_hit_rate=rate(after.l1_hits - before.l1_hits,
                             after.l1_accesses - before.l1_accesses),
            l2_hit_rate=rate(after.l2_hits - before.l2_hits,
                             after.l2_accesses - before.l2_accesses),
            latency_min=tail["min"],
            latency_max=tail["max"],
            latency_p50=tail["p50"],
            latency_p95=tail["p95"],
            latency_p99=tail["p99"],
            crossbar_traversals=(after.crossbar_traversals
                                 - before.crossbar_traversals),
            buffer_reads=after.buffer_reads - before.buffer_reads,
            buffer_writes=after.buffer_writes - before.buffer_writes,
            link_flit_hops=after.link_flit_hops - before.link_flit_hops,
            flits_injected=after.flits_injected - before.flits_injected,
            flits_ejected=after.flits_ejected - before.flits_ejected,
        )


# -----------------------------------------------------------------------------
# Chip factories
# -----------------------------------------------------------------------------

def build_chip(profile: BenchmarkProfile,
               design: Optional[NetworkDesign] = None,
               network=None,
               config: Optional[ChipConfig] = None,
               seed: int = 11,
               instructions_per_warp: Optional[int] = None) -> Accelerator:
    """Assemble a full chip around a mesh design or an ideal network.

    Exactly one of ``design`` / ``network`` must be given.  Ideal networks
    have no placement, so the baseline top-bottom MC coordinates are used
    for node identity.
    """
    if (design is None) == (network is None):
        raise ValueError("give exactly one of design= or network=")
    config = config if config is not None else paper_config()
    kernel = SyntheticKernel(profile, seed=seed,
                             instructions_per_warp=instructions_per_warp)
    if design is not None:
        system = build(design, Mesh(config.mesh_cols, config.mesh_rows),
                       num_mcs=config.num_memory_channels, seed=seed)
        accel = Accelerator(system, system.mc_nodes, system.compute_nodes,
                            kernel, config)
        if design.check_interval:
            # The per-network checkers are already armed by build(); add
            # the system-level request-conservation audit at the same
            # cadence.
            accel.enable_checks(design.check_interval)
        return accel
    mesh = Mesh(config.mesh_cols, config.mesh_rows)
    mcs = top_bottom_placement(mesh, config.num_memory_channels)
    return Accelerator(network, mcs, compute_nodes(mesh, mcs), kernel,
                       config)


def perfect_chip(profile: BenchmarkProfile,
                 config: Optional[ChipConfig] = None,
                 seed: int = 11) -> Accelerator:
    """Closed loop with the zero-latency infinite-bandwidth NoC (Figure 7)."""
    return build_chip(profile, network=PerfectNetwork(), config=config,
                      seed=seed)


def bandwidth_capped_chip(profile: BenchmarkProfile, flits_per_cycle: float,
                          config: Optional[ChipConfig] = None,
                          seed: int = 11) -> Accelerator:
    """Closed loop with the zero-latency bandwidth-capped NoC (Figure 6)."""
    return build_chip(profile,
                      network=BandwidthLimitedNetwork(flits_per_cycle),
                      config=config, seed=seed)
