"""Telemetry hub: configuration, wiring and artifact output.

:class:`TelemetrySpec` is the frozen, picklable description of what to
collect (carried by CLI flags and :class:`repro.parallel.SimTask`);
:class:`TelemetryHub` is the live object that attaches the tracer /
sampler / profiler to a network system or a closed-loop chip and writes
the artifact files:

* ``trace.jsonl``   — one row per retained packet trace,
* ``samples.jsonl`` — one row per time-series sample,
* ``samples.csv``   — scalar columns of the same rows,
* ``heatmaps.txt``  — rendered link/node heatmaps,
* ``summary.json``  — aggregates (latency decomposition, per-route stats,
  host profile, node rates, link utilization) consumed by ``repro report``.

The zero-perturbation contract: every hook is read-only, the simulation's
RNG streams are untouched, and with no hub attached each event site costs
one attribute test — golden tests pin bit-identical results either way.
The drivers run their one default cycle body with or without a hub; it
only adds the profiler's phase marks and a call to :meth:`on_cycle`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .export import (SAMPLES_SCHEMA, SUMMARY_SCHEMA, TRACE_SCHEMA,
                     coord_key, link_key, write_csv, write_jsonl)
from .heatmap import render_link_heatmap, render_node_heatmap
from .profiler import HostProfiler
from .sampler import TimeSeriesSampler
from .trace import PacketTracer


@dataclass(frozen=True)
class TelemetrySpec:
    """What to collect.  Frozen and picklable so it can ride on a
    :class:`repro.parallel.SimTask` into worker processes; excluded from
    cache keys because telemetry never changes results."""

    trace: bool = False
    sample_interval: int = 0
    out_dir: Optional[str] = None
    max_traces: int = 100_000

    @property
    def enabled(self) -> bool:
        return self.trace or self.sample_interval > 0 \
            or self.out_dir is not None


class TelemetryHub:
    """Owns the tracer, sampler and profiler for one simulation."""

    def __init__(self, spec: TelemetrySpec) -> None:
        self.spec = spec
        self.tracer: Optional[PacketTracer] = (
            PacketTracer(spec.max_traces) if spec.trace else None)
        self.sampler: Optional[TimeSeriesSampler] = (
            TimeSeriesSampler(spec.sample_interval)
            if spec.sample_interval > 0 else None)
        self.profiler = HostProfiler()
        self._networks: List[object] = []
        self._chip = None

    # -- wiring --------------------------------------------------------------

    def attach_network(self, network) -> None:
        """Attach to a :class:`MeshNetwork` or a sliced
        :class:`NetworkSystem` (every physical slice is instrumented)."""
        for net in getattr(network, "networks", [network]):
            if not hasattr(net, "routers"):
                continue                    # ideal networks: nothing to hook
            self._networks.append(net)
            if self.tracer is not None:
                net.enable_tracer(self.tracer)
            if self.sampler is not None:
                self.sampler.attach_network(net)

    def attach_chip(self, chip) -> None:
        """Attach to a closed-loop accelerator: hooks its network(s), the
        memory-system sampler columns, and the per-cycle telemetry call."""
        self.attach_network(chip.network)
        self._chip = chip
        if self.sampler is not None:
            self.sampler.attach_chip(chip)
        chip.telemetry = self

    # -- per-cycle hook (called after each driver cycle) ----------------------

    def on_cycle(self, cycle: int) -> None:
        self.profiler.cycles += 1
        sampler = self.sampler
        if sampler is not None and cycle % sampler.interval == 0:
            sampler.sample(cycle)

    # -- reporting -----------------------------------------------------------

    def _network_summaries(self) -> List[dict]:
        summaries = []
        for net in self._networks:
            cycles = net.stats.cycles
            node_injection = {
                coord_key(coord): flits / cycles
                for coord, flits in sorted(
                    net.stats.node_injected_flits.items())
            } if cycles else {}
            node_ejection = {
                coord_key(coord): flits / cycles
                for coord, flits in sorted(
                    net.stats.node_ejected_flits.items())
            } if cycles else {}
            summaries.append({
                "name": net.name,
                "cycles": cycles,
                "mesh": [net.mesh.cols, net.mesh.rows],
                # The always-on power-model counters (DESIGN.md §17), so
                # `repro report` can show activity — and a PowerReport is
                # derivable from any archived summary.json.
                "activity": {
                    "crossbar_traversals": net.stats.crossbar_traversals,
                    "buffer_reads": net.stats.buffer_reads,
                    "buffer_writes": net.stats.buffer_writes,
                    "link_flit_hops": net.stats.link_flit_hops,
                    "flits_injected": net.stats.flits_injected,
                    "flits_ejected": net.stats.flits_ejected,
                },
                "latency": net.stats.latency_summary(),
                "network_latency":
                    net.stats.latency_summary(network_only=True),
                "node_injection_rate": node_injection,
                "node_ejection_rate": node_ejection,
                "link_utilization": {
                    link_key(src, dst): util
                    for (src, dst), util in sorted(
                        net.channel_utilization().items())
                },
            })
        return summaries

    def summary(self) -> dict:
        """The ``summary.json`` payload."""
        data = {
            "schema": SUMMARY_SCHEMA,
            "host": self.profiler.summary(),
            "networks": self._network_summaries(),
        }
        if self.tracer is not None:
            data["trace"] = self.tracer.summary()
        if self.sampler is not None:
            data["samples"] = {
                "interval": self.sampler.interval,
                "rows": len(self.sampler.rows),
            }
        return data

    def heatmaps(self) -> str:
        """Render link-utilization and node injection/ejection heatmaps
        for every attached physical network."""
        blocks = []
        for summary in self._network_summaries():
            blocks.append(render_summary_heatmaps(summary))
        return "\n\n".join(blocks)

    # -- artifacts -----------------------------------------------------------

    def write_artifacts(self, out_dir: Union[str, Path, None] = None
                        ) -> Dict[str, Path]:
        """Write all artifact files into ``out_dir`` (default: the spec's
        ``out_dir``); returns {artifact name: path}."""
        target = out_dir if out_dir is not None else self.spec.out_dir
        if target is None:
            raise ValueError("no telemetry output directory configured")
        root = Path(target)
        root.mkdir(parents=True, exist_ok=True)
        written: Dict[str, Path] = {}

        if self.tracer is not None:
            path = root / "trace.jsonl"
            write_jsonl(path, {"schema": TRACE_SCHEMA,
                               "retained": len(self.tracer.completed),
                               "dropped": self.tracer.dropped_traces},
                        (trace.to_json()
                         for trace in self.tracer.completed))
            written["trace"] = path

        if self.sampler is not None:
            rows = self.sampler.rows
            path = root / "samples.jsonl"
            write_jsonl(path, {"schema": SAMPLES_SCHEMA,
                               "interval": self.sampler.interval,
                               "rows": len(rows)}, rows)
            written["samples"] = path
            csv_path = root / "samples.csv"
            write_csv(csv_path, rows)
            written["samples_csv"] = csv_path

        heat_path = root / "heatmaps.txt"
        heat_path.write_text(self.heatmaps() + "\n", encoding="utf-8")
        written["heatmaps"] = heat_path

        summary_path = root / "summary.json"
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written["summary"] = summary_path
        return written


def render_summary_heatmaps(network_summary: dict) -> str:
    """Render the heatmap block for one network's summary dict (shared by
    the live hub and the offline ``repro report`` command)."""
    from .export import parse_coord, parse_link
    cols, rows = network_summary["mesh"]
    name = network_summary["name"]
    link_util = {parse_link(key): value
                 for key, value in network_summary["link_utilization"]
                 .items()}
    injection = {parse_coord(key): value
                 for key, value in network_summary["node_injection_rate"]
                 .items()}
    ejection = {parse_coord(key): value
                for key, value in network_summary["node_ejection_rate"]
                .items()}
    return "\n\n".join([
        render_link_heatmap(cols, rows, link_util,
                            f"link utilization [{name}] (flits/cycle)"),
        render_node_heatmap(cols, rows, injection,
                            f"node injection rate [{name}] (flits/cycle)"),
        render_node_heatmap(cols, rows, ejection,
                            f"node ejection rate [{name}] (flits/cycle)"),
    ])
