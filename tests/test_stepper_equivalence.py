"""Determinism contract of the cycle cores.

The repo carries two interchangeable ways to step a network: the
batched core (the construction default, DESIGN.md §14) and the
reference exhaustive scan it must match (``use_reference_stepper`` /
``REPRO_REFERENCE_STEPPER``).  They must be bit-identical — not
statistically close — on every design the builder can produce, or a
result could silently depend on which backend happened to run it.

This module pins that contract:

* a golden matrix over the design space (baseline DOR, checkerboard
  routing, channel-sliced double network) at low and saturated load,
  four ways — reference, default, default with the invariant checker,
  default with the packet tracer — asserting equal result payloads,
  equal ``NetworkStats`` snapshots and equal final network state dumps;
* closed-loop runs of the chip on both backends;
* a randomized fuzz sweep (seeds, mesh shapes, injection rates, VC/buffer
  configurations) comparing the default core against reference;
* the selection plumbing itself — the construction default, env-var
  override and the nesting / restore behaviour of the ``use_stepper``
  context helper — plus the ``audit_event_scheduling`` screen audit
  mid-stream under the default core.
"""

import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.builder import (build, checked_variant, design_by_name,
                                open_loop_variant)
from repro.noc.invariants import audit_event_scheduling, format_system_state
from repro.noc.openloop import OpenLoopRunner
from repro.noc.stats import merge_stats
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew
from repro.system.accelerator import build_chip, perfect_chip
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.profiles import profile

#: Baseline, checkerboard routing, channel-sliced double network.
DESIGNS = ("TB-DOR", "CP-CR-4VC", "Double-CP-CR")
#: Well below and well past saturation of the 6x6 baseline mesh.
RATES = (0.02, 0.30)

WARMUP, MEASURE = 100, 200
SEED = 11


def _select(system, backend):
    if backend == "reference":
        system.use_reference_stepper()
    else:
        assert backend == "batched"
        system.use_batched_stepper()


def _normalized_state(system):
    """``format_system_state`` with packet ids renumbered by first
    appearance: pids come from a process-global counter, so two otherwise
    identical runs print different absolute ids."""
    seen = {}

    def rename(match):
        pid = match.group(1)
        return f"p{seen.setdefault(pid, len(seen))}"

    return re.sub(r"\bp(\d+)\b", rename, format_system_state(system))


def _stats_snapshot(system):
    """Every observable ``NetworkStats`` counter, derived rate and
    histogram tail, per network slice — the "bit-identical stats" half of
    the contract (the state dump covers buffers/credits/pointers)."""
    snapshot = []
    for net in getattr(system, "networks", [system]):
        s = net.stats
        snapshot.append({
            "name": net.name,
            "cycles": s.cycles,
            "offered": (s.packets_offered, s.flits_offered),
            "injected": (s.packets_injected, s.flits_injected),
            "ejected": (s.packets_ejected, s.flits_ejected),
            # the power model's always-on activity counters are part of
            # the bit-identity contract: every stepper must count every
            # crossbar grant, buffer access and link delivery identically
            "activity": (s.crossbar_traversals, s.buffer_reads,
                         s.buffer_writes, s.link_flit_hops),
            "accepted_rate": s.accepted_flit_rate(),
            "per_class": {
                tclass.name: (cs.packets, cs.flits, cs.latency_sum,
                              cs.network_latency_sum,
                              cs.latency_hist.summary(),
                              cs.network_latency_hist.summary())
                for tclass, cs in s.per_class.items()
            },
            "node_injected": sorted(s.node_injected_flits.items()),
            "node_ejected": sorted(s.node_ejected_flits.items()),
        })
    return snapshot


def _open_cell(design_name, rate, backend, *, checked=False, traced=False):
    design = open_loop_variant(design_by_name(design_name))
    if checked:
        design = checked_variant(design, check_interval=32,
                                 watchdog_cycles=20_000)
    system = build(design, Mesh(6, 6), num_mcs=8, seed=SEED)
    _select(system, backend)
    hub = None
    if traced:
        hub = TelemetryHub(TelemetrySpec(trace=True))
        hub.attach_network(system)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=SEED)
    point = runner.run(warmup=WARMUP, measure=MEASURE)
    cell = {
        "payload": point.to_json(),
        "stats": _stats_snapshot(system),
        "state": _normalized_state(system),
        "hist": runner._lat_hist.summary(),
    }
    return cell, hub


@pytest.mark.parametrize("design_name", DESIGNS)
@pytest.mark.parametrize("rate", RATES)
def test_four_way_golden_matrix(design_name, rate):
    """reference == default == default+checker == default+tracer on
    result payload, stats snapshot and final state: the batched core
    matches the oracle, and read-only instrumentation perturbs nothing."""
    oracle, _ = _open_cell(design_name, rate, "reference")
    cell, _ = _open_cell(design_name, rate, "batched")
    assert cell == oracle, "batched core diverged from reference"
    checked, _ = _open_cell(design_name, rate, "batched", checked=True)
    assert checked == oracle, "invariant checker perturbed the batched core"
    traced, hub = _open_cell(design_name, rate, "batched", traced=True)
    assert traced == oracle, "packet tracer perturbed the batched core"
    assert hub.tracer.completed, "tracer saw no packets"


@pytest.mark.parametrize("design_name", ("TB-DOR", "Double-CP-CR"))
def test_closed_loop_three_way(design_name):
    """reference == default == default with system audits, on a finite
    BIN kernel whose drained tail exercises the idle fast paths."""

    def run(backend, checked=False):
        design = design_by_name(design_name)
        if checked:
            design = checked_variant(design, check_interval=32,
                                     watchdog_cycles=20_000)
        chip = build_chip(profile("BIN"), design=design, seed=SEED,
                          instructions_per_warp=8)
        _select(chip, backend)
        if checked:
            chip.enable_checks(64)
        result = chip.run(warmup=100, measure=900).to_json()
        return result, _stats_snapshot(chip.network)

    oracle = run("reference")
    assert run("batched") == oracle
    assert run("batched", checked=True) == oracle


# -- randomized fuzz sweep -------------------------------------------------

def _fuzz_cases(n):
    """Deterministic pseudo-random (design, mesh, rate, seed) cases.

    The generator seed is fixed so failures reproduce; the cases span
    mesh shapes (square and non-square), loads from idle to deep
    saturation, VC counts, buffer depths and source-queue capacities
    across all three design families.
    """
    master = random.Random(0xB47C4ED)
    for _ in range(n):
        name = master.choice(DESIGNS)
        design = open_loop_variant(design_by_name(name))
        if design.routing == "dor":
            # Extra VC / shallow-buffer variation is only free of design
            # constraints on the plain-DOR baseline.
            # (source queues stay unbounded — the open-loop harness
            # requires reply injection to always succeed.)
            design = dataclasses.replace(
                design,
                vcs_per_class=master.choice((1, 2)),
                vc_buffer_depth=master.choice((4, 8)),
            )
        yield (design,
               Mesh(master.choice((4, 5, 6)), master.choice((4, 5, 6))),
               master.choice((4, 8)),
               master.choice((0.02, 0.05, 0.1, 0.2, 0.35)),
               master.randrange(1 << 30))


def _fuzz_run(design, mesh, num_mcs, rate, seed, backend):
    system = build(design, mesh, num_mcs=num_mcs, seed=seed)
    _select(system, backend)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=seed)
    point = runner.run(warmup=40, measure=100)
    return {
        "payload": point.to_json(),
        "stats": _stats_snapshot(system),
        "state": _normalized_state(system),
    }


def test_fuzz_batched_matches_reference():
    """~50 randomized configurations: batched == reference, bit for bit,
    including the final in-flight network state."""
    for case, (design, mesh, num_mcs, rate, seed) in \
            enumerate(_fuzz_cases(48)):
        ref = _fuzz_run(design, mesh, num_mcs, rate, seed, "reference")
        bat = _fuzz_run(design, mesh, num_mcs, rate, seed, "batched")
        assert bat == ref, (
            f"fuzz case {case} diverged: {design.name} mesh="
            f"{mesh.cols}x{mesh.rows} mcs={num_mcs} rate={rate} "
            f"seed={seed}")


# -- selection plumbing ----------------------------------------------------

def test_batched_is_default_backend(monkeypatch):
    """Networks build on the batched core; ``REPRO_REFERENCE_STEPPER=1``
    selects the reference scan at construction time instead."""
    monkeypatch.delenv("REPRO_REFERENCE_STEPPER", raising=False)
    system = build(open_loop_variant(design_by_name("TB-DOR")),
                   Mesh(4, 4), num_mcs=4, seed=SEED)
    assert system.stepper_backend == "batched"
    for net in system.networks:
        assert net._batched is not None and not net._scan_stepper

    monkeypatch.setenv("REPRO_REFERENCE_STEPPER", "1")
    system = build(open_loop_variant(design_by_name("TB-DOR")),
                   Mesh(4, 4), num_mcs=4, seed=SEED)
    assert system.stepper_backend == "reference"
    for net in system.networks:
        assert net._batched is None and net._scan_stepper


def test_batched_is_default_on_chip(monkeypatch):
    """The chip and its networks build on the default backend."""
    monkeypatch.delenv("REPRO_REFERENCE_STEPPER", raising=False)
    chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"),
                      seed=SEED, instructions_per_warp=8)
    assert chip.stepper_backend == "batched"
    assert chip.network.stepper_backend == "batched"


def test_use_stepper_nesting(monkeypatch):
    """The context helper switches and restores, and nests — the inner
    context restores the *outer* backend, not the construction default."""
    monkeypatch.delenv("REPRO_REFERENCE_STEPPER", raising=False)
    system = build(open_loop_variant(design_by_name("TB-DOR")),
                   Mesh(4, 4), num_mcs=4, seed=SEED)
    assert system.stepper_backend == "batched"
    with system.use_stepper("reference") as inside:
        assert inside is system
        assert system.stepper_backend == "reference"
        with system.use_stepper("batched"):
            assert system.stepper_backend == "batched"
        assert system.stepper_backend == "reference"
    assert system.stepper_backend == "batched"
    for backend in ("event", "vectorised"):
        with pytest.raises(ValueError):
            system.use_stepper(backend)

    # An ideal network has no stepper of its own: the chip reports the
    # default and round-trips through the reference chip loop.
    chip = perfect_chip(profile("BIN"), seed=SEED)
    assert chip.stepper_backend == "batched"
    with chip.use_stepper("reference"):
        assert chip.stepper_backend == "reference"
    assert chip.stepper_backend == "batched"
    with pytest.raises(ValueError):
        chip.use_stepper("event")


_NO_NUMPY_SCRIPT = """
import sys
from repro.core.builder import build, design_by_name, open_loop_variant
from repro.noc.openloop import OpenLoopRunner
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew
from repro.system.accelerator import build_chip
from repro.workloads.profiles import profile

system = build(open_loop_variant(design_by_name("Throughput-Effective")),
               Mesh(6, 6), num_mcs=8, seed=11)
assert system.stepper_backend == "batched", system.stepper_backend
runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                        UniformManyToFew(system.mc_nodes), 0.04, seed=11)
assert runner.run(warmup=50, measure=100).packets_measured > 0
chip = build_chip(profile("BIN"), design=design_by_name("TB-DOR"), seed=11)
assert chip.stepper_backend == "batched", chip.stepper_backend
for _ in range(200):
    chip.step()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
print("ok")
"""


def test_default_path_never_imports_numpy():
    """The default open- and closed-loop paths stay numpy-free: a fresh
    interpreter runs one open-loop point and some chip cycles without
    importing it (start-up time and peak RSS depend on that)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_audit_event_scheduling_under_batched():
    """The screen masks and the pending calendar match the authoritative
    object state cell for cell after running hot — audited mid-stream,
    with traffic still in flight."""
    system = build(open_loop_variant(design_by_name("TB-DOR")),
                   Mesh(6, 6), num_mcs=8, seed=SEED)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), 0.30,
                            seed=SEED)
    runner.run(warmup=50, measure=100)
    for net in system.networks:
        assert net._buffered_flits > 0, "audit must catch a busy network"
        assert net._batched.pending, "audit must see a booked calendar"
        assert audit_event_scheduling(net) == []


# -- histogram / merged-stats plumbing on the batched path -----------------

def test_sliced_merge_stats_from_batched_path():
    """``merge_stats`` over the slices of a double network fed by the
    batched core: bit-identical to the reference merge, including the
    streamed latency histograms."""

    def merged(backend):
        system = build(open_loop_variant(design_by_name("Double-CP-CR")),
                       Mesh(6, 6), num_mcs=8, seed=SEED)
        _select(system, backend)
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.30,
                                seed=SEED)
        runner.run(warmup=WARMUP, measure=MEASURE)
        stats = merge_stats([net.stats for net in system.networks])
        return stats, runner._lat_hist

    ref_stats, ref_hist = merged("reference")
    bat_stats, bat_hist = merged("batched")
    assert bat_stats.accepted_flit_rate() == ref_stats.accepted_flit_rate()
    assert bat_stats.flits_ejected == ref_stats.flits_ejected
    assert (bat_stats.latency_summary() == ref_stats.latency_summary())
    assert (bat_stats.latency_summary(network_only=True)
            == ref_stats.latency_summary(network_only=True))
    assert bat_hist.summary() == ref_hist.summary()


def test_merge_stats_per_slice_rates_from_batched_windows():
    """The per-slice rate contract holds for stats windows produced
    by the batched core: merging windows of *different* cycle counts sums
    the per-slice rates instead of dividing by one window's cycles."""

    def window(measure):
        system = build(open_loop_variant(design_by_name("TB-DOR")),
                       Mesh(5, 5), num_mcs=4, seed=SEED)
        system.use_batched_stepper()
        runner = OpenLoopRunner(system, system.compute_nodes,
                                system.mc_nodes,
                                UniformManyToFew(system.mc_nodes), 0.2,
                                seed=SEED)
        runner.run(warmup=40, measure=measure)
        return system.networks[0].stats

    short, long = window(100), window(250)
    assert short.cycles != long.cycles
    merged = merge_stats([short, long])
    assert merged.accepted_flit_rate() == pytest.approx(
        short.accepted_flit_rate() + long.accepted_flit_rate())
    node = next(iter(long.node_injected_flits))
    assert merged.injection_rate(node) == pytest.approx(
        short.injection_rate(node) + long.injection_rate(node))
