"""Golden model fingerprint: a sha256 over the canonical payloads of a
handful of tiny pinned runs.

The reference and default cycle cores share the channel and source
phases, so the reference-vs-default tests in
``tests/test_stepper_equivalence.py`` cannot see a change there.  These
digests can: any change to what the simulator computes — open loop,
closed loop, the perfect NoC, the packet tracer's hop records or the
invariant checker's read-only audits — changes a digest.

A digest may change only in a change that means to change the model's
behaviour, and then the new value is recorded here on purpose.
"""

import hashlib
import json

import pytest

from repro.core.builder import (BASELINE, DOUBLE_BW, THROUGHPUT_EFFECTIVE,
                                build, checked_variant, design_by_name,
                                open_loop_variant)
from repro.noc.openloop import OpenLoopRunner
from repro.noc.topology import Mesh
from repro.noc.traffic import UniformManyToFew
from repro.system.accelerator import build_chip, perfect_chip
from repro.telemetry import TelemetryHub, TelemetrySpec
from repro.workloads.profiles import profile

SEED = 11


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _open_point(design, rate, *, traced=False, warmup=200, measure=800):
    system = build(open_loop_variant(design), Mesh(6, 6), num_mcs=8,
                   seed=SEED)
    hub = None
    if traced:
        hub = TelemetryHub(TelemetrySpec(trace=True))
        hub.attach_network(system)
    runner = OpenLoopRunner(system, system.compute_nodes, system.mc_nodes,
                            UniformManyToFew(system.mc_nodes), rate,
                            seed=SEED)
    point = runner.run(warmup=warmup, measure=measure)
    return point.to_json(), hub


def open_loop_case(name, rate):
    return _open_point(design_by_name(name), rate)[0]


def closed_loop_case(design):
    chip = build_chip(profile("RD"), design=design, seed=SEED,
                      instructions_per_warp=8)
    return chip.run(warmup=200, measure=800).to_json()


def perfect_case():
    chip = perfect_chip(profile("RD"), seed=SEED)
    return chip.run(warmup=200, measure=800).to_json()


def traced_case():
    payload, hub = _open_point(THROUGHPUT_EFFECTIVE, 0.08, traced=True)
    return {"point": payload, "trace": hub.tracer.summary()}


def checked_case():
    design = checked_variant(BASELINE, check_interval=16,
                             watchdog_cycles=5_000)
    return _open_point(design, 0.08)[0]


CASES = {
    "open-TB-DOR-0.01": lambda: open_loop_case("TB-DOR", 0.01),
    "open-TB-DOR-0.08": lambda: open_loop_case("TB-DOR", 0.08),
    "open-TE-0.01": lambda: open_loop_case("Throughput-Effective", 0.01),
    "open-TE-0.08": lambda: open_loop_case("Throughput-Effective", 0.08),
    "closed-RD-baseline": lambda: closed_loop_case(BASELINE),
    "closed-RD-TE": lambda: closed_loop_case(THROUGHPUT_EFFECTIVE),
    "closed-RD-double-bw": lambda: closed_loop_case(DOUBLE_BW),
    "closed-RD-perfect": perfect_case,
    "open-TE-0.08-traced": traced_case,
    "open-TB-DOR-0.08-checked": checked_case,
}

#: Recorded digests; see the module docstring before editing.
GOLDEN = {
    "closed-RD-TE":
        "608d68ca9b0188ec7b2aefc1ecb0c97ae493bdc3fcf485ed83321b1623f6ab87",
    "closed-RD-baseline":
        "dd4e8b7918b765ec5187a55184e66eaed7802fde6466a0b6eab36900d0051371",
    "closed-RD-double-bw":
        "c8ee1b9c48f61ca66500a035bf68a18ee3e61031bb9e58b3b159fb2c914e79f6",
    "closed-RD-perfect":
        "6e35f3777a3bad91d0a6c76dac297ea3da7645421a8b27289f48fd2227a0c0f5",
    "open-TB-DOR-0.01":
        "371c5b293e7c048781faa2c7856a5755047bc2b6993db63a5371f7df9141df64",
    "open-TB-DOR-0.08":
        "4d37049672849e0dfaf5d687fd4ba0cbbb06159d5445814770e35e175b84cfc4",
    "open-TB-DOR-0.08-checked":
        "4d37049672849e0dfaf5d687fd4ba0cbbb06159d5445814770e35e175b84cfc4",
    "open-TE-0.01":
        "10d568ed3c11d806579fd18737364611fa2cb373312480cc4f78f0895eaee71f",
    "open-TE-0.08":
        "622acafbd5694f7227f500ae417f772ed76826583c5b34fec5fb2f43d094a8db",
    "open-TE-0.08-traced":
        "fa75ef0038f941e45db0bd67f02ddf483ecf85c2ebf41457e95026576ffab743",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_fingerprint(case):
    assert _digest(CASES[case]()) == GOLDEN[case]
