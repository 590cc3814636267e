"""The chunk clock behind the end-to-end estimators: marks, install and
uninstall, and the premise that repeated serial calls split alike."""

import pytest

from perfbench import metrics
from perfbench.chunks import ChunkClock, chunk_segments
from perfbench.workloads import OpenLoop
from repro.noc.network import MeshNetwork


class Stepper:
    def step(self, value):
        return value + 1


def test_marks_every_nth_call_and_restores_the_method():
    ticks = iter(range(0, 10**9, 1000))
    clock = ChunkClock(Stepper, "step", every=3, clock=lambda: next(ticks))
    original = Stepper.step
    clock.install()
    try:
        stepper = Stepper()
        assert [stepper.step(i) for i in range(7)] == list(range(1, 8))
        assert clock.calls == 7
        assert clock.marks == [0, 1000, 2000]       # calls 0, 3 and 6
        assert clock.segments() == {"chunk0": 1e-6, "chunk1": 1e-6}
        clock.restart()
        assert clock.calls == 0 and clock.marks == []
    finally:
        clock.uninstall()
    assert Stepper.step is original


def test_chunk_segments():
    assert chunk_segments([]) == {}
    assert chunk_segments([5]) == {}
    assert chunk_segments([0, 2_000_000_000, 2_500_000_000]) == {
        "chunk0": 2.0, "chunk1": 0.5}


def test_fastest_chunks_and_smallest_leftover():
    a = chunk_segments([0, 4, 10])          # chunks 4 ns, 6 ns
    b = chunk_segments([0, 5, 8])           # chunks 5 ns, 3 ns
    assert metrics.fastest_sum([a, b]) == pytest.approx(7e-9)
    # Leftovers 12 - 10 and 9 - 8 ns: the smaller one is added.
    assert metrics.best_wall([12e-9, 9e-9], [a, b]) == pytest.approx(8e-9)


def test_repeated_serial_calls_split_alike(tmp_path):
    wl = OpenLoop(seed=3, warmup=20, measure=40)
    clock = ChunkClock(MeshNetwork, "step", every=7)
    clock.install()
    try:
        splits = []
        for _ in range(2):
            clock.restart()
            cold = wl.cold(tmp_path)
            splits.append((clock.calls, sorted(clock.segments())))
    finally:
        clock.uninstall()
    assert splits[0] == splits[1]
    # One step per simulated cycle and network; TB-DOR has one network.
    networks = {"TB-DOR": 1, "Throughput-Effective": 2}
    assert splits[0][0] == sum(
        networks[t.design.name] * (t.warmup + t.measure) for t in wl.tasks())
    assert cold.sim_cycles == 6 * 60
