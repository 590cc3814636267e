"""Span self-time accounting: exact telescoping, install/uninstall,
tallies, and totals flushed from forked pool workers."""

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from perfbench import spans
from perfbench.spans import CALLS, SELF_NS, TALLY, TOTAL_NS, SpanTracer, Target


class FakeClock:
    """Advances by the next scripted step on every read."""

    def __init__(self, steps):
        self.now = 0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


class Machine:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        return 1

    def boom(self):
        raise ValueError("boom")

    @classmethod
    def make(cls):
        return cls()


def test_nested_self_time_is_exact():
    # Clock reads: outer start, (inner start, inner end) x 2, outer end.
    clock = FakeClock([10, 3, 7, 2, 5, 4])
    tracer = SpanTracer(clock=clock)
    tracer.install([Target(Machine, "outer", "outer"),
                    Target(Machine, "inner", "inner")])
    try:
        assert Machine().outer(2) == 2
    finally:
        tracer.uninstall()
    rec = tracer.records
    assert rec["inner"][CALLS] == 2
    assert rec["inner"][TOTAL_NS] == 7 + 5
    assert rec["inner"][SELF_NS] == 7 + 5
    assert rec["outer"][TOTAL_NS] == 3 + 7 + 2 + 5 + 4
    assert rec["outer"][SELF_NS] == 3 + 2 + 4


def test_random_nesting_telescopes():
    """total(parent) == self(parent) + total(children) for any clock."""
    rng = random.Random(5)
    tracer = SpanTracer(clock=FakeClock(rng.randrange(1, 1000)
                                        for _ in range(10_000)))

    def node(depth):
        if depth < 3:
            for _ in range(rng.randrange(3)):
                children[depth + 1]()

    children = {d: tracer.wrap(lambda d=d: node(d), f"d{d}")
                for d in range(4)}
    for _ in range(50):
        children[0]()
    rec = tracer.records
    for d in range(3):
        assert rec[f"d{d}"][TOTAL_NS] == \
            rec[f"d{d}"][SELF_NS] + rec[f"d{d + 1}"][TOTAL_NS]
    assert rec["d3"][TOTAL_NS] == rec["d3"][SELF_NS]
    assert tracer._stack == []


def test_exception_still_closes_the_span():
    tracer = SpanTracer(clock=FakeClock([1, 2, 4, 8]))
    tracer.install([Target(Machine, "boom", "boom")])
    try:
        with pytest.raises(ValueError):
            Machine().boom()
        with pytest.raises(ValueError):
            Machine().boom()
    finally:
        tracer.uninstall()
    assert tracer.records["boom"][CALLS] == 2
    assert tracer.records["boom"][TOTAL_NS] == 2 + 8
    assert tracer._stack == []


def test_uninstall_restores_plain_classmethod_and_inherited():
    class Child(Machine):
        pass

    originals = (Machine.__dict__["inner"], Machine.__dict__["make"])
    tracer = SpanTracer()
    tracer.install([Target(Machine, "inner", "inner"),
                    Target(Machine, "make", "make"),
                    Target(Child, "outer", "outer")])
    assert isinstance(Child.make(), Child)       # still a classmethod
    assert Child().outer(3) == 3
    tracer.uninstall()
    assert (Machine.__dict__["inner"], Machine.__dict__["make"]) == \
        originals
    assert "outer" not in Child.__dict__
    assert tracer.records["make"][CALLS] == 1
    assert tracer.records["inner"][CALLS] == 3


def test_tally_and_counters():
    tracer = SpanTracer()
    tracer.install([
        Target(Machine, "outer", "outer", tally=lambda result, args: result,
               counters=lambda result, args: {"seen": 2 * result})])
    try:
        Machine().outer(3)
        Machine().outer(4)
    finally:
        tracer.uninstall()
    assert tracer.records["outer"][TALLY] == 7
    assert tracer.records["seen"][TALLY] == 14
    assert tracer.records["seen"][CALLS] == 0


def test_reset_keeps_wrappers_recording():
    tracer = SpanTracer()
    tracer.install([Target(Machine, "inner", "inner")])
    try:
        Machine().inner()
        tracer.reset()
        Machine().inner()
    finally:
        tracer.uninstall()
    assert tracer.records["inner"][CALLS] == 1


def _work(n):
    return Machine().outer(n)


def test_forked_workers_flush_their_own_totals(tmp_path):
    tracer = SpanTracer(flush_on=["outer"], flush_dir=tmp_path)
    tracer.install([Target(Machine, "outer", "outer"),
                    Target(Machine, "inner", "inner")])
    try:
        Machine().outer(1)                       # parent-only activity
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            assert list(pool.map(_work, [2, 3, 4])) == [2, 3, 4]
    finally:
        tracer.uninstall()
    workers = spans.merge_dir(tmp_path)
    assert workers["outer"][CALLS] == 3
    assert workers["inner"][CALLS] == 9
    assert tracer.records["outer"][CALLS] == 1   # parent unaffected
    merged = spans.merge(tracer.snapshot(), workers)
    assert merged["inner"][CALLS] == 10
