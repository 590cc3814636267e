"""Aggregating span tracer with exact self-time accounting.

A span is one call of a wrapped method.  The tracer keeps, per span name,
four integers: calls, total nanoseconds, self nanoseconds (total minus the
time covered by nested spans) and a free "tally" that a target can feed
from the call's arguments or result (flits delivered, packets accepted,
cache hits, ...).  A target can also add to the tallies of other, named
counters (records whose call fields stay zero).  Per-cycle methods run
millions of times per workload, so spans are aggregated in memory
instead of being kept one by one.

Wrappers are installed at class level on public methods of public
classes, before any system is built, and removed afterwards; nothing in
the program is edited.  Nested spans telescope exactly: for every span,
``total == self + sum(total of its direct children)``, in integer
nanoseconds, whatever the clock returns.

Process-pool workers forked while the tracer is installed inherit the
wrappers.  A fork handler clears the child's copy of the parent's
totals, and every span named in ``flush_on`` writes the child's running
totals to ``<flush_dir>/<pid>.marshal`` when it ends, so the parent can
merge worker totals with :func:`merge_dir` after the pool has shut down.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: Indices into a per-name record.
CALLS, TOTAL_NS, SELF_NS, TALLY = range(4)


class Target(NamedTuple):
    """One method to wrap: ``owner.attr`` recorded as span ``name``.

    ``tally(result, args)`` (optional) returns a number added to the
    span's tally after each call that returns normally;
    ``counters(result, args)`` (optional) returns ``{counter: number}``
    added to those counters' tallies.  Keep ``counters`` to methods that
    run once per task, not once per cycle.
    """

    owner: type
    attr: str
    name: str
    tally: Optional[Callable[[Any, tuple], int]] = None
    counters: Optional[Callable[[Any, tuple], Dict[str, int]]] = None


class SpanTracer:
    """In-memory span aggregator.  ``clock`` returns integer nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 flush_on: Iterable[str] = (),
                 flush_dir: Optional[Path] = None) -> None:
        self.clock = clock
        self.records: Dict[str, List[int]] = {}
        #: One child-time accumulator per open span.
        self._stack: List[int] = []
        self._flush_on = frozenset(flush_on)
        self._flush_dir = flush_dir
        #: True in a process forked from the tracer's owner.
        self.in_child = False
        self._installed: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def record(self, name: str) -> List[int]:
        """The record for ``name``, created empty on first use."""
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = [0, 0, 0, 0]
        return rec

    def wrap(self, fn: Callable, name: str,
             tally: Optional[Callable[[Any, tuple], int]] = None,
             counters: Optional[Callable[[Any, tuple], Dict[str, int]]]
             = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``."""
        rec = self.record(name)
        stack = self._stack
        clock = self.clock
        flush = name in self._flush_on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                rec[CALLS] += 1
                rec[TOTAL_NS] += elapsed
                rec[SELF_NS] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if tally is not None:
                rec[TALLY] += tally(result, args)
            if counters is not None:
                for counter, value in counters(result, args).items():
                    self.record(counter)[TALLY] += value
            if flush and self.in_child:
                self.flush()
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target at class level (plain methods and
        classmethods).  Undone by :meth:`uninstall`."""
        for target in targets:
            raw = inspect.getattr_static(target.owner, target.attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(
                    raw.__func__, target.name, target.tally,
                    target.counters))
            else:
                wrapped = self.wrap(raw, target.name, target.tally,
                                    target.counters)
            had_own = target.attr in vars(target.owner)
            self._installed.append((target.owner, target.attr, raw,
                                    had_own))
            setattr(target.owner, target.attr, wrapped)
        if self._flush_on:
            os.register_at_fork(after_in_child=self._enter_child)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, raw, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _enter_child(self) -> None:
        """Fork handler: a worker starts from zero, not from a copy of
        the parent's totals or its open spans."""
        if not self._installed:
            return
        self.in_child = True
        del self._stack[:]
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0]

    def flush(self) -> None:
        """Write this process's running totals for the parent to merge."""
        if self._flush_dir is None:
            return
        path = Path(self._flush_dir) / f"{os.getpid()}.marshal"
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(marshal.dumps(self.records))
        os.replace(tmp, path)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[int]]:
        """A copy of the records (safe to keep after more recording)."""
        return {name: list(rec) for name, rec in self.records.items()}

    def reset(self) -> None:
        """Zero every record (span names stay registered)."""
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0]


def merge(*parts: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Sum several record sets name by name."""
    out: Dict[str, List[int]] = {}
    for part in parts:
        for name, rec in part.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(rec):
                acc[i] += value
    return out


def merge_dir(flush_dir: Path) -> Dict[str, List[int]]:
    """Sum the totals every worker flushed into ``flush_dir``."""
    parts = [marshal.loads(path.read_bytes())
             for path in sorted(Path(flush_dir).glob("*.marshal"))]
    return merge(*parts)
