"""Chunk clock: a timestamp every ``every``-th simulated cycle.

Host speed on a shared machine switches between fast and slow spells
within seconds, so a task of a second or more seldom runs wholly inside
a fast one, and its fastest repetition still depends on the spell.  A
serial call is deterministic: the stretch between two chunk marks holds
the same work in every repetition.  Taking each chunk at its fastest
repetition (:func:`perfbench.metrics.fastest_sum`) therefore tiles the
call finely enough that the estimate stops depending on where the
spells fell.

The clock counts calls of one per-cycle method, wrapped at class level
while installed; the wrapper adds one counter update per cycle and one
clock read per chunk.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List


class ChunkClock:
    """Marks every ``every``-th call of ``owner.attr``.  ``clock``
    returns integer nanoseconds."""

    def __init__(self, owner: type, attr: str, every: int,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.owner = owner
        self.attr = attr
        self.every = every
        self.clock = clock
        self.marks: List[int] = []
        self._calls = [0]
        self._raw = None

    def install(self) -> None:
        raw = self._raw = inspect.getattr_static(self.owner, self.attr)
        marks, calls, every, clock = (self.marks, self._calls, self.every,
                                      self.clock)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            n = calls[0]
            if n % every == 0:
                marks.append(clock())
            calls[0] = n + 1
            return raw(*args, **kwargs)

        setattr(self.owner, self.attr, wrapper)

    def uninstall(self) -> None:
        if self._raw is not None:
            setattr(self.owner, self.attr, self._raw)
            self._raw = None

    @property
    def calls(self) -> int:
        """Calls counted since the last :meth:`restart`."""
        return self._calls[0]

    def restart(self) -> None:
        """Forget the marks and start counting from zero."""
        del self.marks[:]
        self._calls[0] = 0

    def segments(self) -> Dict[str, float]:
        """Seconds between consecutive marks, keyed by chunk index."""
        return chunk_segments(self.marks)


def chunk_segments(marks: List[int]) -> Dict[str, float]:
    """``{"chunk<k>": seconds from mark k to mark k + 1}``."""
    return {f"chunk{k}": (marks[k + 1] - marks[k]) / 1e9
            for k in range(len(marks) - 1)}
