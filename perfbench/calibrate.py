"""Host speed, from a fixed piece of Python work timed between ops.

This VM shares its host, and the same work runs up to ~1.4x slower for
minutes at a time while a neighbour is busy.  That slowing moves every
timing of a run together, so the benchmark times :func:`kernel` — work
that touches no ``repro`` code and is the same in every run — between
ops, and scales the run's timings by ``REFERENCE_S`` over the kernel's
typical time in that run (see ``run.end_to_end``).  A change to
``repro`` moves the op timings and leaves the kernel alone, so it shows
in full; a slow spell of the host moves both and cancels out.

The kernel does the kinds of work the program's own Python spends its
time on: dict lookups and updates, small objects, string building and
float arithmetic through ``math``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

#: The kernel's typical seconds on the host the benchmark was tuned on,
#: while it was quiet (2-CPU x86-64 VM, Python 3.11): timings are reported
#: at that speed.
REFERENCE_S = 0.0022

_WORDS = tuple(f"v{i % 61}_{i % 7}" for i in range(900))


class _Node:
    __slots__ = ("name", "value", "left")

    def __init__(self, name: str, value: float, left: "_Node | None") -> None:
        self.name = name
        self.value = value
        self.left = left


def kernel() -> float:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    node = None
    for i, word in enumerate(_WORDS):
        node = _Node(word, counts[word] * 0.5 + i, node)
    total = 0.0
    while node is not None:
        x = node.value + 1.0
        total += math.sqrt(x) * math.sin(x) / (1.0 + math.log(x))
        node = node.left
    text = ",".join(sorted(counts))
    pairs = [(w, len(w)) for w in text.split(",")]
    for _ in range(8):
        for i in range(400):
            x = i * 0.37 + 1.0
            total += math.fsum((x * x, -x, math.exp(-x)))
    return total + len(pairs)


def sample() -> float:
    """Seconds one call of :func:`kernel` takes now.

    The cyclic collector is off meanwhile: the program's own heap is
    large, and a collection inside the kernel would time the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def typical(samples: list[float]) -> float:
    """The kernel's time over a run: the mean of the middle 80% of samples.

    A mean, because the host's speed is bimodal at the scale of a sample
    (its share of slow spells moves a mean smoothly, a median by jumps);
    trimmed, because a sample the scheduler preempted reads several
    times too long.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])
