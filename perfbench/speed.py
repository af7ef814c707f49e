"""A gauge of the machine's speed, to take its drift out of the times.

The benchmark's machine shares its host with others, and its speed moves by
a third and more from one second to the next. So every measured call is
bracketed by a fixed piece of reference work that uses no fggc code, and
the call's time is scaled by REFERENCE_S over the reference's time next to
it. A reported time is then the time the call would have taken at the
speed at which the reference takes REFERENCE_S. A change to fggc moves the
call's time and not the reference's, so it moves the scaled time alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference's time on the recording machine at its usual speed
# (Python 3.11.7, numpy 2.4.6, one BLAS thread); a constant, so scaled
# times stay comparable from run to run and from commit to commit.
REFERENCE_S = 0.005
REFERENCE_REPEATS = 3


class _Node:
    __slots__ = ("op", "kids", "leaf")

    def __init__(self, op: str, kids: tuple, leaf: int):
        self.op, self.kids, self.leaf = op, kids, leaf


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), i)
    kids = (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))
    return _Node("add" if i % 2 else "mul", kids, 0)


def _walk(node: _Node, env: dict) -> float:
    if node.op == "leaf":
        return env.setdefault(node.leaf % 257, 0.5 * node.leaf)
    a, b = _walk(node.kids[0], env), _walk(node.kids[1], env)
    return a + b if node.op == "add" else (a * b) % 1000.0


def reference_work() -> float:
    """Fixed work of the same kinds as a query's: building and walking a
    tree of small objects and dict churn, like the compiler's passes, then
    small einsum contractions, like the solver's."""
    acc = _walk(_tree(11, 1), {})
    table: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0.0) + 0.5 * i
    acc += sum(v * k[0] for k, v in sorted(table.items()))
    a = np.full((12, 12, 12), 1.0 / 1728)
    b = np.eye(12) * 0.5 + 0.5 / 12
    for _ in range(50):
        c = np.einsum("ijk,kl->ijl", a, b)
        a = c / c.sum()
    return acc + float(a.sum())


class SpeedGauge:
    """Times the reference work between measured calls.

    Each reading is the median of REFERENCE_REPEATS back-to-back runs, so
    the cold caches a call leaves behind do not count as a slow machine.
    `scale()` is called right after each measured call and returns the
    factor for that call's times: REFERENCE_S over the mean of the readings
    just before and just after it."""

    def __init__(self):
        self.last = self.read()

    @staticmethod
    def read() -> float:
        times = []
        for _ in range(REFERENCE_REPEATS):
            t = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    def scale(self) -> float:
        before, self.last = self.last, self.read()
        return 2.0 * REFERENCE_S / (before + self.last)
