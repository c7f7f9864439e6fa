"""The reference kernel that job times are calibrated against.

A fixed piece of pure-Python work built from the same ingredients as
hyperlat's engines: big-integer fraction-free elimination, `Fraction`
Gauss-Jordan, a pruned depth-first search over an integer box, and
dictionary deduplication of tuples.  It imports nothing from hyperlat and
must never change: every calibrated time in the benchmark's history is
measured in units of it.

A timed interval of raw length t, bracketed by kernel runs whose median is
K, is reported as t * K0 / K.  K0 is the kernel's median on the reference
machine (see README.md), so calibrated seconds read close to real seconds
there and stay comparable when the machine is busier or slower.
"""

from __future__ import annotations

import time
from fractions import Fraction

K0 = 0.004

_MAT = tuple(tuple(((7 * i + 3 * j * j + 5) % 19) - 9 for j in range(12)) for i in range(12))
_GRAM = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 3))


def _bareiss(rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _gauss_jordan(n):
    m = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sum(m[i][n + i] for i in range(n))


def _box_search(height, target):
    n = len(_GRAM)
    hits = {}

    def rec(depth, prefix, partial):
        if depth == n:
            if partial <= target:
                key = tuple(sorted(abs(x) for x in prefix))
                hits[key] = hits.get(key, 0) + 1
            return
        row = _GRAM[depth]
        for t in range(-height, height + 1):
            lin = sum(2 * row[j] * prefix[j] for j in range(depth))
            value = partial + row[depth] * t * t + lin * t
            if value <= target + 4 * height * height:
                prefix.append(t)
                rec(depth + 1, prefix, value)
                prefix.pop()

    rec(0, [], 0)
    return len(hits), sum(hits.values())


def kernel() -> int:
    """One run of the fixed work; returns a checksum so nothing is elided."""
    acc = 0
    for shift in range(4):
        acc += _bareiss([[x + shift for x in row] for row in _MAT])
    acc += _gauss_jordan(6).numerator % 1000003
    kinds, total = _box_search(3, 12)
    return acc + kinds + total


def time_kernel(runs: int) -> list[float]:
    """Wall seconds of `runs` consecutive kernel runs, one value per run."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out
