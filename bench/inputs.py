"""Seeded input generators and the benchmark's own reference computations.

The generators fix every size (support sizes, segment counts, horizons) and
draw only values from the seed, so the cost of a round changes little from one
seed to the next.  The reference computations are written here from the
definitions, apart from the library, for the checks to compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def weight_table(rng, n: int, first=None) -> list:
    """Positive nonincreasing Fractions, each 50-100% of the one before."""
    cur = first if first is not None else Fraction(rng.randint(5, 30), rng.randint(1, 3))
    out = []
    for _ in range(n):
        out.append(cur)
        cur = cur * Fraction(rng.randint(5, 10), 10)
    return out


def density_table(rng, n: int) -> list:
    """Integer g(1..n) with g(1) = 1, nondecreasing, growing, n/g(n) nondecreasing.

    A step v -> w at position i keeps i/g(i) nondecreasing iff w - v <= v // (i-1).
    """
    while True:
        g = [1]
        for i in range(2, n + 1):
            v = g[-1]
            cap = v // (i - 1)
            g.append(v + (rng.randint(1, cap) if cap and rng.random() < 0.7 else 0))
        if g[-1] > g[0]:
            return g


def permutation(rng, n: int) -> tuple:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def frac_str(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


def g_identity(n: int) -> int:
    return n


def g_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1."""
    return math.isqrt(n - 1) + 1


def g_log(n: int) -> int:
    """ceil(log2(n + 1)) for n >= 1."""
    return n.bit_length()


def density_set_value(g, F) -> Fraction:
    """phi_g(F) = max over the elements n of F of |F ∩ {1..n}| / g(n)."""
    return max((Fraction(rank, g(n)) for rank, n in enumerate(sorted(F), start=1)),
               default=Fraction(0))


def density_prefix_hat(g, x) -> Fraction:
    """max_n (|x_1| + ... + |x_n|) / g(n), exact for exact entries."""
    best, prefix = Fraction(0), Fraction(0)
    for n, v in enumerate(x, start=1):
        prefix += abs(Fraction(v))
        r = prefix / g(n)
        if r > best:
            best = r
    return best


def jordan(values) -> object:
    """Classical total variation of a piecewise-linear function: sum |dy|."""
    return sum((abs(b - a) for a, b in zip(values, values[1:])), 0)
