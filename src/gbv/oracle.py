"""Exact hat-norm oracle: linear programming over the dominated-measure polytope.

The hat-norm of a sequence x under a submeasure phi is by definition

    sup { sum_i mu_i |x_i| : mu_i >= 0,  sum_{i in S} mu_i <= phi(S) for all S }

with S ranging over the finite subsets of the support of x.  This module
solves that linear program literally, in exact rational arithmetic, using a
tableau simplex with Bland's rule plus constraint generation (the polytope
has 2^k - 1 facet candidates for support size k, but at most k of them bind
at an optimum, so we grow the working set on demand and certify optimality
with an exact scan over every subset).

The simplex and the certification scan compute on integers; Fractions
appear only at the edges (the costs read from x, and mu and the value
returned).  The tableau keeps each row as integer numerators over one
positive row denominator, divides out the gcd after each pivot, compares
ratios by cross-multiplication, and updates only the nonzero columns of the
pivot row; its rows stand for the same rationals as a Fraction tableau, so
the pivots, mu and the value are the same.  The certification scan puts mu
and phi over one common denominator.

The oracle reads phi through ``set_value`` alone, once per nonempty subset of
the support, and is therefore an independent check of every closed-form
hat-norm in :mod:`gbv.submeasure`.  It refuses supports larger than
:data:`ORACLE_MAX_LEN` coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._util import SizeRefusal, all_exact
from .submeasure import Submeasure, as_entries

ORACLE_MAX_LEN = 12


def hat_norm_oracle(phi: Submeasure, x, max_len: int = ORACLE_MAX_LEN):
    """Exact maximum of sum mu_i |x_i| over measures dominated by phi.

    Arithmetic is rational throughout (float inputs are converted exactly),
    so the result is the true LP value of the represented data.  Returns a
    Fraction when both phi and x are exact, else a float.
    """
    entries = as_entries(x)
    if len(entries) > max_len:
        raise SizeRefusal(
            f"oracle limited to {max_len} coordinates (got {len(entries)}): "
            "the constraint set is exponential in the support size")
    exact = phi.is_exact() and all_exact(entries)

    support = [i + 1 for i, v in enumerate(entries) if v]
    k = len(support)
    if k == 0:
        return Fraction(0) if exact else 0.0
    cost = [abs(Fraction(entries[i - 1])) for i in support]

    # phi over every nonempty subset of the support, indexed by bitmask, in
    # increasing mask order.  The members of a mask are those of the mask
    # without its highest bit, plus that bit's index, so they come sorted.
    # Exact values stay as they come (ints or Fractions); floats are
    # converted exactly.
    phi_table = [0] * (1 << k)
    members = [()] * (1 << k)
    for j, i in enumerate(support):
        high = 1 << j
        for mask in range(high, high << 1):
            members[mask] = C = members[mask ^ high] + (i,)
            v = phi.set_value(C)
            phi_table[mask] = v if isinstance(v, (int, Fraction)) else Fraction(v)

    # Working set warm start: singletons bound each variable (keeps every
    # relaxation bounded), plus the full set and the prefixes of the
    # coordinates sorted by descending cost, which are the binding sets for
    # the shipped closed forms.
    working = []
    seen = set()

    def add(mask):
        if mask and mask not in seen:
            seen.add(mask)
            working.append(mask)

    for j in range(k):
        add(1 << j)
    order = sorted(range(k), key=lambda j: (-cost[j], j))
    mask = 0
    for j in order:
        mask |= 1 << j
        add(mask)

    # phi over a common denominator, once: the certification scan below runs
    # on plain ints, and scaling by a positive denominator keeps the argmax.
    phi_den = lcm(*(p.denominator for p in phi_table))
    phi_num = [p.numerator * (phi_den // p.denominator) for p in phi_table]

    while True:
        value, mu = _simplex_max(cost, working, phi_table)
        # Exact certification over every subset: with D a common denominator
        # of mu and phi, D * (mu(S) - phi(S)) is an integer, and subset sums
        # follow by lowest-set-bit recursion.
        den = lcm(phi_den, *(v.denominator for v in mu))
        mu_num = [v.numerator * (den // v.denominator) for v in mu]
        phi_scale = den // phi_den
        sums = [0] * (1 << k)
        worst, worst_mask = 0, 0
        for m in range(1, 1 << k):
            low = m & -m
            sums[m] = sums[m ^ low] + mu_num[low.bit_length() - 1]
            violation = sums[m] - phi_num[m] * phi_scale
            if violation > worst:
                worst, worst_mask = violation, m
        if worst_mask == 0:
            return value if exact else float(value)
        add(worst_mask)


def _simplex_max(cost, masks, phi_table):
    """max cost.mu subject to mu >= 0 and mu(S) <= phi(S) for S in masks.

    Tableau on integers, with Bland's rule (smallest-index entering and
    leaving).  Each constraint row holds the integer numerators of its
    rational entries over one positive row denominator, which is the row's
    entry in the column of its basic variable, so it needs no storage of
    its own; the objective row keeps its denominator as a last element.
    Ratios are compared by cross-multiplication, and mu and the value
    become Fractions only at the end.  The rows stand for the same rationals
    as a Fraction tableau would, so every pivot choice, mu and the value
    are those of the Fraction tableau.  The slack basis is feasible because
    phi >= 0.  Returns (optimal value, mu vector).
    """
    k = len(cost)
    m = len(masks)
    rhs = k + m
    rows = []
    for r, mask in enumerate(masks):
        d = phi_table[mask].denominator
        row = [d if mask >> j & 1 else 0 for j in range(k)]
        row.extend([0] * m)
        row[k + r] = d
        row.append(phi_table[mask].numerator)
        rows.append(row)
    # Objective row holds -cost so that a negative entry marks an improving
    # column, then the value, then its denominator.
    den = lcm(*(c.denominator for c in cost))
    obj = [-c.numerator * (den // c.denominator) for c in cost] + [0] * (m + 1) + [den]
    basis = [k + r for r in range(m)]

    while True:
        enter = -1
        for j in range(rhs):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # min ratio rhs / a over a > 0: t / a < bt / ba iff t * ba < bt * a
        leave, bt, ba = -1, 0, 1
        for r in range(m):
            a = rows[r][enter]
            if a > 0:
                t = rows[r][rhs]
                if leave < 0 or t * ba < bt * a or (
                        t * ba == bt * a and basis[r] < basis[leave]):
                    leave, bt, ba = r, t, a
        if leave < 0:
            # Cannot happen with singleton constraints present: every
            # variable is bounded above by phi of its singleton.
            raise RuntimeError("unbounded hat-norm relaxation")
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter

    mu = [Fraction(0)] * k
    for r, b in enumerate(basis):
        if b < k:
            mu[b] = Fraction(rows[r][rhs], rows[r][b])
    return Fraction(obj[rhs], obj[rhs + 1]), mu


def _pivot(rows, obj, leave, enter):
    """Pivot the integer tableau in place on (leave, enter).

    The pivot row keeps its numerators: its new basic entry is its
    denominator.  Every other row r becomes (pe * r - f * prow) / gcd, with
    pe the pivot entry, f the row's entry in the entering column and both
    multipliers first divided by gcd(pe, f).  Only the columns where the
    pivot row is nonzero are eliminated, and each updated row is reduced by
    the gcd of its entries.
    """
    prow = rows[leave]
    pe = prow[enter]
    cols = [j for j, v in enumerate(prow) if v]
    for r, row in enumerate(rows):
        f = row[enter]
        if f and r != leave:
            rows[r] = _eliminate(row, f, pe, prow, cols)
    f = obj[enter]
    if f:
        obj[:] = _eliminate(obj, f, pe, prow, cols)


def _eliminate(row, f, pe, prow, cols):
    g = gcd(f, pe)
    a, b = pe // g, f // g
    if a != 1:
        row = [v * a for v in row]
    for j in cols:
        row[j] -= b * prow[j]
    h = gcd(*row)
    return row if h == 1 else [v // h for v in row]
