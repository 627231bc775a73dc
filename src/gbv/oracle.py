"""Exact hat-norm oracle: linear programming over the dominated-measure polytope.

The hat-norm of a sequence x under a submeasure phi is by definition

    sup { sum_i mu_i |x_i| : mu_i >= 0,  sum_{i in S} mu_i <= phi(S) for all S }

with S ranging over the finite subsets of the support of x.  This module
solves that linear program literally, in exact rational arithmetic, by
constraint generation: the polytope has 2^k - 1 facet candidates for
support size k, but at most k of them bind at an optimum, so a working set
of subsets grows on demand and an exact scan over every subset certifies
optimality.

The subset table, the simplex and the certification scan compute on
integers; Fractions appear only at the edges (the costs read from x, and mu
and the value returned).  The tableau keeps each row as integer numerators
over one positive row denominator, divides out the gcd after each pivot,
compares ratios by cross-multiplication, and updates only the nonzero
columns of the pivot row.  The tableau starts at the singleton vertex
mu_j = phi({j}): under the singleton rows mu_j <= phi({j}) alone, that
point is feasible because phi >= 0 and optimal because every cost |x_j| is
positive.  The tableau is then kept from round to round: the worst
violated subset comes in as a new row written in the current basis, and
dual simplex steps (the smallest-subscript rule on the dual) restore
feasibility.  A round may end at another optimal mu than a cold solve of
the same working set, but an LP has one optimal value, so the value is
the same; the tests check each round's value against a Fraction tableau
solved cold on that round's working set.

The certification scan puts mu and phi over one common denominator D and
runs on a numpy integer array: mu's 2^k subset sums are built by doubling
(each numerator appends the old sums plus itself), D * phi(S) is
subtracted, and ``argmax`` returns the first (smallest) mask of largest
violation, which is the mask added.  As mu and phi are >= 0, every number
the scan forms lies between -D * max phi and D * mu(support), so when
D * (mu(support) + max phi) < 2^62 the scan runs on int64 and cannot
overflow; otherwise the same lines run on an object array of Python ints.
Both are exact.

The oracle reads phi through ``Submeasure.set_table`` alone: phi on every
subset of the support as integer numerators over one denominator, which each
variant builds from its set function and never from its hat-norm.  The
oracle is therefore an independent check of every closed-form hat-norm in
:mod:`gbv.submeasure`.  It refuses supports (nonzero coordinates) larger
than :data:`ORACLE_MAX_LEN`, and NaN or infinite entries; zeros cost nothing.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from ._util import NonFiniteValue, SizeRefusal, all_exact, int_dtype
from .submeasure import Submeasure, finite_entries

ORACLE_MAX_LEN = 12


def hat_norm_oracle(phi: Submeasure, x):
    """Exact maximum of sum mu_i |x_i| over measures dominated by phi.

    Arithmetic is rational throughout (float inputs are converted exactly),
    so the result is the true LP value of the represented data.  Returns a
    Fraction when both phi and x are exact, else a float.  A NaN or
    infinite entry, or a float result past the float range, raises
    :class:`~gbv._util.NonFiniteValue`.
    """
    entries = finite_entries(x)
    support = [i + 1 for i, v in enumerate(entries) if v]
    k = len(support)
    if k > ORACLE_MAX_LEN:
        raise SizeRefusal(
            f"oracle limited to a support of {ORACLE_MAX_LEN} coordinates "
            f"(got {k} nonzero): the constraint set is exponential in the support size")
    exact = phi.is_exact() and all_exact(entries)
    if k == 0:
        return Fraction(0) if exact else 0.0
    cost = [abs(Fraction(entries[i - 1])) for i in support]

    # phi over every subset of the support, indexed by bitmask, as integer
    # numerators over one denominator; float set values come in exactly.
    phi_num, phi_den = phi.set_table(support)
    phi_max = max(phi_num)
    phi_arr = np.array(phi_num, int_dtype(phi_max))

    tableau = _Tableau(cost, phi_num, phi_den)
    while True:
        value, mu = tableau.solution()
        # Exact certification over every subset: with D a common denominator
        # of mu and phi, D * (mu(S) - phi(S)) is an integer.  Scaling by a
        # positive denominator keeps the argmax; the first (smallest) mask
        # of largest violation is added.  A violated mask is never in the
        # working set, whose constraints mu meets.
        den = lcm(phi_den, *(v.denominator for v in mu))
        phi_scale = den // phi_den
        nums = [v.numerator * (den // v.denominator) for v in mu]
        dtype = int_dtype(sum(nums) + phi_max * phi_scale)
        sums = np.zeros(1, dtype)
        for v in nums:
            sums = np.concatenate((sums, sums + v))
        violations = sums - phi_arr.astype(dtype, copy=False) * phi_scale
        worst = int(np.argmax(violations))
        if violations[worst] <= 0:
            return value if exact else _as_float(value)
        tableau.add_row(worst)


def _as_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        approx = Decimal(value.numerator) / value.denominator
        raise NonFiniteValue(
            f"the hat-norm value {approx:.6e} overflows a float ({exc})") from exc


class _Tableau:
    """max cost.mu subject to mu >= 0 and mu(S) <= phi(S) for S in a working
    set of masks, with phi(S) = phi_num[S] / phi_den; the working set grows
    one violated mask at a time and the tableau is kept between rounds.

    Each constraint row holds the integer numerators of its rational entries
    over one positive row denominator, which is the row's entry in the
    column of its basic variable, so it needs no storage of its own.  A row
    is laid out as the k structural columns, one slack column per mask in
    the order the masks came, then the right-hand side; the objective row
    holds -cost (a negative entry marks an improving column), the value and
    its denominator.  Ratios are compared by cross-multiplication, and mu
    and the value become Fractions only in :meth:`solution`.

    The tableau starts at the singleton vertex mu_j = phi({j}), optimal
    for the singleton rows, and every other mask comes in through
    :meth:`add_row` and dual simplex steps.
    """

    def __init__(self, cost, phi_num, phi_den):
        k = len(cost)
        self.k = k
        self.phi_num, self.phi_den = phi_num, phi_den
        self.rows = [self._phi_row(1 << j, k + j, 2 * k) for j in range(k)]
        den = lcm(*(c.denominator for c in cost))
        self.obj = [-c.numerator * (den // c.denominator) for c in cost] + [0] * (k + 1) + [den]
        self.basis = list(range(k))
        # Column j is nonzero only in row j, so each pivot changes the
        # objective row alone.
        for j in range(k):
            _pivot(self.rows, self.obj, j, j)

    def _phi_row(self, mask, slack, width):
        """The row mu(S) + s = phi(S) in lowest terms, over the slack basis,
        with ``width`` columns before the right-hand side."""
        g = gcd(self.phi_num[mask], self.phi_den)
        d = self.phi_den // g
        row = [d if mask >> j & 1 else 0 for j in range(self.k)]
        row.extend([0] * (width - self.k))
        row[slack] = d
        row.append(self.phi_num[mask] // g)
        return row

    def add_row(self, mask):
        """Add mu(S) + s = phi(S) for S = mask with a new slack column s,
        and restore feasibility with dual simplex steps.

        The new row is written in the current basis by eliminating each of
        its basic columns; its right-hand side is then phi(S) - mu(S), which
        is negative for a violated S, while every reduced cost stays >= 0.
        Each step takes the negative-rhs row with the smallest basic index
        to leave, and the column j with a_j < 0 of least ratio obj_j / -a_j
        to enter, the smallest j on a tie: the smallest-subscript rule on
        the dual, which cannot cycle.  The pivot row is negated first, so
        that its new denominator, the entering entry, is positive.
        """
        rows, obj, basis = self.rows, self.obj, self.basis
        n = len(obj) - 2
        for row in rows:
            row.insert(n, 0)
        obj.insert(n, 0)
        new = self._phi_row(mask, n, n + 1)
        for r, b in enumerate(basis):
            f = new[b]
            if f:
                prow = rows[r]
                new = _eliminate(new, f, prow[b], prow, [j for j, v in enumerate(prow) if v])
        rows.append(new)
        basis.append(n)
        rhs = n + 1
        while True:
            leave = -1
            for r, row in enumerate(rows):
                if row[rhs] < 0 and (leave < 0 or basis[r] < basis[leave]):
                    leave = r
            if leave < 0:
                return
            # with c = obj_j and a = -a_j > 0: c / a < bc / ba iff c * ba < bc * a
            prow = rows[leave]
            enter, bc, ba = -1, 0, 1
            for j in range(rhs):
                a = -prow[j]
                if a > 0:
                    c = obj[j]
                    if enter < 0 or c * ba < bc * a:
                        enter, bc, ba = j, c, a
            if enter < 0:
                # Cannot happen: mu = 0 meets every constraint, as phi >= 0.
                raise RuntimeError("infeasible hat-norm relaxation")
            rows[leave] = [-v for v in prow]
            _pivot(rows, obj, leave, enter)
            basis[leave] = enter

    def solution(self):
        """(optimal value, mu vector) of the current working set, as
        Fractions."""
        mu = [Fraction(0)] * self.k
        for row, b in zip(self.rows, self.basis):
            if b < self.k:
                mu[b] = Fraction(row[-1], row[b])
        return Fraction(self.obj[-2], self.obj[-1]), mu


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
