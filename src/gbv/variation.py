"""Variation functionals of piecewise-linear functions on the unit interval.

The function model is deliberately piecewise linear: every supremum over
families of nonoverlapping closed subintervals is then attained with all
endpoints at breakpoints (an interior endpoint can always be slid to the
neighbouring breakpoint that does not decrease any oscillation), which makes
exhaustive enumeration an exact oracle instead of an estimate.  Only finitely
many intervals of a family can contribute (at most one nondegenerate interval
per linear segment matters), so finite families of at most B intervals are
lossless, and the degenerate intervals that the interval-family model allows
contribute zero oscillation and never help.

Where the sorted hat is the supremum over orderings, fewer families suffice.
A hat-norm is a supremum of sum mu_i |x_i| over measures mu >= 0, so it is
monotone in |x| coordinatewise; adding an interval to a family inserts one
nonnegative entry into its sorted oscillation vector and lowers no
coordinate.  Every family therefore lies inside an inclusion-maximal one (of
max_count intervals, or of fewer with no gap from the first breakpoint to
the last) whose sorted hat is at least as large, and only those are
evaluated: with max_count = B = 9, the 256 partitions of the breakpoints
instead of 4180 families.  The argument needs the sorted vector: the
left-to-right hat that max-with-unit and a shift over a permutation also
compare is not monotone under insertion, since an inserted entry moves the
later ones to other weights, so that path enumerates every family; so does
``modulus_by_enumeration``, which wants the best family of each size.

The same B(B+1)/2 index intervals recur in thousands of families, so their
oscillations are computed once per function, as one flat grid with the
interval (i, j) at cell i * (B + 1) + j and 0 for j <= i
(``_oscillation_grid``), by one numpy subtraction on the rail of the
values.  On the exact rail the grid holds integer keys, the numerators of
the oscillations over the lcm D of the value denominators: int64 while the
sums it feeds fit, Python ints otherwise.  When every value is a float it
is float64, whose differences are Python's bits.  Otherwise (int, Fraction
and float mixed, or exact values scored as floats) it holds the objects
Python's subtraction makes, on which numpy runs Python's own arithmetic and
comparisons.  Only the left-to-right profiles still read a table of Python
objects with keys (``_oscillation_table``) and sort by its keys.

The families depend only on B and the cap, so ``_family_tree`` lays them
out once as integer index arrays into the grid: for each family size k,
each family's parent (its position among the families of k - 1 intervals
once its last interval is dropped) and the cell of that last interval; and
the cells of each maximal family, zero-padded, cell 0 holding a 0, read off
the same levels.  The enumeration of the modulus is one numpy gather and
addition per size, total = total[parent] + grid[cell], so every family is
still scored, summed left to right, and the first argmax of a size is the
first family of ``_index_families`` to reach its maximum.

Where the sorted hat is the supremum, the brute force reads one matrix on
both rails (``_sorted_profile_matrix``): the grid gathered through the
maximal families' cells, a row per family sorted nonincreasing, as integer
keys on the exact rail (cached by the value keys) and as floats otherwise.
The float rail takes the last column of the base's ``truncation_norms`` of
it, and refuses a maximum past the float range.  The exact rail scores on
integers.  A variant with ``sorted_hat_is_sup`` states its hat on
nonincreasing vectors as integer linear forms (``Submeasure.sorted_forms``:
hat(x) = max_r rows[r] . x / den), so all the rows of the key matrix M are
scored with one product, max over the rows of M @ rows^T.  The scores are
hat * den * D for the key scale D.  When every value is a Fraction the
variation is the top score over den * D, one Fraction (the int 0 when
nothing oscillates), which is the value and type the per-family loop
returns: every oscillation is then a Fraction, and a hat of nonzero
Fractions is a Fraction.  Other exact
values (all ints, or ints mixed with Fractions) take the family of the
first top score, as that loop would, and run ``hat`` once on its profile
read from its row of cells, which gives the value its type.  The product
runs on the dtype ``_util.int_dtype`` chooses for its bound, max key times
max form entry times width.

The greedy variation and the upper bound finish on the same keys when every
value is a Fraction and phi states its hat on keys
(``Submeasure._key_hat``): the key hat scores the sorted run keys, or the
increments of the merged modulus keys, as one numerator and denominator,
in time linear in their number, and one Fraction is built from them over D
(the int 0 when nothing oscillates).  This is exact because a hat-norm, a
supremum of linear functionals sum mu_i |x_i|, is positively homogeneous:
hat(D x) = D hat(x).  ``runs_saturate_modulus`` compares the prefix sums of
the sorted run keys with the merged keys.  A phi whose rearrangement base
lacks ``sorted_hat_is_sup``, a phi with no key hat (max-with-unit, whose
hat is the oracle's) and a float phi keep the values' own arithmetic, and
so do values that are not all Fractions, where a hat's type depends on the
types of its entries.

A function reads the keys of its values once, with one Fraction flag per
exact value (``PiecewiseLinearFunction._value_keys``, from
``_util.integer_keys``), and every functional shares them; a result k / D
gets its type from ``_util.key_value``.  The modulus of variation merges the
smallest swing of the monotone runs of the keys, in O(B log B), when the
values are of one type (all ints, all Fractions, or all floats as dyadic
keys; ``modulus_of_variation`` proves the rule).  Values of mixed types run
the DP (``_modulus_dp``), which flags each state a Fraction value took part
in.

Provided functionals, for a submeasure phi with hat-norm ``hat``:

* ``jordan_variation``        -- classical total variation,
* ``modulus_of_variation``    -- v(n) = max total oscillation over n
                                 nonoverlapping intervals (merge of the
                                 smallest swing; the DP for mixed types),
* ``variation_bruteforce``    -- sup over all ordered interval families of
                                 hat(oscillation vector): the exact general
                                 variation for every variant with a known
                                 optimal ordering,
* ``variation_greedy``        -- hat of the sorted monotone-run oscillations:
                                 a fast lower bound, exact precisely when the
                                 top-k runs attain the k-interval modulus for
                                 every k (see ``runs_saturate_modulus``),
* ``variation_upper_bound``   -- hat of the modulus increment vector: an
                                 upper bound for prefix-monotone hat-norms,
* ``bv_norm`` / ``abv_norm``  -- |f(0)| plus the variation.

Greedy is *not* exact in general, even for weighted-sum submeasures: merging
runs can produce a single oscillation larger than any run (values 0,4,1,5
give runs (4,3,4) but the full interval oscillates by 5), and with fast
decaying weights the merged family wins.  The brute-force oracle arbitrates.
"""

from __future__ import annotations

import heapq
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import itemgetter, sub

import numpy as np

from ._util import (NonFiniteValue, SizeRefusal, all_exact, exact_div, int_dtype,
                    integer_keys, is_finite, key_value, rail_slack)
from .submeasure import Submeasure, WatermanWeights, as_float_array, hat_norm, summable

BRUTE_FORCE_MAX_SEGMENTS = 12


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Breakpoints 0 = t_0 < t_1 < ... < t_B = 1 and values y_0 .. y_B."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "values", tuple(self.values))
        t, y = self.breakpoints, self.values
        if len(t) != len(y):
            raise ValueError("breakpoints and values must have equal length")
        if len(t) < 2:
            raise ValueError("need at least the two endpoints of [0, 1]")
        for name, seq in (("breakpoint", t), ("value", y)):
            for i, v in enumerate(seq):
                if not is_finite(v):
                    raise NonFiniteValue(f"{name} at index {i} is not finite ({v!r})")
        if t[0] != 0 or t[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for i in range(1, len(t)):
            if not t[i] > t[i - 1]:
                raise ValueError(f"breakpoints must be strictly increasing (index {i})")

    @property
    def segments(self) -> int:
        return len(self.breakpoints) - 1

    def is_exact(self) -> bool:
        return self._is_exact

    @cached_property
    def _is_exact(self) -> bool:
        """Whether every breakpoint and value is exact, read once."""
        return all_exact(self.breakpoints) and self._exact_keys is not None

    def __call__(self, t):
        """f(t) by linear interpolation, exact for exact t and breakpoints.

        An int or Fraction t whose denominator divides the lcm D of the
        breakpoint denominators is located by bisection on the integer keys
        bp * D (built on the first such call), with frac the Fraction of the
        key differences; other t bisect the breakpoints themselves.  Both
        give the same frac, so f(t) has the same value and type.
        """
        bp, y = self.breakpoints, self.values
        if t < 0 or t > 1:
            raise ValueError(f"argument {t} outside [0, 1]")
        keys = self._keys
        if keys is not None and type(t) in (int, Fraction) and keys[0] % t.denominator == 0:
            D, K = keys
            k = t.numerator * (D // t.denominator)
            i = bisect_right(K, k) - 1
            if i >= len(K) - 1:
                return y[-1]
            frac = Fraction(k - K[i], K[i + 1] - K[i])
        else:
            i = bisect_right(bp, t) - 1
            if i >= len(bp) - 1:
                return y[-1]
            frac = exact_div(t - bp[i], bp[i + 1] - bp[i])
        return y[i] + (y[i + 1] - y[i]) * frac

    @cached_property
    def _keys(self):
        """``(D, [bp * D for bp in breakpoints])`` for exact breakpoints, D
        the lcm of their denominators; None if one is a float."""
        if not all_exact(self.breakpoints):
            return None
        nums, D, _ = integer_keys(self.breakpoints)
        return D, nums

    @cached_property
    def _value_keys(self):
        """``_util.integer_keys`` of the values, ``(keys, den, fractions)``,
        read once per function: one Fraction flag per value when every value
        is exact, None there when every value is a float; None for a mix."""
        return integer_keys(self.values)

    @property
    def _exact_keys(self):
        """``_value_keys`` when every value is exact, else None."""
        rail = self._value_keys
        return rail if rail is not None and rail[2] is not None else None


@dataclass(frozen=True)
class ModulusVector:
    """v[n] = largest total oscillation achievable with n intervals.

    Always starts at v[0] = 0, is nondecreasing, and has nonincreasing
    increments (concavity); validated on construction, exactly for exact
    inputs (on integer numerators over the lcm of the denominators) and
    within float slack otherwise.
    """

    values: tuple

    def __post_init__(self):
        v = tuple(self.values)
        object.__setattr__(self, "values", v)
        if v and all_exact(v):
            _check_modulus(integer_keys(v)[0], 0)
        else:
            _check_modulus(v, rail_slack(False, max(v)) if v else 0)

    @classmethod
    def _from_keys(cls, keys: list, den: int, fractions) -> "ModulusVector":
        """The vector keys / den for the integer keys over den of values of
        one type with the Fraction flags ``fractions`` of
        ``_util.integer_keys``, checked exactly on the keys: v[n] is typed by
        ``_util.key_value``, or for floats (no flags) rounded once, an
        overflow giving a signed inf as IEEE addition does; and the int 0
        where the key is 0 (v[0], or every entry of a constant function)."""
        _check_modulus(keys, 0)
        values = [0] * len(keys)
        if keys[-1]:
            # the entries from the first n with v(n) = v(n_max) are one number
            top = keys.index(keys[-1])
            values[1:top + 1] = [_key_number(k, den, fractions) for k in keys[1:top + 1]]
            values[top + 1:] = values[top:top + 1] * (len(keys) - top - 1)
        return cls._checked(values)

    @classmethod
    def _checked(cls, values) -> "ModulusVector":
        """The vector of values whose keys were checked already."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", tuple(values))
        return out

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def increments(self) -> tuple:
        return tuple(self.values[n] - self.values[n - 1] for n in range(1, len(self.values)))


def _check_modulus(v, slack) -> None:
    """The three checks of ``ModulusVector``, each within ``slack``."""
    if not v or v[0] != 0:
        raise ValueError("modulus vector must start at v[0] = 0")
    for n in range(1, len(v)):
        if v[n] < v[n - 1] - slack:
            raise ValueError(f"modulus must be nondecreasing (n={n})")
    for n in range(2, len(v)):
        if v[n] - v[n - 1] > v[n - 1] - v[n - 2] + slack:
            raise ValueError(f"modulus increments must be nonincreasing (n={n})")


# ---------------------------------------------------------------------------
# Elementary functionals
# ---------------------------------------------------------------------------


def oscillation(f: PiecewiseLinearFunction, interval) -> object:
    """|f(t) - f(s)| over a closed subinterval [s, t] of [0, 1]."""
    s, t = interval
    if t < s:
        raise ValueError("interval endpoints out of order")
    return abs(f(t) - f(s))


def monotone_runs(f: PiecewiseLinearFunction) -> tuple:
    """Oscillations of the maximal monotone pieces, split at local extrema.

    Zero-slope segments extend the current run.  The run total equals the
    Jordan variation.  A constant function has no runs.

    Exact values (ints and Fractions, mixed or not) are read as their value
    keys over D (``PiecewiseLinearFunction._exact_keys``): each run is the
    key difference across its span (``_spans``) over D, a Fraction exactly
    when one of its sloped segments has a Fraction endpoint, which is when
    summing the segment differences in Python would give a Fraction.
    Otherwise the segment differences are summed in Python, left to right.
    """
    rail = f._exact_keys
    if rail is not None:
        keys, den, frac = rail
        return tuple(
            key_value(abs(keys[j] - keys[i]), den, True in frac[i:j + 1] and any(
                keys[k] != keys[k + 1] and (frac[k] or frac[k + 1]) for k in range(i, j)))
            for i, j in _spans(keys))
    y = f.values
    runs = []
    current = 0
    sign = 0
    for i in range(f.segments):
        d = y[i + 1] - y[i]
        if d == 0:
            continue
        s = 1 if d > 0 else -1
        if s == sign:
            current += d
        else:
            if sign != 0:
                runs.append(abs(current))
            current, sign = d, s
    if sign != 0:
        runs.append(abs(current))
    return tuple(runs)


def _run_breakpoints(f: PiecewiseLinearFunction) -> list:
    """``[i, j]`` per run of ``monotone_runs``, in order: the run goes from
    breakpoint index i to breakpoint index j (0-based), over its first and
    last segment of nonzero slope.  Exact and float values are compared by
    their value keys."""
    rail = f._value_keys
    return _spans(f.values if rail is None else rail[0])


def _spans(keys) -> list:
    """``[i, j]`` per maximal monotone run of a sequence, in order: from
    index i to index j over its first and last strict step, the equal steps
    inside it included."""
    spans, up = [], None
    for i, (a, b) in enumerate(zip(keys, keys[1:])):
        if a == b:
            continue
        if (a < b) is up:
            spans[-1][1] = i + 1
        else:
            spans.append([i, i + 1])
            up = a < b
    return spans


def jordan_variation(f: PiecewiseLinearFunction):
    """Classical total variation: the sum of the monotone-run oscillations.

    Exact values sum their key differences once, over D: every value takes
    part in a difference, so the sum of the differences in Python is a
    Fraction exactly when a value is one.  Other values are summed as they
    are, left to right."""
    rail = f._exact_keys
    if rail is not None:
        keys, den, fractions = rail
        return key_value(sum(map(abs, map(sub, keys[1:], keys))), den, True in fractions)
    total = 0
    for i in range(f.segments):
        total += abs(f.values[i + 1] - f.values[i])
    return total


# ---------------------------------------------------------------------------
# Modulus of variation
# ---------------------------------------------------------------------------


def modulus_of_variation(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Modulus vector v(0..n_max), by merging the smallest swing.

    v(n) is the largest total oscillation of n nonoverlapping intervals.
    When the values are of one type, by the Fraction flags of their keys
    (``PiecewiseLinearFunction._value_keys``: no Fraction, all Fractions, or
    all floats), v comes from the monotone runs r_1..r_m of the keys
    (``_spans``), in O(B + m log m):

    * v(n) = T = r_1 + ... + r_m for n >= m;
    * while c >= 2 runs are left, of sum T, take the smallest run r_i, the
      first on a tie.  An end run is dropped: v(c - 1) = T - r_i.  An
      interior run is merged with its two neighbours into one run
      r_{i-1} - r_i + r_{i+1}: v(c - 1) = T - r_i and v(c - 2) = T - 2 r_i.

    The runs sit in a linked list, and a heap of (amplitude, position) skips
    its stale entries.  ``ModulusVector`` checks the keys exactly; an entry
    is its key mapped back (an int or a Fraction by ``_util.key_value``, or
    a float rounded once) and the int 0 where the key is 0, the types the DP
    gives on such values.  Other values (int with Fraction, exact with
    float, a float subclass) run ``_modulus_dp``: there an entry's type
    depends on which optimal family the DP's strict ``>`` keeps on a tie, a
    rule the merge does not reproduce.  A hand-written CSV with ``0,0`` on
    its first line and a ``p/q`` value elsewhere (the golden reports'
    ``tent.csv``) is such a mix.

    Why the rule holds.  Let z_0..z_m be the turning values (the first
    value, the local extrema, the last value) and r_k = |z_k - z_{k-1}|.

    1. *Turning points suffice.*  Let an endpoint sit at an index p whose
       value lies between its neighbours' (inside a run, or on a flat).
       |x - t| and |x - t| + |t - y| are convex in t, so moving it, with the
       end of an interval touching it there, to p - 1 or p + 1 lowers no
       total; the moved intervals only shrink or take a step no other
       interval holds, and an interval left empty is dropped.  So v is the
       modulus of z, a zigzag with alternating steps r_1..r_m.
    2. *Counting.*  An interval oscillates by at most the sum of the runs
       it spans, and by at most that sum less twice the smallest run when it
       spans two or more (one of them goes against its net direction).  So
       v(m) = T, and v(m - 1) = T - min r: m - 1 intervals leave a run out
       or span two.
    3. *A spare interval gains the smallest run.*  A family of k < m
       intervals takes one more interval and gains at least min r: add a run
       no interval covers, or split an interval spanning two or more runs
       around one that goes against its net direction.
    4. *An interior merge.*  Let r_i be smallest, 1 < i < m, rising from
       L = z_{i-1} to H = z_i (else reflect), so P = z_{i-2} >= H and
       Q = z_{i+1} <= L.  Dropping z_{i-1}, z_i leaves a zigzag Z' of m - 2
       runs, each >= r_i (the merged one is P - Q).  Its families are
       families of z, so v' <= v.  Conversely, take an n-family of z with
       n <= m - 2 and rewrite its intervals on the steps P-L, L-H, H-Q so
       that none ends at L or H.  An interval with one end at L or H and
       the other at x moves that end to P or Q, one of which does as well
       since L, H lie in [Q, P] and |x - t| is convex; two intervals
       touching at L or H move their shared end together; a lone [L, H]
       becomes [P, Q], which is larger.  Three patterns may give up
       intervals, losing at most r_i for each: (a) an interval from x
       ending at L beside [L, H], with H-Q free, becomes [x, Q] when
       x >= L, as x - Q = (x - L) + r_{i+1} - r_i, and else [x, P] and
       [P, Q] lose nothing (mirrored, [L, H] beside an interval starting
       at H);
       (b) an interval from x ending at L and one to y starting at H, with
       L-H free, become [x, y] when x >= L and y <= H, as
       x - y = (x - L) + (H - y) - r_i, and else move their ends to P or Q
       without loss; (c) [L, H] between two such intervals is dropped, and
       (b) follows.  Step 3 on Z' (each run >= r_i) wins back r_i for each
       interval given up.  So v(n) = v'(n) for n <= m - 2, and
       v'(m - 2) = T - 2 r_i.
    5. *An end run.*  Let r_1 be smallest, rising from L = z_0 to H = z_1
       (else reflect or reverse), and Z' the zigzag without z_0.  In an
       n-family of z with n <= m - 1, an interval from z_0 to z_b is
       dropped when b = 1 (losing r_1), and otherwise becomes [z_2, z_b]
       when z_b >= H (then b >= 3, and r_2 >= r_1 makes it larger), becomes
       [z_1, z_b] when z_b <= (L + H) / 2, and is dropped in between
       (losing less than r_1); step 3 on Z' wins the loss back.  So
       v(n) = v'(n) for n <= m - 1, and v'(m - 1) = T - r_1.

    In all of these an interval left empty is dropped.  So for n up to the
    count c of runs left, v(n) is the modulus of the runs left, and by
    steps 2, 4 and 5 each step of the rule records it.
    """
    B = f.segments
    if n_max is None:
        n_max = B
    if not 0 <= n_max <= B:
        raise ValueError(f"n_max must lie in 0..{B}")
    rail = f._value_keys
    if rail is None or not _one_type(rail[2]):
        return _modulus_dp(f, n_max)
    keys, den, fractions = rail
    return ModulusVector._from_keys(_modulus_keys(_run_amplitudes(keys), n_max), den, fractions)


def _one_type(fractions) -> bool:
    """Whether values with these Fraction flags (``_util.integer_keys``) are
    of one type: all Fractions, no Fraction, or all floats (no flags)."""
    return fractions is None or len(set(fractions)) == 1


def _key_number(k: int, den: int, fractions):
    """k / den as ``ModulusVector._from_keys`` types it."""
    if fractions is not None:
        return key_value(k, den, fractions[0])
    try:
        return k / den
    except OverflowError:
        return math.inf if k > 0 else -math.inf


def _run_amplitudes(keys) -> list:
    """The amplitude of each monotone run of integer keys, in order."""
    return [abs(keys[j] - keys[i]) for i, j in _spans(keys)]


def _modulus_keys(runs: list, n_max: int) -> list:
    """v(0..n_max) from the run amplitudes of integer keys, by
    ``_merge_smallest_swing``, unchecked."""
    v = _merge_smallest_swing(runs)
    return v[:n_max + 1] + v[-1:] * (n_max + 1 - len(v))


def _merge_smallest_swing(runs: list) -> list:
    """v(0..m) from the m run amplitudes, by the rule of
    ``modulus_of_variation``."""
    count = m = len(runs)
    total = sum(runs)
    v = [0] * m + [total]
    amp = runs[:]
    prev = list(range(-1, m - 1))               # -2 marks a run that is gone
    nxt = list(range(1, m + 1))
    # (amplitude, position) as the one integer amplitude * M + position,
    # which orders alike and compares faster
    M = m + 1
    heap = [a * M + i for i, a in enumerate(runs)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while count > 1:
        a, i = divmod(pop(heap), M)
        if prev[i] == -2 or amp[i] != a:        # gone, or merged since
            continue
        p, q = prev[i], nxt[i]
        prev[i] = -2
        total -= a
        count -= 1
        v[count] = total
        if p < 0:                               # the first run: drop it
            prev[q] = -1
        elif q == m:                            # the last run: drop it
            nxt[p] = m
        else:                                   # merge it with both neighbours
            total -= a
            count -= 1
            v[count] = total
            a = amp[p] = amp[p] - a + amp[q]
            prev[q] = -2
            q = nxt[p] = nxt[q]
            if q < m:
                prev[q] = p
            push(heap, a * M + p)
    return v


def _modulus_dp(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Exact modulus vector by dynamic programming over breakpoint indices:
    the reference for ``modulus_of_variation``, and its path for values of
    mixed types, in O(B * n_max).

    State per breakpoint: best total with j complete intervals (A), and best
    total with j complete intervals plus one open interval maximizing a later
    upward (U) or downward (D) close.  Intervals may share endpoints, so an
    interval may open at the index where the previous one closed.

    On the exact rail the states are sums of the value keys over D
    (``PiecewiseLinearFunction._exact_keys``), each flagged when a Fraction
    value took part in it.  An entry comes back through ``_util.key_value``,
    as Fraction(a, D) when flagged and as the int a // D otherwise, the
    types Fraction arithmetic gives: A[0], and any entry never raised, stay
    the int 0.  Values that are not all exact run as they are, unflagged.
    """
    B = f.segments
    if n_max is None:
        n_max = B
    if not 0 <= n_max <= B:
        raise ValueError(f"n_max must lie in 0..{B}")
    ys, scale, yf = f._exact_keys or (f.values, None, [False] * len(f.values))
    size = n_max + 1
    A, Af = [0] * size, [False] * size
    # at the first breakpoint every interval opens and none closes
    U, Uf = [0 - ys[0]] * size, [yf[0]] * size
    D, Df = [0 + ys[0]] * size, [yf[0]] * size
    for i in range(1, B + 1):
        yi, fi = ys[i], yf[i]
        for j in range(size):
            if j:
                close = U[j - 1] + yi
                if close > A[j]:
                    A[j], Af[j] = close, Uf[j - 1] or fi
                close = D[j - 1] - yi
                if close > A[j]:
                    A[j], Af[j] = close, Df[j - 1] or fi
            a = A[j]
            open_ = a - yi
            if open_ > U[j]:
                U[j], Uf[j] = open_, Af[j] or fi
            open_ = a + yi
            if open_ > D[j]:
                D[j], Df[j] = open_, Af[j] or fi
    if scale is not None:
        A = [key_value(a, scale, af) for a, af in zip(A, Af)]
    return ModulusVector(tuple(A))


def modulus_by_enumeration(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Brute-force modulus: exhaustive over breakpoint interval families.

    Every family of ``_index_families(B + 1, n_max)`` is scored, level by
    level of ``_family_tree``: the totals of the families of k intervals are
    their parents' totals plus the keys of their last intervals, one numpy
    gather and addition per level, so each family is summed left to right
    as a loop over it would.  The keys are the grid of ``_oscillation_grid``
    on the values' own rail: integer keys on the exact rail (int64 while a
    sum of n_max of them fits, Python ints otherwise), mapped back to an int
    or a Fraction at the end by ``_util.key_value``; float64 when every
    value is a float; and Python's own oscillation objects otherwise (int,
    Fraction and float mixed), whose sums then have the values and types of
    Python arithmetic.  The first family to reach a size's maximum (the
    first argmax, if positive) names it, so an exact entry is a Fraction
    exactly when that family has an interval with a Fraction endpoint value
    (by the Fraction flags of the value keys), which is when its oscillation
    ``abs(y_j - y_i)`` is a Fraction.  Values of one type settle that
    without the family, as the merge types its entries: all Fractions give
    a Fraction, all ints an int, and a 0 is the int 0.  Mixed values read
    the family back along its parent links.  The exact grid is built from
    the function's value keys (``_value_keys``), and the vector is checked
    on its keys, before they are typed.  Nothing is pruned, and nothing but
    the value keys is shared with the DP, which this function checks.
    """
    B = f.segments
    if B > BRUTE_FORCE_MAX_SEGMENTS:
        raise SizeRefusal(f"enumeration limited to {BRUTE_FORCE_MAX_SEGMENTS} segments")
    if n_max is None:
        n_max = B
    rail = f._exact_keys
    grid = _oscillation_grid(f.values if rail is None else rail[0], rail is not None,
                             max(n_max, 1))[0]
    best = [0] * (n_max + 1)
    won = [None] * (n_max + 1)
    total = np.zeros(1, grid.dtype)
    levels = _family_tree(B + 1, n_max)[0] if n_max > 0 else ()
    # float sums overflow to inf without a word, as Python's do
    with np.errstate(over="ignore"):
        for k, (parent, cell) in enumerate(levels, 1):
            total = total[parent] + grid[cell]
            at = int(np.argmax(total))
            if total.item(at) > 0:
                best[k], won[k] = total.item(at), at
    # whether a Fraction value took part in the winner of each size
    took = [False] * (n_max + 1)
    if rail is not None:
        frac = rail[2]
        one_type = _one_type(frac)
        for k in range(1, n_max + 1):
            took[k] = won[k] is not None and (frac[0] if one_type else any(
                frac[i] or frac[j] for i, j in _family_at(levels, k, won[k], B + 1)))
    for k in range(1, n_max + 1):
        if best[k] < best[k - 1]:
            best[k], took[k] = best[k - 1], took[k - 1]
    if rail is None:
        return ModulusVector(tuple(best))
    _check_modulus(best, 0)
    return ModulusVector._checked([key_value(b, rail[1], t) for b, t in zip(best, took)])


def _oscillation_grid(values: tuple, exact: bool, terms: int = 1) -> tuple:
    """Every oscillation |y_j - y_i| as one flat grid, the interval (i, j) at
    cell i * n + j for n values and 0 for j <= i (so cell 0 holds a 0),
    built by one numpy subtraction on the rail of the values.

    Returns ``(grid, scale)``.  With ``exact`` (every value an int or a
    Fraction) ``scale`` is the lcm D of the value denominators and the grid
    holds the integer keys, the numerators of the oscillations over D, on
    the dtype ``_util.int_dtype`` chooses for a sum of ``terms`` of them
    (top key * terms; the keys are shifted by their minimum first, so a
    large common offset does not count).
    Without it ``scale`` is None and the grid holds the oscillations: in
    float64 when every value is a float, where IEEE subtraction gives
    Python's bits and overflows to inf without a word as Python does; as
    the objects Python's ``abs(y_j - y_i)`` makes otherwise (int, Fraction
    and float mixed, or exact values to be scored as floats, which then
    round each exact oscillation once)."""
    scale = None
    if exact:
        nums, scale, _ = integer_keys(values)
        low = min(nums)
        a = np.array([v - low for v in nums], int_dtype((max(nums) - low) * terms))
    elif all(type(v) is float for v in values):
        a = np.array(values, float)
    else:
        a = np.array(values, object)
    with np.errstate(over="ignore"):
        return np.triu(np.abs(a[None, :] - a[:, None]), 1).ravel(), scale


def _oscillation_table(values: tuple) -> tuple:
    """Each oscillation |y_j - y_i|, i < j, computed once, with a comparison
    key, for the left-to-right search (``_oscillation_profiles``).

    Returns ``(osc, keys)`` as square rows of Python objects indexed
    ``[i][j]``, the int 0 for j <= i.  ``osc`` holds the objects the
    subtraction makes (int, Fraction or float).  On the exact rail (every
    value an int or a Fraction) ``keys[i][j]`` is the int numerator of the
    oscillation over the lcm of the value denominators, so sorting by the
    keys is integer comparison; otherwise the keys are the oscillations
    themselves."""
    n = len(values)
    osc = [[0] * (i + 1) + [abs(values[j] - values[i]) for j in range(i + 1, n)]
           for i in range(n)]
    if not all_exact(values):
        return osc, osc
    nums = integer_keys(values)[0]
    keys = [[0] * (i + 1) + [abs(nums[j] - nums[i]) for j in range(i + 1, n)]
            for i in range(n)]
    return osc, keys


@lru_cache(maxsize=128)
def _index_families(num_points: int, max_count: int) -> tuple:
    """All families of nondegenerate index intervals (i, j), i < j, with
    interiors disjoint (touching endpoints allowed), up to max_count many."""
    out = []

    def extend(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        if len(chosen) == max_count:
            return
        for i in range(start, num_points - 1):
            for j in range(i + 1, num_points):
                chosen.append((i, j))
                extend(j, chosen)
                chosen.pop()

    extend(0, [])
    return tuple(out)


@lru_cache(maxsize=128)
def _maximal_index_families(num_points: int, max_count: int) -> tuple:
    """The families of ``_index_families``, in its order, that no further
    interval can join: those of max_count intervals, and those of fewer that
    run from the first point to the last without a gap.  The reference for
    the ``maximal`` rows of ``_family_tree``."""
    last = num_points - 1
    return tuple(fam for fam in _index_families(num_points, max_count)
                 if len(fam) == max_count
                 or (fam[0][0] == 0 and fam[-1][1] == last
                     and all(a[1] == b[0] for a, b in zip(fam, fam[1:]))))


@lru_cache(maxsize=128)
def _family_tree(num_points: int, max_count: int) -> tuple:
    """The families of ``_index_families(num_points, max_count)`` as
    read-only integer index arrays into a flat grid of per-interval keys,
    the interval (i, j) at cell i * num_points + j.

    Returns ``(levels, maximal)``.  ``levels[k - 1]`` is a pair of arrays
    ``(parent, cell)`` over the families of k intervals, in their order in
    ``_index_families``, for each size k that occurs: ``parent`` is the
    position in level k - 1 of the family without its last interval (0,
    the empty family, for k = 1) and ``cell`` the cell of that last
    interval, so a family's left-to-right key total is its parent's plus
    ``grid[cell]``.  ``_index_families`` lists a family's extensions by
    their last interval, in (i, j) order, before its next sibling, so a
    level lists the children of each parent in turn, and the children of a
    family ending at point e are the intervals with i >= e: a suffix of the
    list of all intervals.

    ``maximal`` has a row per family of ``_maximal_index_families``, its
    cells left to right, zero-padded to max_count: cell 0 is (0, 0), whose
    key is 0, so ``grid[maximal]`` is the zero-padded key matrix of those
    families.  They are read off the levels: every family of max_count
    intervals, and each shorter one that ends at the last point with no
    gap from point 0, a flag carried from parent to child.  A real cell is
    at least 1 and cells order like their intervals, so sorting the rows
    lexicographically puts them in the order of ``_index_families``, where
    a family comes before its extensions."""
    intervals = [(i, j) for i in range(num_points - 1) for j in range(i + 1, num_points)]
    cells = np.array([i * num_points + j for i, j in intervals], np.intp)
    starts = np.array([i for i, _ in intervals], np.intp)
    ends = np.array([j for _, j in intervals], np.intp)
    # first[e]: the first interval with i >= e
    first = np.searchsorted(starts, np.arange(num_points))
    levels, rows = [], []
    # where each family of the level before ends, and whether it runs from
    # point 0 to there without a gap; the empty family ends at 0
    last, flush = np.zeros(1, np.intp), np.ones(1, bool)
    for k in range(1, max_count + 1):
        start = first[last]
        count = len(intervals) - start
        if not count.any():
            break
        # child t of the level is interval start[p] + (t - offset[p]) of parent p
        offset = np.cumsum(count) - count
        pick = np.repeat(start - offset, count) + np.arange(count.sum())
        parent = np.repeat(np.arange(len(last)), count)
        levels.append((_read_only(parent), _read_only(cells[pick])))
        flush = flush[parent] & (starts[pick] == last[parent])
        last = ends[pick]
        at = (np.arange(len(last)) if k == max_count
              else np.flatnonzero(flush & (last == num_points - 1)))
        row = np.zeros((len(at), max_count), np.intp)
        for col in range(k - 1, -1, -1):
            row[:, col] = levels[col][1][at]
            at = levels[col][0][at]
        rows.append(row)
    maximal = np.zeros((0, max_count), np.intp)
    if rows:
        maximal = np.concatenate(rows)
        maximal = maximal[np.lexsort(maximal.T[::-1])]
    return tuple(levels), _read_only(maximal)


def _family_at(levels, k: int, at: int, num_points: int) -> list:
    """Family ``at`` of size k in the ``levels`` of ``_family_tree`` as its
    index intervals, last first, read back along its parent links."""
    family = []
    for parent, cell in reversed(levels[:k]):
        family.append(divmod(int(cell[at]), num_points))
        at = int(parent[at])
    return family


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _oscillation_profiles(values: tuple, max_count: int, types: tuple) -> tuple:
    """Per family of ``_index_families``: its ``_profile``, the families
    with no nonzero oscillation left out (a family with zeros removed is
    also enumerated, so this loses nothing).  Only the left-to-right search
    reads these.

    ``types`` (the type of each value) is part of the key because equal
    numbers hash alike across int, Fraction and float: without it a function
    would be handed the profiles of a twin whose values have other types."""
    osc, keys = _oscillation_table(values)
    profiles = (_profile(osc, keys, fam) for fam in _index_families(len(values), max_count))
    return tuple(p for p in profiles if p[0])


def _profile(osc, keys, fam) -> tuple:
    """The nonzero oscillations of one family, left to right and sorted.  A
    stable reverse sort by the keys of ``_oscillation_table`` orders like
    the values and keeps equal ones (an int and a Fraction, say) in family
    order, which decides the type a hat returns."""
    pairs = [(keys[i][j], osc[i][j]) for i, j in fam if keys[i][j]]
    return (tuple([v for _, v in pairs]),
            tuple([v for _, v in sorted(pairs, key=itemgetter(0), reverse=True)]))


@lru_cache(maxsize=64)
def _sorted_profile_matrix(values: tuple, max_count: int, types: tuple,
                           exact: bool) -> np.ndarray:
    """Sorted profiles of the maximal families, zero-padded.

    One row of width max_count per maximal family in its order, all-zero
    rows included, nonincreasing, C-contiguous: the grid of
    ``_oscillation_grid`` gathered through the ``maximal`` cells of
    ``_family_tree`` and sorted row by row.  With ``exact`` (exact values
    only) the grid holds the integer keys, on int64 while the top key fits
    and on Python ints otherwise; without it, the oscillations as floats:
    float64 differences of float values, and Python's exact or mixed
    oscillations each rounded to a float.  The brute force passes a
    function's value keys as the exact ``values`` (ints are their own keys,
    and hash at once) with ``types`` None, and its values with their types
    otherwise."""
    grid, _ = _oscillation_grid(values, exact)
    if not exact:
        try:
            grid = grid.astype(float, copy=False)
        except OverflowError:
            # name the first exact oscillation past the float range
            n = len(values)
            for i in range(n):
                as_float_array(grid[i * n:(i + 1) * n],
                               f"the oscillation from breakpoint {i + 1} to breakpoint {{}}")
            raise
    rows = np.sort(grid[_family_tree(len(values), max_count)[1]], axis=1)
    return np.ascontiguousarray(rows[:, ::-1])


# ---------------------------------------------------------------------------
# General variation
# ---------------------------------------------------------------------------


def _fraction_keys(f: PiecewiseLinearFunction, phi: Submeasure):
    """``(keys, D)``, the integer keys of f's values over D, when a hat of
    f's oscillations may be taken on their keys and divided by D once:
    every value a Fraction, and phi with a key hat (``_keyed``: exact, and
    not max-with-unit, whose hat is the oracle's) and a rearrangement base
    with ``sorted_hat_is_sup``.  None otherwise, where the values' own
    arithmetic runs."""
    rail = f._exact_keys
    if (rail is None or not all(rail[2]) or not phi._keyed()
            or not phi.rearrangement_base().sorted_hat_is_sup):
        return None
    return rail[:2]


def variation_bruteforce(f: PiecewiseLinearFunction, phi: Submeasure,
                         max_count: int = None):
    """Exact supremum of hat(oscillation vector) over ordered interval families.

    Endpoints are restricted to breakpoints (lossless for piecewise-linear f)
    and enumeration is exhaustive.  Each family's orderings are searched
    through ``phi.rearrangement_base()``: where its sorted hat is the
    supremum over orderings this is the exact general variation, and it is
    the oracle that the greedy and upper-bound estimators are judged
    against.  There only the inclusion-maximal families within the cap are
    evaluated (see the module docstring): the sorted hat is monotone under
    adding an interval, so the supremum is the same.  Elsewhere
    (max-with-unit, a shift over a permutation) every family is evaluated
    and the larger of the left-to-right and sorted hats is used: a lower
    bound, consistent with that variant's no-closed-form stance.  Rational
    inputs with a sorted-optimal base are scored on integers (see the module
    docstring), with the value and type of a loop over the families, the
    int 0 when none oscillates.  On all-Fraction values the value is the top
    score over den * D, one Fraction: the score is hat * den * D, and the
    winner's hat, a hat of nonzero Fractions, is a Fraction.  On other exact
    values the first family of top score is read back and its hat gives the
    value its type.
    A float f or a float phi with a sorted-optimal base reads the same
    matrix of maximal families with the oscillations as floats: the value is
    the largest entry of the last column of the base's ``truncation_norms``,
    each row summed left to right, where the zero padding adds nothing.
    Its float maximum is the full enumeration's too: with nonnegative
    weights and a fixed left-to-right order, rounding is monotone, so adding
    an interval never lowers a row's float hat.  A float maximum past the
    float range raises ``NonFiniteValue``, and so does an exact oscillation
    with no float, named by its breakpoints.
    """
    B = f.segments
    if B > BRUTE_FORCE_MAX_SEGMENTS:
        raise SizeRefusal(
            f"brute force limited to {BRUTE_FORCE_MAX_SEGMENTS} segments (got {B})")
    if max_count is None:
        max_count = B
    if not 1 <= max_count <= B:
        raise ValueError(f"max_count must lie in 1..{B}")
    if phi.horizon is not None:
        max_count = min(max_count, phi.horizon)
    psi = phi.rearrangement_base()
    if not psi.sorted_hat_is_sup:
        best = 0
        for ltr, srt in _oscillation_profiles(f.values, max_count,
                                              tuple(map(type, f.values))):
            a, b = psi.hat(ltr), psi.hat(srt)
            val = a if a > b else b
            if val > best:
                best = val
        return best
    exact = f.is_exact() and phi.is_exact()
    # the exact matrix is keyed by the value keys, which hash as ints
    M = (_sorted_profile_matrix(tuple(f._exact_keys[0]), max_count, None, True) if exact
         else _sorted_profile_matrix(f.values, max_count, tuple(map(type, f.values)), False))
    if not exact:
        # a float hat past the float range is refused, not returned as inf
        with np.errstate(over="ignore"):
            best = float(psi.truncation_norms(M)[:, -1].max())
        if not is_finite(best):
            raise NonFiniteValue(f"the variation overflows the float range ({best!r})")
        return best
    top = int(M[:, 0].max())
    if not top:
        return 0
    forms, den = psi.sorted_forms(max_count)
    dtype = int_dtype(top * max(map(max, forms)) * max_count)
    scores = (M.astype(dtype, copy=False) @ np.array(forms, dtype).T).max(axis=1)
    rail = _fraction_keys(f, phi)
    if rail:
        # the top score is hat * den * D (see the module docstring)
        return key_value(int(scores.max()), den * rail[1], True)
    # the winner's nonzero oscillations in a stable reverse sort, as
    # ``_profile`` sorts them: the exact values order like their keys
    y, n = f.values, len(f.values)
    row = _family_tree(n, max_count)[1][int(np.argmax(scores))]
    osc = [abs(y[j] - y[i]) for i, j in (divmod(int(c), n) for c in row)]
    return psi.hat(tuple(sorted([v for v in osc if v], reverse=True)))


def variation_greedy(f: PiecewiseLinearFunction, phi: Submeasure):
    """Hat-norm of the sorted monotone-run oscillations.

    A lower bound of the true variation; exact exactly when the k largest
    runs attain the k-interval modulus for every k (``runs_saturate_modulus``)
    and ``phi.sorted_hat_is_sup`` holds, since then
    greedy <= brute <= upper = greedy.  For other variants a warning flags
    that not even the lower-bound ordering argument is available.  A float
    hat past the float range raises ``NonFiniteValue``, as the brute force's
    does, and so does a run with no finite float, named by its breakpoints.
    All-Fraction values under an exact phi take the hat of the sorted run
    keys over D once (see the module docstring).
    """
    if not phi.sorted_hat_is_sup:
        warnings.warn(
            f"greedy variation has no ordering guarantee for {phi!r}; "
            "value is a heuristic", stacklevel=2)
    rail = _fraction_keys(f, phi)
    if rail:
        keys, D = rail
        num, den = phi._key_hat(sorted(_run_amplitudes(keys), reverse=True))
        return key_value(num, den * D, num > 0)
    runs = sorted(monotone_runs(f), reverse=True)
    try:
        value = hat_norm(phi, runs)
    except NonFiniteValue:
        # name the first run with no finite float, by its breakpoints
        spans = sorted(zip(monotone_runs(f), _run_breakpoints(f)), key=itemgetter(0),
                       reverse=True)
        for run, (i, j) in spans:
            name = f"the monotone run from breakpoint {i + 1} to breakpoint {j + 1}"
            if not is_finite(run):
                raise NonFiniteValue(f"{name} is not finite ({run!r})")
            as_float_array([run], name)
        raise
    if not is_finite(value):
        raise NonFiniteValue(f"the variation overflows the float range ({value!r})")
    return value


def variation_upper_bound(f: PiecewiseLinearFunction, phi: Submeasure):
    """Hat-norm of the modulus increment vector.

    The sorted oscillations of any family are prefix-dominated by the modulus
    increments (their k-prefix sums are at most v(k) by definition), so
    where ``phi.sorted_hat_is_sup`` holds (the sorted vector is the best
    ordering and the hat is prefix-monotone) this dominates the brute-force
    supremum.  For unit and counting it degenerates to v(1) and v(B), both
    exact.  A float modulus past the float range raises ``NonFiniteValue``
    naming the first increment that is not finite, and so does an exact
    increment with no float under float weights.  All-Fraction values under
    an exact phi take the hat of the increments of the merged modulus keys
    over D once (see the module docstring).
    """
    if not phi.sorted_hat_is_sup:
        warnings.warn(
            f"upper bound has no domination guarantee for {phi!r}", stacklevel=2)
    rail = _fraction_keys(f, phi)
    if rail:
        keys, D = rail
        v = _modulus_keys(_run_amplitudes(keys), f.segments)
        _check_modulus(v, 0)
        num, den = phi._key_hat([b - a for a, b in zip(v, v[1:])])
        return key_value(num, den * D, num > 0)
    d = modulus_of_variation(f).increments()
    for n, v in enumerate(d, 1):
        if not is_finite(v):
            raise NonFiniteValue(
                f"modulus increment {n} is not finite ({v!r}): the modulus overflows "
                "the float range")
    try:
        return hat_norm(phi, d)
    except NonFiniteValue:
        as_float_array(d, "modulus increment {}")
        raise


def runs_saturate_modulus(f: PiecewiseLinearFunction) -> bool:
    """Whether the k largest monotone runs attain v(k) for every k.

    On this class (which contains every alternating profile with
    nonincreasing amplitudes) greedy, brute force and the upper bound
    coincide for prefix-monotone hat-norms, since
    greedy <= brute <= upper = hat(sorted runs) = greedy.  Exact values of
    one type compare the prefix sums of the sorted run keys with the merged
    modulus keys; other values compare the values, floats within slack.
    """
    rail = f._exact_keys
    if rail is not None and _one_type(rail[2]):
        runs = _run_amplitudes(rail[0])
        v = _modulus_keys(runs, f.segments)
        _check_modulus(v, 0)
        return list(accumulate(sorted(runs, reverse=True))) == v[1:len(runs) + 1]
    v = modulus_of_variation(f)
    runs = sorted(monotone_runs(f), reverse=True)
    slack = rail_slack(f.is_exact(), v.values[-1])
    total = 0
    for k in range(1, len(v)):
        if k <= len(runs):
            total += runs[k - 1]
        if abs(v[k] - total) > slack:
            return False
    return True


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BVNormResult:
    value: object
    variation: object
    method: str       # "brute" or "greedy"
    exact: bool       # method provably attains the supremum for this input


def bv_norm_detail(f: PiecewiseLinearFunction, phi: Submeasure,
                   method: str = "auto") -> BVNormResult:
    if method == "auto":
        method = "brute" if f.segments <= BRUTE_FORCE_MAX_SEGMENTS else "greedy"
    if method == "brute":
        var = variation_bruteforce(f, phi)
        exact = phi.rearrangement_base().sorted_hat_is_sup
    elif method == "greedy":
        var = variation_greedy(f, phi)
        exact = phi.sorted_hat_is_sup and runs_saturate_modulus(f)
    else:
        raise ValueError(f"unknown method {method!r}")
    return BVNormResult(abs(f.values[0]) + var, var, method, exact)


def bv_norm(f: PiecewiseLinearFunction, phi: Submeasure, method: str = "auto"):
    """|f(0)| + variation of f under phi (brute force up to 12 segments)."""
    return bv_norm_detail(f, phi, method).value


def abv_norm(f: PiecewiseLinearFunction, weights):
    """|f(0)| + weighted variation: bv_norm under the weighted-sum submeasure."""
    if not isinstance(weights, WatermanWeights):
        weights = WatermanWeights(weights)
    return bv_norm(f, summable(weights))


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def pl_from_points(points) -> PiecewiseLinearFunction:
    pts = sorted(points, key=lambda p: p[0])
    return PiecewiseLinearFunction(tuple(p[0] for p in pts), tuple(p[1] for p in pts))


def tent() -> PiecewiseLinearFunction:
    return PiecewiseLinearFunction((0, Fraction(1, 2), 1), (0, 1, 0))


def pl_scale(f: PiecewiseLinearFunction, c) -> PiecewiseLinearFunction:
    return PiecewiseLinearFunction(f.breakpoints, tuple(c * v for v in f.values))


def pl_shift(f: PiecewiseLinearFunction, c) -> PiecewiseLinearFunction:
    return PiecewiseLinearFunction(f.breakpoints, tuple(v + c for v in f.values))


def pl_add(f: PiecewiseLinearFunction, g: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    return PiecewiseLinearFunction(tuple(grid), tuple(f(t) + g(t) for t in grid))
