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
is float64, whose differences are Python's bits.  Otherwise (exact values
mixed with floats, or exact values scored as floats) it holds the objects
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
still scored, summed left to right.

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
hat * den * D for the key scale D, and the variation is the top score over
den * D (the int 0 when nothing oscillates), with the type the per-family
loop returns.  When the values are read as Fractions it is one Fraction:
every oscillation is then a Fraction, and a hat of nonzero Fractions is a
Fraction.  On int values the base's ``Submeasure._key_fraction`` types it
from the row of the first top score, as that loop's ``hat`` would.  The
product runs on the dtype ``_util.int_dtype`` chooses for its bound, max key
times max form entry times width.

The greedy variation and the upper bound score under
``phi.rearrangement_base()``, as the brute force does, so a permutation
scores under its base.  They finish on the same keys when the values are
read as Fractions and the base states its hat on keys
(``Submeasure._key_hat``): the key hat scores the sorted run keys, or the
increments of the merged modulus keys, as one numerator and denominator,
in time linear in their number, and one Fraction is built from them over D
(the int 0 when nothing oscillates).  This is exact because a hat-norm, a
supremum of linear functionals sum mu_i |x_i|, is positively homogeneous:
hat(D x) = D hat(x).  ``runs_saturate_modulus`` compares the sorted run
keys with the increments of the merged keys.  A base that lacks
``sorted_hat_is_sup``, a base with no key hat (max-with-unit, whose hat is
the oracle's) and a float phi keep the values' own arithmetic, and so do
int values, where a hat's type depends on the weights its entries meet.

The modulus and the sorted runs are computed once per function and cached
on it, each on first use and as tuples, so that no caller can change them:
on exact values the merged keys (checked once), their increments and the
sorted run keys; on every rail the typed modulus vector
(``PiecewiseLinearFunction._modulus``, merged or the DP's), its increments
and the sorted runs.  Every estimator reads these, so a function merges
once, or runs the DP once, however many estimators and submeasures it
meets, and ``modulus_of_variation(f, n)`` is a slice of the full vector.

One function has one type.  Exact values that include a Fraction are read
as their Fraction twin (``PiecewiseLinearFunction._values``): every
functional reads the twin, so an int/Fraction mix gives what its twin
gives, in value and type.  All-int values stay ints, and floats and exact
values mixed with floats are read as they are.  A function reads the keys
of its values once, with one Fraction flag
(``PiecewiseLinearFunction._value_keys``, from ``_util.integer_keys``), and
every functional shares them; a result k / D gets its type from
``_util.key_value``.  The modulus of variation merges the smallest swing of
the monotone runs of the keys, in O(B log B), on exact values and on
all-float values as dyadic keys (``modulus_of_variation`` proves the rule).
Exact values mixed with floats, and float subclasses, run the DP
(``_modulus_dp``).

Provided functionals, for a submeasure phi with hat-norm ``hat``:

* ``jordan_variation``        -- classical total variation,
* ``modulus_of_variation``    -- v(n) = max total oscillation over n
                                 nonoverlapping intervals (merge of the
                                 smallest swing; the DP for exact values
                                 mixed with floats),
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
from operator import itemgetter, sub

import numpy as np

from ._util import (NonFiniteValue, SizeRefusal, all_exact, exact_div, int_dtype,
                    integer_keys, is_finite, key_value, rail_slack)
from .submeasure import Submeasure, WatermanWeights, as_float_array, hat_norm, summable

BRUTE_FORCE_MAX_SEGMENTS = 12


@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """Breakpoints 0 = t_0 < t_1 < ... < t_B = 1 and values y_0 .. y_B.

    One function, one type: the variation functionals read exact values that
    include a Fraction as their Fraction twin (``_values``), so an int/Fraction
    mix gives what its twin gives, in value and type.  All-int values (bools
    included) stay ints, and floats and mixes of exact values with floats are
    read as they are.  ``values``, ``f(t)`` and ``oscillation`` keep the type
    of each entry.
    """

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
        """``(keys, den, fraction)`` from ``_util.integer_keys`` of the
        values, read once per function: ``fraction`` says whether the exact
        values include a Fraction (their twin ``_values`` is then all
        Fractions), and is None when every value is a float; None for a mix
        of exact and float values."""
        rail = integer_keys(self.values)
        if rail is None or rail[2] is None:
            return rail
        keys, den, fractions = rail
        return keys, den, True in fractions

    @cached_property
    def _values(self) -> tuple:
        """The values every variation functional reads: the Fraction twin of
        exact values that include a Fraction (each int read as the Fraction
        of its value), and the values themselves otherwise."""
        rail = self._value_keys
        if rail is None or not rail[2]:
            return self.values
        return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)

    @property
    def _exact_keys(self):
        """``_value_keys`` when every value is exact, else None."""
        rail = self._value_keys
        return rail if rail is not None and rail[2] is not None else None

    # The modulus and the sorted runs, which every estimator reads, are
    # cached here, not in a module cache, which would keep every f alive.

    @cached_property
    def _modulus_keys(self):
        """v(0..B) on the keys of exact values (``_merged_keys``); None for
        other values."""
        rail = self._exact_keys
        return None if rail is None else _merged_keys(rail[0], self.segments)

    @cached_property
    def _increment_keys(self) -> tuple:
        """The increments of ``_modulus_keys``."""
        v = self._modulus_keys
        return tuple(map(sub, v[1:], v))

    @cached_property
    def _run_keys(self) -> tuple:
        """The run amplitudes of the value keys, sorted nonincreasing."""
        return tuple(sorted(_run_amplitudes(self._value_keys[0]), reverse=True))

    @cached_property
    def _modulus(self) -> "ModulusVector":
        """v(0..B), typed from ``_modulus_keys`` on exact values and from the
        merged dyadic keys of floats (which read this vector alone, so their
        keys are not kept), or by ``_modulus_dp`` without keys."""
        rail = self._value_keys
        if rail is None:
            return _modulus_dp(self)
        keys, den, fraction = rail
        v = _merged_keys(keys, self.segments) if fraction is None else self._modulus_keys
        return ModulusVector._typed(v, den, fraction)

    @cached_property
    def _increments(self) -> tuple:
        """The increments of ``_modulus`` in the values' own arithmetic."""
        return self._modulus.increments()

    @cached_property
    def _runs(self) -> tuple:
        """``monotone_runs`` sorted nonincreasing."""
        return tuple(sorted(monotone_runs(self), reverse=True))


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
    def _from_keys(cls, keys: list, den: int, fraction) -> "ModulusVector":
        """The vector keys / den for the integer keys over den of a
        function's values with the Fraction flag ``fraction`` of
        ``PiecewiseLinearFunction._value_keys``, checked exactly on the keys:
        v[n] is typed by ``_util.key_value``, or for floats (flag None)
        rounded once, an overflow giving a signed inf as IEEE addition does;
        and the int 0 where the key is 0 (v[0], or every entry of a constant
        function)."""
        _check_modulus(keys, 0)
        return cls._typed(keys, den, fraction)

    @classmethod
    def _typed(cls, keys, den: int, fraction) -> "ModulusVector":
        """``_from_keys`` on keys that were checked already."""
        values = [0] * len(keys)
        if keys[-1]:
            # the entries from the first n with v(n) = v(n_max) are one number
            top = keys.index(keys[-1])
            values[1:top + 1] = [_key_number(k, den, fraction) for k in keys[1:top + 1]]
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

    Exact values are read as their value keys over D
    (``PiecewiseLinearFunction._exact_keys``): each run is the key
    difference across its span (``_spans``) over D, a Fraction when the
    function's values are read as Fractions.  Otherwise the segment
    differences are summed in Python, left to right.
    """
    rail = f._exact_keys
    if rail is not None:
        keys, den, fraction = rail
        return tuple(key_value(abs(keys[j] - keys[i]), den, fraction) for i, j in _spans(keys))
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

    Exact values sum their key differences once, over D, a Fraction when
    the function's values are read as Fractions.  Other values are summed as
    they are, left to right."""
    rail = f._exact_keys
    if rail is not None:
        keys, den, fraction = rail
        return key_value(sum(map(abs, map(sub, keys[1:], keys))), den, fraction)
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
    When the values have integer keys (``PiecewiseLinearFunction._value_keys``:
    exact values, or all floats), v comes from the monotone runs r_1..r_m of
    the keys (``_spans``), in O(B + m log m):

    * v(n) = T = r_1 + ... + r_m for n >= m;
    * while c >= 2 runs are left, of sum T, take the smallest run r_i, the
      first on a tie.  An end run is dropped: v(c - 1) = T - r_i.  An
      interior run is merged with its two neighbours into one run
      r_{i-1} - r_i + r_{i+1}: v(c - 1) = T - r_i and v(c - 2) = T - 2 r_i.

    The full vector v(0..B) is computed once per function and cached on it
    (``PiecewiseLinearFunction._modulus``); a smaller n_max reads a slice.
    The runs sit in a linked list, and a heap of (amplitude, position) skips
    its stale entries.  ``ModulusVector`` checks the keys exactly; an entry
    is its key mapped back (an int or a Fraction by ``_util.key_value``, or
    a float rounded once) and the int 0 where the key is 0, the types the DP
    gives on the values the functionals read.  Ints mixed with Fractions
    are read as their Fraction twin (``PiecewiseLinearFunction._values``), so
    a hand-written CSV with ``0,0`` on its first line and a ``p/q`` value
    elsewhere (the golden reports' ``tent.csv``) is merged and gets
    Fractions.  Exact values mixed with floats, and float subclasses, have
    no keys and run ``_modulus_dp``.

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
    v = f._modulus
    return v if n_max == B else ModulusVector._checked(v.values[:n_max + 1])


def _key_number(k: int, den: int, fraction):
    """k / den as ``ModulusVector._from_keys`` types it."""
    if fraction is not None:
        return key_value(k, den, fraction)
    try:
        return k / den
    except OverflowError:
        return math.inf if k > 0 else -math.inf


def _merged_keys(keys, B: int) -> tuple:
    """v(0..B) from integer value keys, by ``_merge_smallest_swing``, checked
    once by ``_check_modulus``."""
    v = _merge_smallest_swing(_run_amplitudes(keys))
    v += v[-1:] * (B + 1 - len(v))
    _check_modulus(v, 0)
    return tuple(v)


def _run_amplitudes(keys) -> list:
    """The amplitude of each monotone run of integer keys, in order."""
    return [abs(keys[j] - keys[i]) for i, j in _spans(keys)]


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
    """Exact modulus vector by dynamic programming over breakpoint indices,
    in O(B * n_max): the reference for ``modulus_of_variation``, and its
    path for values with no integer keys (exact mixed with float, a float
    subclass).

    State per breakpoint: best total with j complete intervals (A), and best
    total with j complete intervals plus one open interval maximizing a later
    upward (U) or downward (D) close.  Intervals may share endpoints, so an
    interval may open at the index where the previous one closed.

    The states are sums of the values the functionals read
    (``PiecewiseLinearFunction._values``) in their own arithmetic, so A[0],
    and any entry never raised, stay the int 0.
    """
    B = f.segments
    if n_max is None:
        n_max = B
    if not 0 <= n_max <= B:
        raise ValueError(f"n_max must lie in 0..{B}")
    ys = f._values
    size = n_max + 1
    A = [0] * size
    # at the first breakpoint every interval opens and none closes
    U = [0 - ys[0]] * size
    D = [0 + ys[0]] * size
    for yi in ys[1:]:
        for j in range(size):
            if j:
                close = U[j - 1] + yi
                if close > A[j]:
                    A[j] = close
                close = D[j - 1] - yi
                if close > A[j]:
                    A[j] = close
            a = A[j]
            open_ = a - yi
            if open_ > U[j]:
                U[j] = open_
            open_ = a + yi
            if open_ > D[j]:
                D[j] = open_
    return ModulusVector(tuple(A))


def modulus_by_enumeration(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Brute-force modulus: exhaustive over breakpoint interval families.

    Every family of ``_index_families(B + 1, n_max)`` is scored, level by
    level of ``_family_tree``: the totals of the families of k intervals are
    their parents' totals plus the keys of their last intervals, one numpy
    gather and addition per level, so each family is summed left to right
    as a loop over it would.  The keys are the grid of ``_oscillation_grid``
    on the values' own rail: integer keys on the exact rail (int64 while a
    sum of n_max of them fits, Python ints otherwise), from the function's
    value keys (``_value_keys``), checked and typed as the merge types them
    (``ModulusVector._from_keys``): a Fraction when the values are read as
    Fractions, an int otherwise, and the int 0 where no family oscillates;
    float64 when every value is a float; and Python's own oscillation
    objects otherwise (exact and float mixed), whose sums then have the
    values and types of Python arithmetic.  Nothing is pruned, and nothing
    but the value keys is shared with the DP, which this function checks.
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
    total = np.zeros(1, grid.dtype)
    levels = _family_tree(B + 1, n_max)[0] if n_max > 0 else ()
    # float sums overflow to inf without a word, as Python's do
    with np.errstate(over="ignore"):
        for k, (parent, cell) in enumerate(levels, 1):
            total = total[parent] + grid[cell]
            top = total.item(int(np.argmax(total)))
            if top > 0:
                best[k] = top
    for k in range(1, n_max + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    if rail is None:
        return ModulusVector(tuple(best))
    return ModulusVector._from_keys(best, rail[1], rail[2])


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
    the values and keeps equal ones (an int and a float, say) in family
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


def _on_keys(f: PiecewiseLinearFunction, psi: Submeasure) -> bool:
    """Whether a hat under psi of f's oscillations may be taken on their
    integer keys over D and divided by D once (``_key_score``): the values
    read as Fractions, and psi with a key hat (``_keyed``: exact, and not
    max-with-unit, whose hat is the oracle's) and ``sorted_hat_is_sup``.
    Otherwise the values' own arithmetic runs."""
    rail = f._exact_keys
    return rail is not None and rail[2] and psi._keyed() and psi.sorted_hat_is_sup


def _key_score(f: PiecewiseLinearFunction, phi: Submeasure, psi: Submeasure, keys):
    """hat(keys) / D under ``psi = phi.rearrangement_base()`` for a
    nonincreasing vector of f's keys, as one number (the int 0 when nothing
    oscillates)."""
    _check_horizon(phi, psi, len(keys))
    num, den = psi._key_hat(keys)
    return key_value(num, den * f._value_keys[1], num > 0)


def _check_horizon(phi: Submeasure, psi: Submeasure, n: int) -> None:
    """phi's own length check of n entries where they are scored on another
    variant, its rearrangement base psi (a permutation ranges over 1..N)."""
    if psi is not phi:
        phi._check_length(n)


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
    int 0 when none oscillates: the value is the top score over den * D,
    for the score is hat * den * D.  It is one Fraction when the values are
    read as Fractions (a hat of nonzero Fractions is a Fraction), and on
    int values it is typed by the base's ``_key_fraction`` on the keys of
    the first row of top score, as its hat would type it.
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
    y = f._values
    if not psi.sorted_hat_is_sup:
        best = 0
        for ltr, srt in _oscillation_profiles(y, max_count, tuple(map(type, y))):
            a, b = psi.hat(ltr), psi.hat(srt)
            val = a if a > b else b
            if val > best:
                best = val
        return best
    exact = f.is_exact() and phi.is_exact()
    # the exact matrix is keyed by the value keys, which hash as ints
    M = (_sorted_profile_matrix(tuple(f._exact_keys[0]), max_count, None, True) if exact
         else _sorted_profile_matrix(y, max_count, tuple(map(type, y)), False))
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
    # the top score is hat * den * D (see the module docstring)
    _, D, fraction = f._exact_keys
    if fraction:
        return key_value(int(scores.max()), den * D, True)
    at = int(np.argmax(scores))
    return key_value(int(scores[at]), den * D,
                     psi._key_fraction(M[at].tolist(), [False] * max_count))


def variation_greedy(f: PiecewiseLinearFunction, phi: Submeasure):
    """Hat-norm of the sorted monotone-run oscillations.

    Scored under ``phi.rearrangement_base()``, as the brute force scores, so
    a permutation scores its runs under its base.  A lower bound of the true
    variation; exact exactly when the k largest runs attain the k-interval
    modulus for every k (``runs_saturate_modulus``) and the base's
    ``sorted_hat_is_sup`` holds, since then greedy <= brute <= upper =
    greedy.  For other variants a warning flags that not even the
    lower-bound ordering argument is available.  A float hat past the float
    range raises ``NonFiniteValue``, as the brute force's does, and so does a
    run with no finite float, named by its breakpoints.  All-Fraction values
    under an exact phi take the hat of the sorted run keys over D once (see
    the module docstring).
    """
    psi = phi.rearrangement_base()
    if not psi.sorted_hat_is_sup:
        warnings.warn(
            f"greedy variation has no ordering guarantee for {phi!r}; "
            "value is a heuristic", stacklevel=2)
    if _on_keys(f, psi):
        return _key_score(f, phi, psi, f._run_keys)
    runs = f._runs
    _check_horizon(phi, psi, len(runs))
    try:
        value = hat_norm(psi, runs)
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

    Scored under ``phi.rearrangement_base()``, as the brute force scores.
    The sorted oscillations of any family are prefix-dominated by the modulus
    increments (their k-prefix sums are at most v(k) by definition), so
    where the base's ``sorted_hat_is_sup`` holds (the sorted vector is the
    best ordering and the hat is prefix-monotone) this dominates the
    brute-force supremum.  For unit and counting it degenerates to v(1) and
    v(B), both exact.  A float modulus past the float range raises
    ``NonFiniteValue`` naming the first increment that is not finite, and so
    does an exact increment with no float under float weights.  All-Fraction
    values under an exact phi take the hat of the increments of the merged
    modulus keys over D once (see the module docstring).
    """
    psi = phi.rearrangement_base()
    if not psi.sorted_hat_is_sup:
        warnings.warn(
            f"upper bound has no domination guarantee for {phi!r}", stacklevel=2)
    if _on_keys(f, psi):
        return _key_score(f, phi, psi, f._increment_keys)
    d = f._increments
    for n, v in enumerate(d, 1):
        if not is_finite(v):
            raise NonFiniteValue(
                f"modulus increment {n} is not finite ({v!r}): the modulus overflows "
                "the float range")
    _check_horizon(phi, psi, len(d))
    try:
        return hat_norm(psi, d)
    except NonFiniteValue:
        as_float_array(d, "modulus increment {}")
        raise


def runs_saturate_modulus(f: PiecewiseLinearFunction) -> bool:
    """Whether the k largest monotone runs attain v(k) for every k.

    On this class (which contains every alternating profile with
    nonincreasing amplitudes) greedy, brute force and the upper bound
    coincide for prefix-monotone hat-norms, since
    greedy <= brute <= upper = hat(sorted runs) = greedy.  Exact values
    compare the sorted run keys with the increments of the merged modulus
    keys (v(k) is the total T for k past the run count); other values
    compare the prefix sums of the runs with the modulus, floats within
    slack.
    """
    if f._exact_keys is not None:
        runs = f._run_keys
        return runs == f._increment_keys[:len(runs)]
    v, runs = f._modulus, f._runs
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
    sup = phi.rearrangement_base().sorted_hat_is_sup
    if method == "brute":
        var = variation_bruteforce(f, phi)
        exact = sup
    elif method == "greedy":
        var = variation_greedy(f, phi)
        exact = sup and runs_saturate_modulus(f)
    else:
        raise ValueError(f"unknown method {method!r}")
    return BVNormResult(abs(f._values[0]) + var, var, method, exact)


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
