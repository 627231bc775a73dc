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
oscillations are computed once per function (``_oscillation_table``), with
integer keys over a common denominator on the exact rail.  The enumeration
of the modulus walks the family tree carrying each family's running total,
one addition per family, and still visits every family; the left-to-right
profiles read the table and sort by its keys.

Where the sorted hat is the supremum, the brute force reads one matrix on
both rails (``_sorted_profile_matrix``): a row per maximal family, its
oscillations from the table sorted nonincreasing and zero-padded to
max_count, as integer keys on the exact rail and as floats otherwise.  The
float rail takes the last column of the base's ``truncation_norms`` of it.
The exact rail scores on integers.  A variant with ``sorted_hat_is_sup``
states its hat on nonincreasing vectors as integer linear forms
(``Submeasure.sorted_forms``: hat(x) = max_r rows[r] . x / den), so all the
rows of the key matrix M are scored with one product, max over the rows of
M @ rows^T.  The scores are hat * den * D for the key scale D, so the first
maximal score names the family the per-family loop would return; ``hat`` runs
once, on that family's profile, and gives the value its type.  The product
runs on int64 while max key * max form entry * width < 2^62, on Python ints
otherwise.  The modulus DP likewise runs on the integer numerators over D,
with one flag per state recording whether a Fraction value took part, which
is when Fraction arithmetic would have returned a Fraction.

Provided functionals, for a submeasure phi with hat-norm ``hat``:

* ``jordan_variation``        -- classical total variation,
* ``modulus_of_variation``    -- v(n) = max total oscillation over n
                                 nonoverlapping intervals (exact DP),
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

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np

from ._util import (INT64_BOUND, NonFiniteValue, SizeRefusal, all_exact, exact_div,
                    is_finite, over_common_denominator, rail_slack)
from .submeasure import Submeasure, WatermanWeights, hat_norm, summable

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
        return all_exact(self.breakpoints) and all_exact(self.values)

    def __call__(self, t):
        bp, y = self.breakpoints, self.values
        if t < 0 or t > 1:
            raise ValueError(f"argument {t} outside [0, 1]")
        i = bisect_right(bp, t) - 1
        if i >= len(bp) - 1:
            return y[-1]
        frac = exact_div(t - bp[i], bp[i + 1] - bp[i])
        return y[i] + (y[i + 1] - y[i]) * frac


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
        if not v or v[0] != 0:
            raise ValueError("modulus vector must start at v[0] = 0")
        if all_exact(v):
            v, _ = over_common_denominator(v)
            slack = 0
        else:
            slack = rail_slack(False, max(v))
        for n in range(1, len(v)):
            if v[n] < v[n - 1] - slack:
                raise ValueError(f"modulus must be nondecreasing (n={n})")
        for n in range(2, len(v)):
            if v[n] - v[n - 1] > v[n - 1] - v[n - 2] + slack:
                raise ValueError(f"modulus increments must be nonincreasing (n={n})")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def increments(self) -> tuple:
        return tuple(self.values[n] - self.values[n - 1] for n in range(1, len(self.values)))


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
    """
    runs = []
    current = 0
    sign = 0
    for i in range(f.segments):
        d = f.values[i + 1] - f.values[i]
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


def jordan_variation(f: PiecewiseLinearFunction):
    """Classical total variation: the sum of the monotone-run oscillations."""
    total = 0
    for i in range(f.segments):
        total += abs(f.values[i + 1] - f.values[i])
    return total


# ---------------------------------------------------------------------------
# Modulus of variation
# ---------------------------------------------------------------------------


def modulus_of_variation(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Exact modulus vector by dynamic programming over breakpoint indices.

    State per breakpoint: best total with j complete intervals (A), and best
    total with j complete intervals plus one open interval maximizing a later
    upward (U) or downward (D) close.  Intervals may share endpoints, so an
    interval may open at the index where the previous one closed.

    On the exact rail the states are integer numerators over D, the lcm of
    the value denominators, each flagged when a Fraction value took part in
    it.  An entry comes back as Fraction(a, D) when flagged and as the int
    a // D otherwise, the types Fraction arithmetic gives: A[0], and any
    entry never raised, stay the int 0.  Float values run as they are.
    """
    B = f.segments
    if n_max is None:
        n_max = B
    if not 0 <= n_max <= B:
        raise ValueError(f"n_max must lie in 0..{B}")
    y = f.values
    if all_exact(y):
        ys, scale = over_common_denominator(y)
        yf = [isinstance(v, Fraction) for v in y]
    else:
        scale, ys, yf = None, y, [False] * len(y)
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
        A = [Fraction(a, scale) if af else a // scale for a, af in zip(A, Af)]
    return ModulusVector(tuple(A))


def modulus_by_enumeration(f: PiecewiseLinearFunction, n_max: int = None) -> ModulusVector:
    """Brute-force modulus: exhaustive over breakpoint interval families.

    Every family of ``_index_families(B + 1, n_max)`` is visited, in its
    order, by a depth-first walk that carries the family's running total, so
    a family costs one addition to its parent's total and one comparison.
    The oscillations come from ``_oscillation_table``: integer keys on the
    exact rail, mapped back to an int or a Fraction at the end, and the float
    oscillations themselves otherwise, summed left to right as a loop over
    the family would.  The first family to reach a size's maximum names it,
    so an entry is a Fraction exactly when that family has a Fraction
    oscillation.  Nothing is pruned and nothing is shared with the DP, which
    this function checks.
    """
    B = f.segments
    if B > BRUTE_FORCE_MAX_SEGMENTS:
        raise SizeRefusal(f"enumeration limited to {BRUTE_FORCE_MAX_SEGMENTS} segments")
    if n_max is None:
        n_max = B
    osc, keys, scale = _oscillation_table(f.values)
    is_frac = [[isinstance(v, Fraction) for v in row] for row in osc]
    best = [0] * (n_max + 1)
    won_frac = [False] * (n_max + 1)

    def walk(start, total, frac, k):
        # the families extending one parent by an interval (i, j), i >= start
        top, top_frac = best[k], won_frac[k]
        deeper = k < n_max
        for i in range(start, B):
            key_row, frac_row = keys[i], is_frac[i]
            for j in range(i + 1, B + 1):
                t = total + key_row[j]
                if t > top:
                    top, top_frac = t, frac or frac_row[j]
                if deeper and j < B:
                    walk(j, t, frac or frac_row[j], k + 1)
        best[k], won_frac[k] = top, top_frac

    if n_max:
        walk(0, 0, False, 1)
    if scale is not None:
        best = [Fraction(t, scale) if frac else t // scale for t, frac in zip(best, won_frac)]
    for k in range(1, n_max + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return ModulusVector(tuple(best))


def _oscillation_table(values: tuple) -> tuple:
    """Each oscillation |y_j - y_i|, i < j, computed once, with a comparison key.

    Returns ``(osc, keys, scale)`` as rows indexed ``[i][j]``, None for
    j <= i.  ``osc`` holds the objects the subtraction makes (int, Fraction
    or float).  On the exact rail (every value an int or a Fraction) ``scale``
    is the lcm D of the value denominators and ``keys[i][j]`` the int
    numerator of the oscillation over D, so key sums and comparisons are
    integer operations in the same order; otherwise ``scale`` is None and the
    keys are the oscillations themselves."""
    n = len(values)
    osc = [[None] * (i + 1) + [abs(values[j] - values[i]) for j in range(i + 1, n)]
           for i in range(n)]
    if not all_exact(values):
        return osc, osc, None
    nums, scale = over_common_denominator(values)
    keys = [[None] * (i + 1) + [abs(nums[j] - nums[i]) for j in range(i + 1, n)]
            for i in range(n)]
    return osc, keys, scale


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
    run from the first point to the last without a gap."""
    last = num_points - 1
    return tuple(fam for fam in _index_families(num_points, max_count)
                 if len(fam) == max_count
                 or (fam[0][0] == 0 and fam[-1][1] == last
                     and all(a[1] == b[0] for a, b in zip(fam, fam[1:]))))


@lru_cache(maxsize=64)
def _oscillation_profiles(values: tuple, max_count: int, types: tuple) -> tuple:
    """Per family of ``_index_families``: its ``_profile``, the families
    with no nonzero oscillation left out (a family with zeros removed is
    also enumerated, so this loses nothing).  Only the left-to-right search
    reads these.

    ``types`` (the type of each value) is part of the key because equal
    numbers hash alike across int, Fraction and float: without it a function
    would be handed the profiles of a twin whose values have other types."""
    osc, keys, _ = _oscillation_table(values)
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
    rows included, nonincreasing.  With ``exact`` (exact values only) the
    rows hold the integer keys of ``_oscillation_table``, on int64 while
    they fit and on Python ints otherwise; without it, the oscillations as
    floats."""
    osc, keys, _ = _oscillation_table(values)
    rows = [sorted([keys[i][j] if exact else float(osc[i][j]) for i, j in fam], reverse=True)
            for fam in _maximal_index_families(len(values), max_count)]
    rows = [row + [0] * (max_count - len(row)) for row in rows]
    if not exact:
        return np.array(rows, float)
    return np.array(rows, np.int64 if max(row[0] for row in rows) < INT64_BOUND else object)


# ---------------------------------------------------------------------------
# General variation
# ---------------------------------------------------------------------------


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
    docstring), with the value and type of a loop over the families: the
    first family of top score names it, the int 0 when none oscillates.
    A float f or a float phi with a sorted-optimal base reads the same
    matrix of maximal families with the oscillations as floats: the value is
    the largest entry of the last column of the base's ``truncation_norms``,
    each row summed left to right, where the zero padding adds nothing.
    Its float maximum is the full enumeration's too: with nonnegative
    weights and a fixed left-to-right order, rounding is monotone, so adding
    an interval never lowers a row's float hat.
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
    types = tuple(map(type, f.values))
    if not psi.sorted_hat_is_sup:
        best = 0
        for ltr, srt in _oscillation_profiles(f.values, max_count, types):
            a, b = psi.hat(ltr), psi.hat(srt)
            val = a if a > b else b
            if val > best:
                best = val
        return best
    exact = f.is_exact() and phi.is_exact()
    M = _sorted_profile_matrix(f.values, max_count, types, exact)
    if not exact:
        return float(psi.truncation_norms(M)[:, -1].max())
    top = int(M[:, 0].max())
    if not top:
        return 0
    forms, _ = psi.sorted_forms(max_count)
    dtype = np.int64 if top * max(map(max, forms)) * max_count < INT64_BOUND else object
    scores = (M.astype(dtype, copy=False) @ np.array(forms, dtype).T).max(axis=1)
    fam = _maximal_index_families(len(f.values), max_count)[int(np.argmax(scores))]
    osc, keys, _ = _oscillation_table(f.values)
    return psi.hat(_profile(osc, keys, fam)[1])


def variation_greedy(f: PiecewiseLinearFunction, phi: Submeasure):
    """Hat-norm of the sorted monotone-run oscillations.

    A lower bound of the true variation; exact exactly when the k largest
    runs attain the k-interval modulus for every k (``runs_saturate_modulus``)
    and ``phi.sorted_hat_is_sup`` holds, since then
    greedy <= brute <= upper = greedy.  For other variants a warning flags
    that not even the lower-bound ordering argument is available.
    """
    if not phi.sorted_hat_is_sup:
        warnings.warn(
            f"greedy variation has no ordering guarantee for {phi!r}; "
            "value is a heuristic", stacklevel=2)
    runs = sorted(monotone_runs(f), reverse=True)
    return hat_norm(phi, runs)


def variation_upper_bound(f: PiecewiseLinearFunction, phi: Submeasure):
    """Hat-norm of the modulus increment vector.

    The sorted oscillations of any family are prefix-dominated by the modulus
    increments (their k-prefix sums are at most v(k) by definition), so
    where ``phi.sorted_hat_is_sup`` holds (the sorted vector is the best
    ordering and the hat is prefix-monotone) this dominates the brute-force
    supremum.  For unit and counting it degenerates to v(1) and v(B), both
    exact.
    """
    if not phi.sorted_hat_is_sup:
        warnings.warn(
            f"upper bound has no domination guarantee for {phi!r}", stacklevel=2)
    d = modulus_of_variation(f).increments()
    return hat_norm(phi, d)


def runs_saturate_modulus(f: PiecewiseLinearFunction) -> bool:
    """Whether the k largest monotone runs attain v(k) for every k.

    On this class (which contains every alternating profile with
    nonincreasing amplitudes) greedy, brute force and the upper bound
    coincide for prefix-monotone hat-norms, since
    greedy <= brute <= upper = hat(sorted runs) = greedy.
    """
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
