"""Non-pathological lower-semicontinuous submeasures on the positive integers.

A submeasure here is a set function phi on finite subsets of {1, 2, ...} with
phi(empty) = 0 that is monotone and subadditive and gives every singleton a
finite value.  Each concrete variant below carries a closed form both for the
set values phi(C) and for the induced sequence norm

    hat(phi)(x) = sup { sum_n mu({n}) |x_n| : mu a measure with mu <= phi },

the supremum running over all measures dominated by phi ("hat-norm").  The
closed forms are cross-checked against an independent linear-programming
oracle over the dominated-measure polytope (see :mod:`gbv.oracle`).

Supported variants
------------------
* weighted sums  phi_A(C) = sum_{n in C} a_n  for nonincreasing positive
  weights A (a measure; Waterman sequences when sum a_n diverges),
* density bounds phi_g(C) = sup_n |C ∩ {1..n}| / g(n) for nondecreasing
  unbounded g with n/g(n) nondecreasing,
* the unit submeasure (1 on every nonempty set),
* counting measure |C|,
* and three wrappers: permutation of the ground set, the dyadic shift
  phi(C) + sum_{n in C} 2^-n (which makes every singleton positive without
  changing which sets have finite or vanishing value), and pointwise max
  with the unit submeasure.

Finite horizons
---------------
Tabulated weights are only defined up to their table length; asking beyond it
raises :class:`~gbv._util.HorizonExceeded`.  Closed forms evaluate at any
index.  Divergence of sum a_n and unboundedness of g are not decidable from
any finite prefix, so they are carried as declared metadata, set
automatically for the shipped closed-form families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ._util import (
    HorizonExceeded,
    NonFiniteValue,
    SizeRefusal,
    all_exact,
    ceil_power,
    exact_div,
    is_finite,
    over_common_denominator,
    subset_sums,
)

EULER_GAMMA = 0.5772156649015328606065121

#: largest denominator b of a power density param a/b; each g(n) costs a
#: b-th root of n**a
POWER_DENOMINATOR_CAP = 1000

Number = Union[int, float, Fraction]

# Length above which tabulated float prefix sums switch to asymptotics.
_FLOAT_CACHE_LIMIT = 1 << 17


@dataclass(frozen=True)
class SequencePrefix:
    """The first ``length`` coordinates of a real sequence; tail is zero."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def length(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def as_entries(x) -> tuple:
    """Coerce a SequencePrefix / iterable / ndarray into a tuple of numbers."""
    if isinstance(x, SequencePrefix):
        return x.entries
    if isinstance(x, np.ndarray):
        return tuple(x.tolist())
    return tuple(x)


def finite_entries(x) -> tuple:
    """``as_entries(x)``, refusing a NaN or infinite entry with
    :class:`~gbv._util.NonFiniteValue`."""
    entries = as_entries(x)
    for i, v in enumerate(entries, start=1):
        if not is_finite(v):
            raise NonFiniteValue(f"entry {i} of the sequence is not finite ({v!r})")
    return entries


# ---------------------------------------------------------------------------
# Weight sequences
# ---------------------------------------------------------------------------


class WatermanWeights:
    """A nonincreasing positive weight prefix, optionally with a closed form.

    ``values`` holds the materialized prefix used by the order scanners.  The
    closed-form families (harmonic, power, ones, log-reciprocal) additionally
    support evaluation and partial sums at arbitrary indices, far beyond the
    materialized prefix; partial sums beyond an internal cache switch to
    Euler-Maclaurin asymptotics (float, relative error well under 1e-12 at
    the scales involved).

    ``declared_divergent`` records whether sum a_n is known to diverge.  That
    is a property of the infinite tail, undecidable from the prefix, so it is
    metadata: True for the shipped divergent families, user-supplied (default
    False) for tables.
    """

    __slots__ = ("values", "form", "param", "declared_divergent",
                 "_float_values", "_float_cumsum", "_tail_constant")

    def __init__(self, values, form: str = "table", param=None,
                 declared_divergent: Optional[bool] = None):
        values = tuple(values)
        if not values:
            raise ValueError("weight prefix must be nonempty")
        if not is_finite(values[0]):
            raise NonFiniteValue(f"weight at index 1 is not finite ({values[0]!r})")
        for i, v in enumerate(values):
            # NaN and -inf fail the first test, +inf after a finite weight the
            # second, so only a failing weight needs the finiteness check
            if not v > 0 or (i and v > values[i - 1]):
                if not is_finite(v):
                    raise NonFiniteValue(f"weight at index {i + 1} is not finite ({v!r})")
                if not v > 0:
                    raise ValueError(f"weights must be strictly positive (index {i + 1})")
                raise ValueError(f"weights must be nonincreasing (index {i + 1})")
        self.values = values
        self.form = form
        self.param = param
        if declared_divergent is None:
            q = self.exponent
            declared_divergent = form == "log" or (q is not None and q <= 1.0)
        self.declared_divergent = bool(declared_divergent)
        self._float_values = None
        self._float_cumsum = None
        self._tail_constant = None

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return (f"WatermanWeights(form={self.form!r}, n={len(self.values)}, "
                f"divergent={self.declared_divergent})")

    @property
    def horizon(self) -> Optional[int]:
        """Largest usable index: None (unbounded) for closed forms."""
        return len(self.values) if self.form == "table" else None

    @property
    def exponent(self) -> Optional[float]:
        """q with a_n = n^-q for the power-law forms (harmonic 1, ones 0,
        power p); None for log and table weights."""
        if self.form == "harmonic":
            return 1.0
        if self.form == "ones":
            return 0.0
        if self.form == "power":
            return float(self.param)
        return None

    def value_at(self, n: int):
        """Weight a_n, exact where the form allows, at any index for closed forms."""
        if n < 1:
            raise ValueError("indices are 1-based")
        if n <= len(self.values):
            return self.values[n - 1]
        if self.form == "harmonic":
            return Fraction(1, n)
        if self.form == "ones":
            return 1
        if self.form == "log":
            return Fraction(1, _ceil_log2(n + 1))
        if self.form == "power":
            return float(n) ** (-float(self.param))
        raise HorizonExceeded(f"tabulated weights end at {len(self.values)}, asked for {n}")

    def float_values(self, length: int) -> np.ndarray:
        """First ``length`` weights as a float array (cached)."""
        if self._float_values is None or len(self._float_values) < length:
            k = len(self.values)
            if length <= k:
                arr = np.array([float(v) for v in self.values[:length]], dtype=float)
            elif self.form == "harmonic":
                arr = 1.0 / np.arange(1, length + 1, dtype=float)
            elif self.form == "ones":
                arr = np.ones(length)
            elif self.form == "power":
                arr = np.arange(1, length + 1, dtype=float) ** (-float(self.param))
            elif self.form == "log":
                idx = np.arange(2, length + 2)
                arr = 1.0 / np.maximum(1, np.ceil(np.log2(idx)))
                arr[:k] = [float(v) for v in self.values[:k]]  # exact near the front
            else:
                raise HorizonExceeded(
                    f"tabulated weights end at {k}, asked for {length}")
            self._float_values = arr
        return self._float_values[:length]

    def partial_sum(self, n: int) -> float:
        """Float partial sum a_1 + ... + a_n at any index (asymptotic beyond cache)."""
        if n <= 0:
            return 0.0
        limit = min(_FLOAT_CACHE_LIMIT,
                    len(self.values) if self.form == "table" else _FLOAT_CACHE_LIMIT)
        if n <= limit:
            if self._float_cumsum is None or len(self._float_cumsum) < n:
                grow = min(limit, max(n, 1024))
                self._float_cumsum = np.cumsum(self.float_values(grow))
            return float(self._float_cumsum[n - 1])
        if self.form == "table":
            raise HorizonExceeded(f"tabulated weights end at {len(self.values)}, asked for {n}")
        if self.form == "log":
            return float(self._log_partial_exact(n))
        return self._asymptotic_sum(n)

    # -- internals --------------------------------------------------------

    def _log_partial_exact(self, n: int) -> Fraction:
        # a_i is constant 1/k on the dyadic block i in [2^(k-1), 2^k - 1].
        total = Fraction(0)
        k = 1
        while True:
            lo, hi = 1 << (k - 1), (1 << k) - 1
            if lo > n:
                break
            total += Fraction(min(hi, n) - lo + 1, k)
            k += 1
        return total

    def _asymptotic_sum(self, n: int) -> float:
        p = self.exponent
        if p is None:  # pragma: no cover - guarded by partial_sum
            raise HorizonExceeded(f"no asymptotic tail for form {self.form!r}")
        if p == 0.0:
            return float(n)
        if p == 1.0:
            return math.log(n) + EULER_GAMMA + 1.0 / (2 * n) - 1.0 / (12 * n * n)
        if self._tail_constant is None:
            k = _FLOAT_CACHE_LIMIT
            exactish = self.partial_sum(k)
            self._tail_constant = exactish - _power_main_terms(k, p)
        return self._tail_constant + _power_main_terms(n, p)


def _power_main_terms(n: int, p: float) -> float:
    n = float(n)
    return n ** (1.0 - p) / (1.0 - p) + 0.5 * n ** (-p) - p * n ** (-p - 1.0) / 12.0


def _ceil_log2(m: int) -> int:
    # smallest k with 2**k >= m, for m >= 1
    return (m - 1).bit_length() if m > 1 else 0


def harmonic_weights(length: int) -> WatermanWeights:
    return WatermanWeights([Fraction(1, i) for i in range(1, length + 1)], form="harmonic")


def ones_weights(length: int) -> WatermanWeights:
    return WatermanWeights([1] * length, form="ones")


def power_weights(p, length: int) -> WatermanWeights:
    p = float(p)
    if p <= 0:
        raise ValueError("power weights need p > 0")
    return WatermanWeights([float(i) ** (-p) for i in range(1, length + 1)],
                           form="power", param=p)


def log_weights(length: int) -> WatermanWeights:
    return WatermanWeights([Fraction(1, max(1, _ceil_log2(i + 1))) for i in range(1, length + 1)],
                           form="log")


def weights_from_values(values, declared_divergent: bool = False) -> WatermanWeights:
    return WatermanWeights(values, form="table", declared_divergent=declared_divergent)


# ---------------------------------------------------------------------------
# Density bounds
# ---------------------------------------------------------------------------


def _exact_int(v, what: str) -> int:
    """v as an int; a value that is not an integer (2.7, 5/2, inf) is
    refused with a ValueError that names ``what``, not truncated.  Strings
    go through int()."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (n != v and not isinstance(v, str)):
        raise ValueError(f"{what} is not an integer ({v!r})")
    return n


class DensityBound:
    """Integer-valued nondecreasing divisor g for density submeasures.

    Requirements on g: nondecreasing, unbounded, and n/g(n) nondecreasing.
    The last condition is checked exactly for explicit tables.  For the
    ceil-of-closed-form families (g(n) = ceil(n^p) with 0 < p <= 1, and
    g(n) = ceil(log2(n+1))) the underlying real-valued form satisfies it
    (it is concave with value 0 at 0), while the integer rounding may break
    it at isolated indices by less than one unit of resolution; those forms
    are accepted on the strength of the real form, and every consumer that
    needs the ratio condition verifies its conclusions by direct evaluation
    rather than assuming them.
    """

    __slots__ = ("form", "param", "table", "_g_cache", "_g")

    def __init__(self, form: str, param=None, table=None):
        if form == "table":
            for i, v in enumerate(table):
                if not is_finite(v):
                    raise NonFiniteValue(f"density table entry {i + 1} is not finite ({v!r})")
            table = tuple(_exact_int(v, f"density table entry {i + 1}")
                          for i, v in enumerate(table))
            if not table:
                raise ValueError("density table must be nonempty")
            if any(v < 1 for v in table):
                raise ValueError("density table values must be positive integers")
            for i in range(1, len(table)):
                if table[i] < table[i - 1]:
                    raise ValueError(f"density table must be nondecreasing (index {i + 1})")
            if table[-1] <= table[0]:
                raise ValueError("density table must grow: g(N) > g(1) is required "
                                 "as the finite stand-in for unboundedness")
            for n in range(2, len(table) + 1):
                if Fraction(n, table[n - 1]) < Fraction(n - 1, table[n - 2]):
                    raise ValueError(
                        f"n/g(n) must be nondecreasing; fails at n={n} "
                        f"(g({n-1})={table[n-2]}, g({n})={table[n-1]}); "
                        "use the power/log closed forms for rounded profiles")
        elif form == "power":
            param = param if isinstance(param, Fraction) else Fraction(str(param))
            if not (0 < param <= 1):
                raise ValueError("power density bounds need 0 < p <= 1")
            if param.denominator > POWER_DENOMINATOR_CAP:
                raise SizeRefusal(
                    f"power density param: the denominator b of a/b is past "
                    f"{POWER_DENOMINATOR_CAP}, and g(n) = ceil(n**(a/b)) takes a b-th root")
        elif form == "log":
            param = None
        else:
            raise ValueError(f"unknown density form {form!r}")
        self.form = form
        self.param = param
        self.table = table
        self._g_cache = None
        # g(n) for n >= 1, chosen once per form
        if form == "table":
            self._g = self._table_g
        elif form == "log":
            self._g = int.bit_length          # ceil(log2(n+1)), at least 1
        elif param == 1:
            self._g = _identity
        elif param == Fraction(1, 2):
            self._g = _ceil_sqrt
        else:
            self._g = functools.partial(ceil_power, p=param)

    def __repr__(self):
        if self.form == "table":
            return f"DensityBound(table, n={len(self.table)})"
        return f"DensityBound({self.form}, param={self.param})"

    @property
    def horizon(self) -> Optional[int]:
        return len(self.table) if self.form == "table" else None

    def g(self, n: int) -> int:
        if n < 1:
            raise ValueError("indices are 1-based")
        return self._g(n)

    def _table_g(self, n: int) -> int:
        if n > len(self.table):
            raise HorizonExceeded(f"density table ends at {len(self.table)}, asked for {n}")
        return self.table[n - 1]

    def g_array(self, length: int) -> np.ndarray:
        """g(1..length) as a float array (cached)."""
        if self._g_cache is None or len(self._g_cache) < length:
            if self.form == "table":
                if length > len(self.table):
                    raise HorizonExceeded(
                        f"density table ends at {len(self.table)}, asked for {length}")
                self._g_cache = np.array(self.table, dtype=float)
            elif self.form == "power" and self.param == Fraction(1, 2):
                n = np.arange(0, length)
                self._g_cache = np.floor(np.sqrt(n.astype(float))).astype(np.int64) + 1
                # float sqrt is exact enough below 2**52 except at perfect squares
                bad = (self._g_cache - 1) ** 2 > n
                self._g_cache[bad] -= 1
                self._g_cache = self._g_cache.astype(float)
            else:
                self._g_cache = np.array([self.g(i) for i in range(1, length + 1)], dtype=float)
        return self._g_cache[:length]

    def real_increment(self, n: int):
        """Increment of the underlying profile at n (g_real(n) - g_real(n-1))."""
        if self.form == "power":
            p = float(self.param)
            if p == 0.5:
                # stable form avoiding cancellation
                return 1.0 / (math.sqrt(n) + math.sqrt(n - 1))
            return float(n) ** p - float(n - 1) ** p
        if self.form == "log":
            return math.log2((n + 1) / n)
        if n == 1:
            return self.table[0]
        return self.table[n - 1] - self.table[n - 2]

    def increments_vanishing(self) -> bool:
        """Whether g(n) - g(n-1) is nonincreasing with limit 0.

        Decided analytically for the closed forms (power needs p < 1), and by
        an exact scan of the table otherwise (a finite table can only ever
        refute the property, so the scan requires the increments to be
        nonincreasing and to reach 0 inside the table).
        """
        if self.form == "power":
            return self.param < 1
        if self.form == "log":
            return True
        incs = [self.table[0]] + [self.table[i] - self.table[i - 1]
                                  for i in range(1, len(self.table))]
        return all(b <= a for a, b in zip(incs, incs[1:])) and incs[-1] == 0


def _identity(n: int) -> int:
    return n


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1


def identity_bound() -> DensityBound:
    return DensityBound("power", 1)


def sqrt_bound() -> DensityBound:
    return DensityBound("power", Fraction(1, 2))


def power_bound(p) -> DensityBound:
    return DensityBound("power", p)


def log_bound() -> DensityBound:
    return DensityBound("log")


def density_from_table(values) -> DensityBound:
    return DensityBound("table", table=values)


# ---------------------------------------------------------------------------
# Submeasures
# ---------------------------------------------------------------------------


class Submeasure:
    """Abstract base: monotone subadditive set function with hat-norm.

    A variant writes four methods: ``_set_value`` (phi of a checked set),
    ``hat`` (the exact hat-norm), and the float passes ``truncation_norms``
    and ``tail_norms``, which the base class supplies from ``hat`` where no
    O(n) pass exists.  Everything else derives from these: ``set_value``
    checks the set once, ``singleton(k)`` is ``set_value((k,))``, and
    ``set_table`` (phi on every subset of a support, the oracle's only view
    of phi) calls ``_set_value`` per subset.  A variant with exact set
    values overrides ``_set_table`` with an integer recursion that reads its
    set function alone, never ``hat``, so that the oracle stays an
    independent check of the closed forms.
    Besides these each variant states the ordering facts that the variation
    functionals rely on, so that no caller has to recognise variants:

    * ``sorted_hat_is_sup`` -- the hat of a nonincreasing vector is the
      largest hat over its rearrangements, and the hat is monotone under
      prefix-sum domination of nonincreasing vectors.  Where it holds,
      ``truncation_norms`` also takes a 2-D array and works along its rows,
      and the greedy variation is certified: a lower bound that is exact
      whenever the runs saturate the modulus.
    * ``rearrangement_base()`` -- a submeasure whose hat has the same
      supremum over rearrangements of any vector (a permutation wrapper
      ranges over the same orderings as its base).
    * ``sorted_forms(m)`` -- where ``sorted_hat_is_sup`` holds and the
      closed forms are exact: integer rows and a denominator whose largest
      row product is the hat of any nonincreasing vector, so that the exact
      brute force scores families on integers.
    * ``weights`` -- the Waterman weights of a weighted sum, and
      ``bound`` -- the divisor g of a density submeasure.  The order
      checkers read these; every other variant, wrappers included, keeps
      ``None``, so a wrapped base is not compared as its base.

    Every ``hat`` refuses a NaN or infinite entry with
    :class:`~gbv._util.NonFiniteValue`.
    """

    #: largest index the descriptor can evaluate (None = unbounded)
    horizon: Optional[int] = None

    sorted_hat_is_sup: bool = False
    weights: Optional[WatermanWeights] = None
    bound: Optional[DensityBound] = None

    def set_value(self, C) -> Number:
        """phi(C) for a finite set C of positive integers, given in any order
        and with repeats.  C is checked here, once, and then evaluated by the
        variant's ``_set_value``; a wrapper calls its base's ``_set_value``."""
        return self._set_value(self._check_indices(C))

    def _set_value(self, C) -> Number:
        """phi(C) for C a sorted list of distinct indices within the horizon."""
        raise NotImplementedError

    def set_table(self, support) -> tuple:
        """phi over every subset of a strictly increasing support, as
        ``(nums, den)``: integer numerators over one positive denominator,
        with nums[mask] / den = phi of the members of mask (bit j standing
        for support[j]), so nums[0] = 0.  The support is checked here, once,
        as ``set_value`` checks its set, and then tabulated by the variant's
        ``_set_table``."""
        C = self._check_indices(support)
        if C != list(support):
            raise ValueError("a table support must be strictly increasing")
        return self._set_table(C)

    def _set_table(self, support) -> tuple:
        """set_table on a checked support: ``_set_value`` once per subset,
        each value put over the common denominator.  A variant whose set
        values are exact overrides this with an integer recursion on the
        highest bit of the mask, whose member is the largest index."""
        values = [Fraction(0)]
        members = [()]
        for i in support:
            grown = [C + (i,) for C in members]
            values += [Fraction(self._set_value(C)) for C in grown]
            members += grown
        return over_common_denominator(values)

    def hat(self, x) -> Number:
        raise NotImplementedError

    def sorted_forms(self, m: int) -> tuple:
        """``(rows, den)``: integer rows of length m and a positive
        denominator with hat(x) = max_r rows[r] . x / den for every
        nonincreasing nonnegative exact x of length m (a shorter x read with
        trailing zeros)."""
        raise NotImplementedError

    def rearrangement_base(self) -> "Submeasure":
        return self

    def singleton(self, k: int) -> Number:
        return self.set_value((k,))

    def is_exact(self) -> bool:
        """Whether the closed forms stay in rational arithmetic for rational input."""
        return True

    def _check_indices(self, C):
        C = sorted(set(map(int, C)))
        if C and C[0] < 1:
            raise ValueError("set elements must be >= 1")
        if C and self.horizon is not None and C[-1] > self.horizon:
            raise HorizonExceeded(
                f"element {C[-1]} exceeds horizon {self.horizon} of {self!r}")
        return C

    def _check_length(self, n: int):
        if self.horizon is not None and n > self.horizon:
            raise HorizonExceeded(
                f"sequence length {n} exceeds horizon {self.horizon} of {self!r}")

    # Float fast paths used by certificate builders and the float brute force;
    # overridden per variant where an O(n) pass exists.  Results agree with
    # hat() within rounding.

    def truncation_norms(self, x) -> np.ndarray:
        """Array T with T[n-1] = hat of the first n coordinates of x.  The
        overrides work along the last axis, so a 2-D x gives one row of
        truncation norms per row of x."""
        entries = as_entries(x)
        return np.array([float(self.hat(entries[:n])) for n in range(1, len(entries) + 1)])

    def tail_norms(self, x) -> np.ndarray:
        """Array T with T[n-1] = hat of x with coordinates below n zeroed."""
        entries = as_entries(x)
        out = []
        for n in range(1, len(entries) + 1):
            out.append(float(self.hat((0,) * (n - 1) + entries[n - 1:])))
        return np.array(out)


class SummableSubmeasure(Submeasure):
    """phi_A(C) = sum of weights over C; the hat-norm is the weighted l1 sum."""

    # nonincreasing weights: the rearrangement inequality
    sorted_hat_is_sup = True

    def __init__(self, weights: WatermanWeights):
        self.weights = weights
        self._fraction_parts = None

    @property
    def horizon(self):
        return self.weights.horizon

    def __repr__(self):
        return f"Summable({self.weights!r})"

    def is_exact(self):
        return all_exact(self.weights.values)

    def _set_value(self, C):
        if self._fraction_parts is None:
            values = self.weights.values
            self._fraction_parts = (
                ([v.numerator for v in values], [v.denominator for v in values])
                if all(type(v) is Fraction for v in values) else ())
        if C and self._fraction_parts and C[-1] <= len(self.weights.values):
            # An all-Fraction table: one Fraction, from the numerators over
            # the common denominator of the set's weights.
            nums, dens = self._fraction_parts
            ds = [dens[i - 1] for i in C]
            den = math.lcm(*ds)
            return Fraction(sum(nums[i - 1] * (den // d) for i, d in zip(C, ds)), den)
        total = 0
        for i in C:
            total += self.weights.value_at(i)
        return total

    def _set_table(self, support):
        w = [self.weights.value_at(i) for i in support]
        if not all_exact(w):
            # a float sum rounds in the order _set_value adds it up
            return super()._set_table(support)
        nums, den = over_common_denominator(w)
        return subset_sums(nums), den

    def hat(self, x):
        entries = finite_entries(x)
        self._check_length(len(entries))
        total = 0
        for i, v in enumerate(entries, start=1):
            if v:
                total += self.weights.value_at(i) * abs(v)
        return total

    def sorted_forms(self, m):
        # the weights themselves, over their lcm
        nums, den = over_common_denominator([self.weights.value_at(i) for i in range(1, m + 1)])
        return [nums], den

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        w = self.weights.float_values(ax.shape[-1])
        return np.cumsum(w * ax, axis=-1)

    def tail_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        w = self.weights.float_values(len(ax))
        return np.cumsum((w * ax)[::-1])[::-1]


class DensitySubmeasure(Submeasure):
    """phi_g(C) = sup_n |C ∩ {1..n}| / g(n); hat() is sup_n (prefix sum)/g(n).

    For a finite set or finite sequence the supremum is attained at an index
    no larger than the maximum support point, because g is nondecreasing, so
    the closed forms below are exact finite maxima.

    A caution established by the oracle cross-check: the prefix-sum formula
    is the supremum of sum mu_i |x_i| over the uniform prefix measures
    mu = (1/g(n) on {1..n}) only, which is a *lower* bound for the supremum
    over all dominated measures.  The two agree on characteristic vectors
    for every g (any dominated mu has mu(C) <= phi(C), and the uniform
    prefix measure at the maximizing index attains phi(C)), and agree on
    sequences with nonincreasing absolute values for every shipped profile
    (all of which have g(1) = 1; property verified exhaustively by the test
    suite).  On non-monotone input with later coordinates dominating, the
    polytope supremum can be strictly larger, e.g. g(n) = n with
    x = (7/4, 0, 0, 5): prefix formula 7/4, true supremum 41/16 attained by
    mu = (3/4, 0, 0, 1/4).  Use :func:`gbv.oracle.hat_norm_oracle` when the
    literal dominated-measure value is required.
    """

    # sorting maximizes every prefix sum
    sorted_hat_is_sup = True

    def __init__(self, bound: DensityBound):
        self.bound = bound

    @property
    def horizon(self):
        return self.bound.horizon

    def __repr__(self):
        return f"Density({self.bound!r})"

    def _set_value(self, C):
        if not C:
            return 0
        # max of rank / g(n), compared by cross-multiplication
        g = self.bound.g
        num, den = 0, 1
        for rank, n in enumerate(C, start=1):
            gn = g(n)
            if rank * den > num * gn:
                num, den = rank, gn
        return Fraction(num, den)

    def _set_table(self, support):
        # the largest member of a mask has rank popcount(mask)
        gs = [self.bound.g(i) for i in support]
        den = math.lcm(*gs)
        nums, ranks = [0], [0]
        for gj in gs:
            q = den // gj
            nums += [s if s > (r + 1) * q else (r + 1) * q for s, r in zip(nums, ranks)]
            ranks += [r + 1 for r in ranks]
        return nums, den

    def hat(self, x):
        """max_n (|x_1| + ... + |x_n|)/g(n), or the int 0 when every entry is 0.

        On the exact rail (every entry an int or a Fraction) the prefix sums
        are integer numerators over D, the lcm of the entry denominators, the
        ratios are compared by cross-multiplication and one Fraction is built
        for the maximum.  Entries that include a float take the plain loop.
        """
        entries = finite_entries(x)
        self._check_length(len(entries))
        g = self.bound.g
        if all_exact(entries):
            D = math.lcm(*(v.denominator for v in entries))
            num, den = 0, 1
            prefix = 0
            for n, v in enumerate(entries, start=1):
                prefix += abs(v.numerator) * (D // v.denominator)
                gn = g(n)
                if prefix * den > num * gn:
                    num, den = prefix, gn
            return Fraction(num, D * den) if num else 0
        best = 0
        prefix = 0
        for n, v in enumerate(entries, start=1):
            prefix = prefix + abs(v)
            val = exact_div(prefix, g(n))
            if val > best:
                best = val
        return best

    def sorted_forms(self, m):
        # row n takes the prefix ratio (x_1 + ... + x_n) / g(n)
        gs = [self.bound.g(n) for n in range(1, m + 1)]
        den = math.lcm(*gs)
        return [[den // gn] * n + [0] * (m - n) for n, gn in enumerate(gs, start=1)], den

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        g = self.bound.g_array(ax.shape[-1])
        return np.maximum.accumulate(np.cumsum(ax, axis=-1) / g, axis=-1)

    def tail_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        n = len(ax)
        if n == 0:
            return np.empty(0)
        g = self.bound.g_array(n)
        prefix = np.cumsum(ax)
        out = np.empty(n)
        out[0] = (prefix / g).max()
        # tail at cut n: max_{m >= n} (prefix[m] - prefix[n-2]) / g[m]
        for cut in range(2, n + 1):
            out[cut - 1] = ((prefix[cut - 1:] - prefix[cut - 2]) / g[cut - 1:]).max()
        return out


class UnitSubmeasure(Submeasure):
    """1 on every nonempty set; the hat-norm is the sup norm."""

    sorted_hat_is_sup = True   # order-free

    def __repr__(self):
        return "Unit()"

    def _set_value(self, C):
        return 1 if C else 0

    def _set_table(self, support):
        return [0] + [1] * ((1 << len(support)) - 1), 1

    def hat(self, x):
        entries = finite_entries(x)
        return max((abs(v) for v in entries), default=0)

    def sorted_forms(self, m):
        return [[1] + [0] * (m - 1)], 1

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        return np.maximum.accumulate(ax, axis=-1)

    def tail_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        return np.maximum.accumulate(ax[::-1])[::-1]


class CountingSubmeasure(Submeasure):
    """phi(C) = |C|; the hat-norm is the l1 sum."""

    # order-free, and the all-ones weighted sum
    sorted_hat_is_sup = True

    def __repr__(self):
        return "Counting()"

    def _set_value(self, C):
        return len(C)

    def _set_table(self, support):
        return subset_sums([1] * len(support)), 1

    def hat(self, x):
        entries = finite_entries(x)
        total = 0
        for v in entries:
            total += abs(v)
        return total

    def sorted_forms(self, m):
        return [[1] * m], 1

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        return np.cumsum(ax, axis=-1)

    def tail_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        return np.cumsum(ax[::-1])[::-1]


class PermutedSubmeasure(Submeasure):
    """psi(C) = phi(pi[C]) for a bijection pi of {1..N}.

    The hat-norm satisfies psi-hat(x) = phi-hat(y) where y places x_i at
    position pi(i): a measure mu is dominated by psi exactly when its
    push-forward along pi is dominated by phi, and the push-forward leaves
    the weighted sum unchanged.
    """

    def __init__(self, base: Submeasure, perm: Sequence[int]):
        perm = tuple(_exact_int(p, f"permutation image {i + 1}") for i, p in enumerate(perm))
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a bijection of {1..N} given as the list of images")
        if base.horizon is not None and n > base.horizon:
            raise HorizonExceeded("permutation range exceeds the base horizon")
        self.base = base
        self.perm = perm

    @property
    def horizon(self):
        return len(self.perm)

    def __repr__(self):
        return f"Permuted({self.base!r}, n={len(self.perm)})"

    def is_exact(self):
        return self.base.is_exact()

    def _set_value(self, C):
        # distinct images within the base horizon, checked at construction
        return self.base._set_value(sorted([self.perm[i - 1] for i in C]))

    def _set_table(self, support):
        # the base's table over the sorted images; bit j of a mask here is
        # the bit of support[j]'s image there
        images = [self.perm[i - 1] for i in support]
        order = sorted(images)
        nums, den = self.base._set_table(order)
        remap = subset_sums([1 << order.index(p) for p in images])
        return [nums[m] for m in remap], den

    def hat(self, x):
        entries = finite_entries(x)
        self._check_length(len(entries))
        if not entries:
            return 0
        top = max(self.perm[i] for i in range(len(entries)))
        y = [0] * top
        for i, v in enumerate(entries):
            y[self.perm[i] - 1] = v
        return self.base.hat(y)

    def rearrangement_base(self):
        return self.base.rearrangement_base()


class ShiftedSubmeasure(Submeasure):
    """phi'(C) = phi(C) + sum_{n in C} 2^-n.

    The added part is a measure, so the hat-norm splits:
    hat(phi')(x) = hat(phi)(x) + sum_n 2^-n |x_n|.  (Any mu' <= phi + sigma
    decomposes as the positive part of mu' - sigma, which is <= phi, plus a
    part <= sigma.)  Every singleton becomes positive, while set values move
    by less than 1, so finiteness and tail-vanishing of phi are unchanged.
    """

    def __init__(self, base: Submeasure):
        self.base = base

    @property
    def horizon(self):
        return self.base.horizon

    # The dyadic weights are nonincreasing, so the base decides the fact.
    # Not its rearrangement base: the dyadic part is not order-free.
    @property
    def sorted_hat_is_sup(self):
        return self.base.sorted_hat_is_sup

    def __repr__(self):
        return f"Shifted({self.base!r})"

    def is_exact(self):
        return self.base.is_exact()

    def _set_value(self, C):
        # sum of 2^-i over C as one Fraction over 2^max(C)
        top = C[-1] if C else 0
        extra = Fraction(sum(1 << (top - i) for i in C), 1 << top)
        return self.base._set_value(C) + extra

    def _set_table(self, support):
        if not self.base.is_exact():
            # a float base value absorbs the dyadic part with rounding
            return super()._set_table(support)
        nums, den = self.base._set_table(support)
        top = support[-1] if support else 0
        D = math.lcm(den, 1 << top)
        a, b = D // den, D >> top
        dyadic = subset_sums([1 << (top - i) for i in support])
        return [n * a + d * b for n, d in zip(nums, dyadic)], D

    def hat(self, x):
        # base.hat refuses a non-finite entry, under the same index
        entries = as_entries(x)
        self._check_length(len(entries))
        extra = 0
        for i, v in enumerate(entries, start=1):
            if v:
                extra += Fraction(1, 2 ** i) * abs(v)
        return self.base.hat(entries) + extra

    def sorted_forms(self, m):
        # each base row plus the dyadic weights 2^-i, over lcm(den, 2^m)
        rows, den = self.base.sorted_forms(m)
        D = math.lcm(den, 1 << m)
        a, b = D // den, D >> m
        dyadic = [b << (m - i) for i in range(1, m + 1)]
        return [[r * a + d for r, d in zip(row, dyadic)] for row in rows], D

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        dyadic = np.ldexp(1.0, -np.arange(1, ax.shape[-1] + 1))
        return self.base.truncation_norms(x) + np.cumsum(dyadic * ax, axis=-1)

    def tail_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        dyadic = np.ldexp(1.0, -np.arange(1, len(ax) + 1))
        return self.base.tail_norms(x) + np.cumsum((dyadic * ax)[::-1])[::-1]


class MaxWithUnitSubmeasure(Submeasure):
    """psi(C) = max(phi(C), 1) on nonempty sets.

    Set values differ from the base by at most 1 and every singleton is at
    least 1.  No closed form is claimed for the hat-norm of a pointwise max
    (it need not equal the max of the hat-norms), so hat() defers to the
    exact polytope oracle and inherits its size cap.
    """

    def __init__(self, base: Submeasure):
        self.base = base

    @property
    def horizon(self):
        return self.base.horizon

    def __repr__(self):
        return f"MaxWithUnit({self.base!r})"

    def is_exact(self):
        return self.base.is_exact()

    def _set_value(self, C):
        if not C:
            return 0
        base = self.base._set_value(C)
        return base if base > 1 else 1

    def _set_table(self, support):
        nums, den = self.base._set_table(support)
        return [0] + [n if n > den else den for n in nums[1:]], den

    def hat(self, x):
        from .oracle import hat_norm_oracle  # local import: oracle depends on this module

        return hat_norm_oracle(self, x)


def as_float_array(x) -> np.ndarray:
    """x as a float array.  An exact entry beyond the float range raises
    :class:`~gbv._util.NonFiniteValue` naming the first such entry."""
    try:
        entries = x if isinstance(x, np.ndarray) else np.array(
            [float(v) for v in as_entries(x)], dtype=float)
        return entries.astype(float, copy=False)
    except OverflowError as exc:
        for i, v in enumerate(as_entries(x), start=1):
            try:
                float(v)
            except OverflowError:
                raise NonFiniteValue(
                    f"entry {i} of the sequence overflows a float ({exc})") from exc
        raise


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def eval_set(phi: Submeasure, C) -> Number:
    """Value phi(C) of the submeasure on a finite set of positive integers."""
    return phi.set_value(C)


def hat_norm(phi: Submeasure, x) -> Number:
    """Closed-form hat-norm of a finite sequence prefix (tail read as zero).

    Exact (int/Fraction) whenever the descriptor and the entries are exact;
    float otherwise.  For the max-with-unit wrapper no closed form exists and
    the call is routed through the polytope oracle, whose size cap applies.
    A NaN or infinite entry raises :class:`~gbv._util.NonFiniteValue`.
    """
    return phi.hat(x)


def tail_norm(phi: Submeasure, x, n: int) -> Number:
    """Hat-norm of x with coordinates 1..n-1 zeroed; nonincreasing in n.
    A NaN or infinite entry raises :class:`~gbv._util.NonFiniteValue`, also
    one the cut zeroes: the head is checked here, the rest by ``phi.hat``."""
    entries = as_entries(x)
    finite_entries(entries[:max(n - 1, 0)])
    if not 1 <= n <= len(entries):
        raise ValueError(f"cut index {n} out of range 1..{len(entries)}")
    return phi.hat((0,) * (n - 1) + entries[n - 1:])


def shift_normalize(phi: Submeasure) -> ShiftedSubmeasure:
    """Add the dyadic measure so that every singleton has positive value."""
    return ShiftedSubmeasure(phi)


def max_with_unit(phi: Submeasure) -> MaxWithUnitSubmeasure:
    """Pointwise max with the unit submeasure; singletons no longer vanish."""
    return MaxWithUnitSubmeasure(phi)


def summable(weights) -> SummableSubmeasure:
    if not isinstance(weights, WatermanWeights):
        weights = WatermanWeights(weights)
    return SummableSubmeasure(weights)


def density(bound) -> DensitySubmeasure:
    if not isinstance(bound, DensityBound):
        bound = DensityBound("table", table=bound)
    return DensitySubmeasure(bound)


def unit() -> UnitSubmeasure:
    return UnitSubmeasure()


def counting() -> CountingSubmeasure:
    return CountingSubmeasure()


def permuted(phi: Submeasure, perm) -> PermutedSubmeasure:
    return PermutedSubmeasure(phi, perm)
