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
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import Optional, Sequence, Union

import numpy as np

from ._util import (
    MAX_HORIZON,
    SHORT_SCAN,
    HorizonExceeded,
    NonFiniteValue,
    SizeRefusal,
    all_exact,
    all_of_type,
    ceil_power,
    exact_div,
    exact_keys,
    first_max_ratio,
    int_dtype,
    integer_keys,
    is_finite,
    key_value,
    subset_sums,
)

EULER_GAMMA = 0.5772156649015328606065121

#: largest denominator b of a power density param a/b; each g(n) costs a
#: b-th root of n**a
POWER_DENOMINATOR_CAP = 1000

Number = Union[int, float, Fraction]

_EXACT_TYPE_SET = {int, Fraction}
_FLOAT_TYPE_SET = {float}

# Length above which tabulated float prefix sums switch to asymptotics.
_FLOAT_CACHE_LIMIT = 1 << 17

# weight forms whose every weight is exact and follows from its index alone
_EXACT_FORMS = ("harmonic", "ones", "log")


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
    :class:`~gbv._util.NonFiniteValue`.  Entries that are all ints and
    Fractions (subclasses excluded) are finite and pass at once, and all
    floats pass after one ``math.isfinite`` pass."""
    entries = as_entries(x)
    types = set(map(type, entries))
    if types <= _EXACT_TYPE_SET or (types == _FLOAT_TYPE_SET
                                    and all(map(math.isfinite, entries))):
        return entries
    for i, v in enumerate(entries, start=1):
        if not is_finite(v):
            raise NonFiniteValue(f"entry {i} of the sequence is not finite ({v!r})")
    return entries


# ---------------------------------------------------------------------------
# Weight sequences
# ---------------------------------------------------------------------------


class WatermanWeights:
    """A nonincreasing positive weight sequence of a given length,
    optionally with a closed form.

    ``len(w)`` is the length the order scanners read; ``values`` holds those
    weights as a tuple.  The closed-form families (harmonic, power, ones,
    log-reciprocal) also support evaluation and partial sums at arbitrary
    indices, far beyond that length (``horizon`` is None), so for them the
    length is a scan length, not a limit; partial sums beyond an internal
    cache switch to Euler-Maclaurin asymptotics (float, relative error well
    under 1e-12 at the scales involved).

    The exact closed forms (harmonic 1/n, ones, log 1/ceil(log2(n+1))) are
    built by ``closed_form`` from their length alone: their weights are
    positive and nonincreasing by construction, ``value_at`` and
    ``float_values`` evaluate the formula, and ``values`` is built only when
    an exact path reads it.  Whether all weights are exact is then a fact of
    the form (``is_exact``), so the float rail never builds the prefix.
    Power weights and tables hold their prefix from the start.

    ``declared_divergent`` records whether sum a_n is known to diverge.  That
    is a property of the infinite tail, undecidable from the prefix, so it is
    metadata: True for the shipped divergent families, user-supplied (default
    False) for tables.
    """

    __slots__ = ("_values", "_length", "form", "param", "declared_divergent",
                 "_float_values", "_float_cumsum", "_tail_constant", "_exact")

    def __init__(self, values, form: str = "table", param=None,
                 declared_divergent: Optional[bool] = None):
        values = tuple(values)
        if not values:
            raise ValueError("weight prefix must be nonempty")
        if not (all_of_type(values, Fraction) and _positive_nonincreasing(values)):
            self._check_weights(values)
        self._setup(values, len(values), form, param, declared_divergent)

    @staticmethod
    def _check_weights(values):
        """Refuse the first weight that is not finite, not positive or above
        the one before it, naming its index."""
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

    @classmethod
    def closed_form(cls, form: str, length: int) -> "WatermanWeights":
        """The exact closed-form weights ``form`` (harmonic, ones or log) of
        the given length, with no prefix built."""
        length = operator.index(length)
        if length < 1:
            raise ValueError("weight prefix must be nonempty")
        w = cls.__new__(cls)
        w._setup(None, length, form, None, None)
        return w

    def _setup(self, values, length, form, param, declared_divergent):
        self._values = values
        self._length = length
        self.form = form
        self.param = param
        if declared_divergent is None:
            q = self.exponent
            declared_divergent = form == "log" or (q is not None and q <= 1.0)
        self.declared_divergent = bool(declared_divergent)
        self._float_values = None
        self._float_cumsum = None
        self._tail_constant = None
        self._exact = None

    @property
    def values(self) -> tuple:
        """The first ``len(self)`` weights (built on first read for the
        exact closed forms)."""
        if self._values is None:
            self._values = tuple(map(self._formula, range(1, self._length + 1)))
        return self._values

    def __len__(self):
        return self._length

    def __repr__(self):
        return (f"WatermanWeights(form={self.form!r}, n={self._length}, "
                f"divergent={self.declared_divergent})")

    @property
    def horizon(self) -> Optional[int]:
        """Largest usable index: None (unbounded) for closed forms."""
        return self._length if self.form == "table" else None

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

    def is_exact(self) -> bool:
        """Whether every weight is an int or a Fraction: always for the
        exact closed forms, else read off the prefix once."""
        if self._exact is None:
            self._exact = self.form in _EXACT_FORMS or all_exact(self._values)
        return self._exact

    def value_at(self, n: int):
        """Weight a_n, exact where the form allows, at any index for closed
        forms.  The exact closed forms use the formula; tables and power
        weights read their prefix inside the length."""
        if n < 1:
            raise ValueError("indices are 1-based")
        if n <= self._length and self.form not in _EXACT_FORMS:
            return self._values[n - 1]
        return self._formula(n)

    def _formula(self, n: int):
        if self.form == "harmonic":
            return Fraction(1, n)
        if self.form == "ones":
            return 1
        if self.form == "log":
            return Fraction(1, n.bit_length())       # 1/ceil(log2(n+1))
        if self.form == "power":
            return float(n) ** (-float(self.param))
        raise HorizonExceeded(f"tabulated weights end at {self._length}, asked for {n}")

    def float_values(self, length: int) -> np.ndarray:
        """First ``length`` weights as a float array (cached).  The exact
        closed forms are one numpy expression, each entry the correctly
        rounded float of the exact weight; a prefix converts entry by entry."""
        if self._float_values is None or len(self._float_values) < length:
            k = self._length
            if self.form == "harmonic":
                arr = 1.0 / np.arange(1, length + 1, dtype=float)
            elif self.form == "ones":
                arr = np.ones(length)
            elif self.form == "log":
                # the frexp exponent of n is its bit length, exact while n < 2**53
                arr = 1.0 / np.frexp(np.arange(1, length + 1, dtype=float))[1]
            elif length <= k:
                arr = np.array([float(v) for v in self._values[:length]], dtype=float)
            elif self.form == "power":
                arr = np.arange(1, length + 1, dtype=float) ** (-float(self.param))
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
                    self._length if self.form == "table" else _FLOAT_CACHE_LIMIT)
        if n <= limit:
            if self._float_cumsum is None or len(self._float_cumsum) < n:
                grow = min(limit, max(n, 1024))
                self._float_cumsum = np.cumsum(self.float_values(grow))
            return float(self._float_cumsum[n - 1])
        if self.form == "table":
            raise HorizonExceeded(f"tabulated weights end at {self._length}, asked for {n}")
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


def _positive_nonincreasing(values) -> bool:
    """Whether Fractions v_1, ..., v_n are positive and nonincreasing, read
    on their integer parts: p_{i+1} q_i <= p_i q_{i+1} for every i and then
    p_n > 0, with v_i = p_i/q_i and q_i > 0."""
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    return nums[-1] > 0 and not any(map(operator.gt, map(operator.mul, nums[1:], dens),
                                       map(operator.mul, nums, dens[1:])))


def _add_over_lcm(a: int, b: int, c: int, d: int) -> tuple:
    """a/b + c/d as a numerator over lcm(b, d), unreduced."""
    g = math.gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


def _power_main_terms(n: int, p: float) -> float:
    n = float(n)
    return n ** (1.0 - p) / (1.0 - p) + 0.5 * n ** (-p) - p * n ** (-p - 1.0) / 12.0


def harmonic_weights(length: int) -> WatermanWeights:
    return WatermanWeights.closed_form("harmonic", length)


def ones_weights(length: int) -> WatermanWeights:
    return WatermanWeights.closed_form("ones", length)


def power_weights(p, length: int) -> WatermanWeights:
    p = float(p)
    if p <= 0:
        raise ValueError("power weights need p > 0")
    return WatermanWeights([float(i) ** (-p) for i in range(1, length + 1)],
                           form="power", param=p)


def log_weights(length: int) -> WatermanWeights:
    return WatermanWeights.closed_form("log", length)


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

    __slots__ = ("form", "param", "table", "_g", "_g_ints", "_g_floats")

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
        self._g_ints = self._g_floats = None
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

    def g_ints(self, length: int) -> np.ndarray:
        """g(1..length) as an exact integer array (cached, read-only).

        int64 for every closed form, and for a table as ``int_dtype`` of its
        last (largest) entry chooses: an object array of Python ints for a
        large one.  Identity is an ``arange``.  The square root is the
        float root of m = n - 1, lowered by one where its square passes m:
        while m < 2**53 is a float, the correctly rounded root is never
        below the integer root, and rounds up to it only next to a square.
        Log is the bit length of n, read off the exponent of ``np.frexp``
        (exact while n < 2**53 is a float).  Other powers take the ceiling
        of the float root and run ``ceil_power`` only where that root lies
        within a relative 1e-9 of an integer.  A closed form's cache grows
        to at least twice its old length.
        """
        if self._g_ints is None or len(self._g_ints) < length:
            self._g_ints = self._g_profile(length, self._g_ints)
        return self._g_ints[:length]

    def g_array(self, length: int) -> np.ndarray:
        """g(1..length) as a float array: the float view of ``g_ints``,
        cached on its own, so that the float rail keeps no integer copy."""
        if self._g_floats is None or len(self._g_floats) < length:
            ints = self._g_ints
            if ints is None or len(ints) < length:
                ints = self._g_profile(length, self._g_floats)
            self._g_floats = ints.astype(float)
        return self._g_floats[:length]

    def g_at(self, C):
        """g at the indices of C (a sorted list or a step-1 range of indices
        >= 1), in O(|C|) up to a constant: a slice or a gather of the cached
        ``g_ints`` for ``SHORT_SCAN`` or more indices up to the horizon of a
        table, or up to max(``MAX_HORIZON``, |C|) for a closed form, when C
        is dense (max C <= 8 |C|) or the cache already reaches max C; else a
        list of g per index, which past a table names the first missing
        index.  A sparse set thus never grows the cache to its top member."""
        if len(C) >= SHORT_SCAN and C[-1] <= (self.horizon or max(MAX_HORIZON, len(C))):
            top = C[-1]
            if top <= 8 * len(C) or (self._g_ints is not None and len(self._g_ints) >= top):
                gs = self.g_ints(top)
                return gs[C.start - 1:C.stop - 1] if type(C) is range else gs[np.array(C) - 1]
        return list(map(self._g, C))

    def _g_profile(self, length: int, cache) -> np.ndarray:
        """g(1..n) for the caches: the whole table, or a closed form up to
        n = max(length, 2 * len(cache))."""
        if self.form == "table":
            if length > len(self.table):
                raise HorizonExceeded(
                    f"density table ends at {len(self.table)}, asked for {length}")
            top = self.table[-1]
            g = np.array(self.table, dtype=int_dtype(top))
        else:
            size = max(length, 2 * len(cache) if cache is not None else 0)
            if self.param == 1:
                g = np.arange(1, size + 1, dtype=np.int64)
            elif self.form == "log":
                g = np.frexp(np.arange(1, size + 1, dtype=float))[1].astype(np.int64)
            elif self.param == Fraction(1, 2):
                # g(n) = isqrt(n - 1) + 1
                m = np.arange(size, dtype=np.int64)
                r = np.sqrt(m.astype(float)).astype(np.int64)
                r[r * r > m] -= 1
                g = r + 1
            else:
                # the float root is within a relative 1e-13 of n**(a/b), so
                # its ceiling is exact unless it lies that close to an integer
                r = np.arange(1, size + 1, dtype=float) ** float(self.param)
                g = np.ceil(r).astype(np.int64)
                near = np.flatnonzero(np.abs(r - np.rint(r)) <= 1e-9 * r)
                g[near] = [ceil_power(n, self.param) for n in (near + 1).tolist()]
        g.flags.writeable = False
        return g

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

    A variant writes its set function ``_set_value``, its hat-norm, and the
    float passes ``truncation_norms`` and ``tail_norms``, which the base
    class supplies from ``hat`` where no O(n) pass exists.  Everything else
    derives from these: ``set_value`` checks the set once, ``singleton(k)``
    is ``set_value((k,))``, and ``set_table`` (phi on every subset of a
    support, the oracle's only view of phi) calls ``_set_value`` per subset.
    A variant with exact set values overrides ``_set_table`` with an integer
    recursion that reads its set function alone, never the hat, so that the
    oracle stays an independent check of the closed forms.

    The hat-norm is stated once on keys where the closed form is exact
    (``_keyed()``), and once for any other entries (``_loop_hat``, the
    per-entry loop that floats take).  ``hat`` reads the entries' types
    once: exact entries become integer keys over their scale D
    (``_util.exact_keys``), their absolute values go through ``_key_hat``
    and the value is typed by ``_key_fraction`` as the per-entry loop
    would type it; other entries are checked finite and run the loop.
    Besides these each variant states the facts that the variation
    functionals rely on, so that no caller has to recognise variants:

    * ``_key_hat(keys)`` -- the hat of nonnegative integer keys as an
      unreduced ``(num, den)``, in time linear in their number, after the
      same length check as ``hat``.  The greedy variation and the upper
      bound score run and increment keys with it.  The base class has none,
      and max-with-unit, whose hat is the oracle's, keeps none.
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
      brute force scores families on integers; cached per instance.
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
        """phi(C) for C a sorted list (or a step-1 range) of distinct indices
        within the horizon."""
        raise NotImplementedError

    def set_table(self, support) -> tuple:
        """phi over every subset of a strictly increasing support, as
        ``(nums, den)``: integer numerators over one positive denominator,
        with nums[mask] / den = phi of the members of mask (bit j standing
        for support[j]), so nums[0] = 0.  The support is checked here, once,
        as ``set_value`` checks its set, and then tabulated by the variant's
        ``_set_table``."""
        C = list(self._check_indices(support))
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
        return integer_keys(values)[:2]

    def hat(self, x) -> Number:
        """The hat-norm of x: for exact entries under a keyed variant,
        ``_key_hat`` of the absolute keys over D, typed by ``_key_fraction``;
        for any other entries, once they are checked finite and within the
        horizon, ``_loop_hat``."""
        entries = as_entries(x)
        rail = exact_keys(entries) if self._keyed() else None
        if rail is None:
            entries = finite_entries(entries)
            self._check_length(len(entries))
            return self._loop_hat(entries)
        keys, D, fractions = rail
        keys = list(map(abs, keys))
        num, den = self._key_hat(keys)
        return key_value(num, den * D, self._key_fraction(keys, fractions))

    def _keyed(self) -> bool:
        """Whether this variant states its hat on keys (``_key_hat``)."""
        return False

    def _key_fraction(self, keys: list, fractions) -> bool:
        """Whether the per-entry loop gives a Fraction on entries with these
        absolute keys and the Fraction flags of ``_util.integer_keys``."""
        raise NotImplementedError

    def _loop_hat(self, entries: tuple) -> Number:
        """The hat of finite entries within the horizon, one entry at a
        time, in their own arithmetic."""
        raise NotImplementedError

    def sorted_forms(self, m: int) -> tuple:
        """``(rows, den)``: integer rows of length m and a positive
        denominator with hat(x) = max_r rows[r] . x / den for every
        nonincreasing nonnegative exact x of length m (a shorter x read with
        trailing zeros).  Built once per instance and m by
        ``_sorted_forms`` (a module cache would keep every phi alive), so
        every caller reads the same lists and must not change them."""
        forms = self.__dict__.setdefault("_forms", {})
        if m not in forms:
            forms[m] = self._sorted_forms(m)
        return forms[m]

    def _sorted_forms(self, m: int) -> tuple:
        raise NotImplementedError

    def rearrangement_base(self) -> "Submeasure":
        return self

    def singleton(self, k: int) -> Number:
        return self.set_value((k,))

    def is_exact(self) -> bool:
        """Whether the closed forms stay in rational arithmetic for rational input."""
        return True

    def _check_indices(self, C):
        # a step-1 range is sorted and distinct already
        if not (type(C) is range and C.step == 1):
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
        self._parts = ([], [], [])
        self._all_fractions = False

    @property
    def horizon(self):
        return self.weights.horizon

    def __repr__(self):
        return f"Summable({self.weights!r})"

    def is_exact(self):
        return self.weights.is_exact()

    def _weight_parts(self, m: int) -> tuple:
        """``(nums, dens, fractions)`` of the first m exact weights or more,
        each weight's ``as_integer_ratio`` and whether it is a Fraction: the
        one cache of them, read by ``_set_value`` and ``_key_hat``.  It grows
        to twice its length at least (a table: at most to its end)."""
        nums, dens, fractions = self._parts
        if len(nums) < m:
            top = max(m, 2 * len(nums))
            if self.horizon is not None:
                top = min(top, self.horizon)
            ws = [self.weights.value_at(i) for i in range(len(nums) + 1, top + 1)]
            for w in ws:
                p, q = w.as_integer_ratio()
                nums.append(p)
                dens.append(q)
            fractions += map(isinstance, ws, repeat(Fraction))
            self._all_fractions = all(fractions)
        return self._parts

    def _set_value(self, C):
        if C and self.is_exact() and C[-1] <= len(self.weights):
            nums, dens, _ = self._weight_parts(C[-1])
            if self._all_fractions:
                # Fraction weights: one Fraction, from the numerators over
                # the common denominator of the set's weights.
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
        nums, den, _ = integer_keys(w)
        return subset_sums(nums), den

    def _keyed(self):
        return self.weights.is_exact()

    def _key_hat(self, keys):
        # sum_i keys[i] * a_i for a_i = p_i / q_i, by binary splitting:
        # neighbours are added over the lcm of their denominators, level by
        # level, so no lcm of all m weights is formed term by term, and a
        # sum is never over more than the lcm of its own weights' q_i
        self._check_length(len(keys))
        nums, dens, _ = self._weight_parts(len(keys))
        terms = [(k * p, q) for k, p, q in zip(keys, nums, dens) if k]
        while len(terms) > 1:
            odd = terms[-1:] if len(terms) & 1 else []
            terms = [(a + c, b) if b == d else _add_over_lcm(a, b, c, d)
                     for (a, b), (c, d) in zip(terms[::2], terms[1::2])] + odd
        return terms[0] if terms else (0, 1)

    def _key_fraction(self, keys, fractions):
        # a nonzero term is a Fraction when its entry or its weight is one
        return any(compress(fractions, keys)) or any(
            compress(self._weight_parts(len(keys))[2], keys))

    def _loop_hat(self, entries):
        total = 0
        try:
            for i, v in enumerate(entries, start=1):
                if v:
                    total += self.weights.value_at(i) * abs(v)
        except OverflowError as exc:
            # an exact entry or sum past the float range, met by a float weight
            as_float_array(entries)
            raise NonFiniteValue(f"the hat-norm overflows the float range ({exc})") from exc
        return total

    def _sorted_forms(self, m):
        # the weights themselves, over their lcm
        nums, den, _ = integer_keys([self.weights.value_at(i) for i in range(1, m + 1)])
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
        # the first maximum of rank / g(n) over the members n of C
        gs = self.bound.g_at(C)
        i = first_max_ratio(range(1, len(C) + 1), gs)
        return Fraction(i + 1, int(gs[i]))

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

    def _keyed(self):
        return True

    def _key_hat(self, keys):
        # the exact first-max kernel finds the largest prefix ratio
        self._check_length(len(keys))
        prefix = list(accumulate(keys))
        if not prefix or not prefix[-1]:
            return 0, 1
        gs = self.bound.g_at(range(1, len(prefix) + 1))
        i = first_max_ratio(prefix, gs)
        return prefix[i], int(gs[i])

    def _key_fraction(self, keys, fractions):
        # every nonzero prefix ratio is a Fraction
        return any(keys)

    def _loop_hat(self, entries):
        g = self.bound.g
        best = 0
        prefix = 0
        for n, v in enumerate(entries, start=1):
            prefix = prefix + abs(v)
            val = exact_div(prefix, g(n))
            if val > best:
                best = val
        return best

    def _sorted_forms(self, m):
        # row n takes the prefix ratio (x_1 + ... + x_n) / g(n)
        gs = [self.bound.g(n) for n in range(1, m + 1)]
        den = math.lcm(*gs)
        return [[den // gn] * n + [0] * (m - n) for n, gn in enumerate(gs, start=1)], den

    def truncation_norms(self, x):
        ax = np.abs(np.asarray(as_float_array(x)))
        g = self.bound.g_array(ax.shape[-1])
        return np.maximum.accumulate(np.cumsum(ax, axis=-1) / g, axis=-1)

    def tail_norms(self, x):
        """Tail at cut c: max over m >= c of (P[m] - t) / g(m), with P the
        prefix sums of |x| and t = P[c - 1] (t = 0 at c = 1), in O(n log n).

        The ratio is the slope from (0, t) to the point (g(m), P[m]), so the
        maximum sits on the upper convex hull of the points m >= c; t <= P[m]
        puts (0, t) left of and below them, so along the hull the slope
        rises to the tangent point and then falls.  The cuts are scanned
        from n down to 1: each adds its point on the left of the hull (g is
        nondecreasing; a point whose g ties the leftmost one has no larger P
        and is never above it), popping the points that fall on or under the
        new chord, and a binary search finds the tangent.  Each entry is the
        ratio above at the point found, so it has the bits of the
        quadratic scan over every m except where rounding hides which side
        of the tangent a hull point lies.  A prefix past the float range
        makes every cut inf (NaN where t is inf too), as that scan would.
        """
        ax = np.abs(np.asarray(as_float_array(x)))
        n = len(ax)
        g = self.bound.g_array(n)
        prefix = np.cumsum(ax)
        if n == 0 or not math.isfinite(prefix[-1]):
            return (prefix[-1:] - np.concatenate(([0.0], prefix[:-1]))) / g[-1:]
        P, G = prefix.tolist(), g.tolist()
        out = [0.0] * n
        # the upper hull from right to left, and the slope of each edge
        # (hs[k - 1] joins hull points k - 1 and k)
        hp, hg, hs = [], [], []
        for c in range(n - 1, -1, -1):
            p, q = P[c], G[c]
            if not hg or hg[-1] != q:
                while hs and (hp[-1] - p) / (hg[-1] - q) <= hs[-1]:
                    hp.pop()
                    hg.pop()
                    hs.pop()
                if hp:
                    hs.append((hp[-1] - p) / (hg[-1] - q))
                hp.append(p)
                hg.append(q)
            t = P[c - 1] if c else 0.0
            lo, hi = 0, len(hp) - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if (hp[mid] - t) / hg[mid] < (hp[mid + 1] - t) / hg[mid + 1]:
                    lo = mid + 1
                else:
                    hi = mid
            out[c] = (hp[lo] - t) / hg[lo]
        return np.array(out)


class UnitSubmeasure(Submeasure):
    """1 on every nonempty set; the hat-norm is the sup norm."""

    sorted_hat_is_sup = True   # order-free

    def __repr__(self):
        return "Unit()"

    def _set_value(self, C):
        return 1 if C else 0

    def _set_table(self, support):
        return [0] + [1] * ((1 << len(support)) - 1), 1

    def _keyed(self):
        return True

    def _key_hat(self, keys):
        return max(keys, default=0), 1

    def _key_fraction(self, keys, fractions):
        # the loop returns the first largest entry
        return bool(keys) and fractions[keys.index(max(keys))]

    def _loop_hat(self, entries):
        return max((abs(v) for v in entries), default=0)

    def _sorted_forms(self, m):
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

    def _keyed(self):
        return True

    def _key_hat(self, keys):
        return sum(keys), 1

    def _key_fraction(self, keys, fractions):
        # the loop adds every entry, a zero Fraction too
        return True in fractions

    def _loop_hat(self, entries):
        total = 0
        for v in entries:
            total += abs(v)
        return total

    def _sorted_forms(self, m):
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

    def _placed(self, entries) -> list:
        """y with y[pi(i)] = x_i and 0 elsewhere, up to the largest image."""
        if not entries:
            return []
        y = [0] * max(self.perm[:len(entries)])
        for i, v in enumerate(entries):
            y[self.perm[i] - 1] = v
        return y

    def _keyed(self):
        return self.base._keyed()

    def _key_hat(self, keys):
        self._check_length(len(keys))
        return self.base._key_hat(self._placed(keys))

    def _key_fraction(self, keys, fractions):
        return self.base._key_fraction(self._placed(keys), self._placed(fractions))

    def _loop_hat(self, entries):
        # placed entries are finite and within the base horizon, as checked here
        return self.base._loop_hat(self._placed(entries)) if entries else 0

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
        # a sequence past the horizon is refused before its entries are read
        entries = as_entries(x)
        self._check_length(len(entries))
        return super().hat(entries)

    def _keyed(self):
        return self.base._keyed()

    def _key_hat(self, keys):
        # the dyadic part is sum_i k_i 2^(m-i) over 2^m for m keys
        self._check_length(len(keys))
        num, den = self.base._key_hat(keys)
        m = len(keys)
        dyadic = sum([k << (m - i) for i, k in enumerate(keys, start=1)])
        return (num << m) + dyadic * den, den << m

    def _key_fraction(self, keys, fractions):
        # a nonzero term has a Fraction weight 2^-i
        return any(keys) or self.base._key_fraction(keys, fractions)

    def _loop_hat(self, entries):
        extra = 0
        for i, v in enumerate(entries, start=1):
            if v:
                extra += Fraction(1, 2 ** i) * abs(v)
        return self.base._loop_hat(entries) + extra

    def _sorted_forms(self, m):
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

    # a wrapper's loop reaches the oracle here
    _loop_hat = hat


def as_float_array(x, name: str = "entry {} of the sequence") -> np.ndarray:
    """x as a float array.  An exact entry beyond the float range raises
    :class:`~gbv._util.NonFiniteValue` naming the first such entry by
    ``name.format(its 1-based index)``."""
    try:
        entries = x if isinstance(x, np.ndarray) else np.array(
            [float(v) for v in as_entries(x)], dtype=float)
        return entries.astype(float, copy=False)
    except OverflowError as exc:
        for i, v in enumerate(as_entries(x), start=1):
            try:
                float(v)
            except OverflowError:
                raise NonFiniteValue(f"{name.format(i)} overflows a float ({exc})") from exc
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
