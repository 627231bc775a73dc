"""Finite-horizon checkers for the order and inclusion relations.

Everything here decides an asymptotic statement only up to a declared
horizon, so every checker returns a three-valued report:

* ``holds-with-constant``      -- the bound is provable for the closed-form
                                  pair at hand (a small table of known
                                  comparisons), with the observed constant;
* ``violated-by-witness``      -- a concrete witness object beats the cap;
* ``consistent-up-to-horizon`` -- no violation found, nothing proved.

The relations: hat-norm domination ``preceq`` (all finite sequences) and
``preceq_m`` (nonincreasing ones) for density and weighted-sum submeasures,
the Katetov comparison of summable ideals via the partial-sum/entry scan and
via explicit block partitions, and the finite-set criterion characterizing
when tail-vanishing sets of one submeasure have bounded value under another.

``compare(phi_a, phi_b, relation)`` is the one place that maps a relation
and a pair of submeasures to a checker, reading the facts the variants state:
``preceq`` runs ``preceq_density`` on two density ``bound``s and
``preceq_summable`` on two ``weights``; ``preceq_m`` and ``katetov`` need two
``weights``; ``criterion_c`` takes any pair.  Any other pair, a wrapped base
included, is refused with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import HorizonExceeded, NonFiniteValue, all_exact, exact_div, is_finite
from .constructions import density_witness_monotone
from .sequence_spaces import SequencePrefix
from .submeasure import (
    DensityBound,
    Submeasure,
    WatermanWeights,
    density,
)

DEFAULT_HORIZON = 10 ** 4
DEFAULT_RATIO_CAP = 10 ** 3
#: ideal_criterion_c searches every subset up to this horizon, intervals beyond
CRITERION_C_EXHAUSTIVE_LIMIT = 20
#: a table of weights whose last entry is below this is tall-consistent
TALLNESS_TOLERANCE = 1e-3

HOLDS = "holds-with-constant"
VIOLATED = "violated-by-witness"
CONSISTENT = "consistent-up-to-horizon"


@dataclass(frozen=True)
class ComparisonReport:
    relation: str            # preceq | preceq_m | katetov_le | ideal_criterion_c
    bound_estimate: object   # best constant observed on the horizon
    verdict: str
    witness: object = None   # present exactly when verdict == violated-by-witness
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.witness is not None) != (self.verdict == VIOLATED):
            raise ValueError("witness must be present exactly for violated verdicts")
        if self.bound_estimate < 0:
            raise ValueError("bound estimate must be nonnegative")


@dataclass(frozen=True)
class KatetovPartition:
    """Consecutive blocks I_n with m*a_n <= sum_{i in I_n} b_i <= M*a_n."""

    intervals: tuple         # ((start, end), ...) covering {1..end} consecutively
    m: object
    M: object
    block_sums: tuple
    failure_index: object = None   # block number at which the greedy failed
    failure_reason: str = ""

    def __post_init__(self):
        expected = 1
        for j, (s, t) in enumerate(self.intervals):
            if s != expected or t < s:
                raise ValueError(f"blocks must tile 1..max consecutively (block {j + 1})")
            expected = t + 1

    @property
    def complete(self) -> bool:
        return self.failure_index is None


def compare(phi_a: Submeasure, phi_b: Submeasure, relation: str,
            horizon: int = DEFAULT_HORIZON,
            cap=DEFAULT_RATIO_CAP) -> ComparisonReport:
    """Run the checker of ``relation`` on the pair, phi_a the dominating
    side: cap is the ratio cap of the preceq relations and the level M of
    ``katetov`` and ``criterion_c``."""
    if relation == "criterion_c":
        return ideal_criterion_c(phi_a, phi_b, horizon, cap)
    A, B = phi_a.weights, phi_b.weights
    summable_pair = A is not None and B is not None
    if relation == "preceq":
        if phi_a.bound is not None and phi_b.bound is not None:
            return preceq_density(phi_a.bound, phi_b.bound, horizon, cap)
        if summable_pair:
            return preceq_summable(A, B, cap)
        raise ValueError("preceq needs two density or two summable descriptors")
    if relation not in ("preceq_m", "katetov"):
        raise ValueError(f"unknown relation {relation!r}")
    if not summable_pair:
        raise ValueError(f"{relation} needs two summable descriptors")
    if relation == "preceq_m":
        return preceq_m_summable(A, B, cap)
    return katetov_scan(A, B, cap, horizon)


# ---------------------------------------------------------------------------
# Hat-norm domination
# ---------------------------------------------------------------------------


def preceq_density(g: DensityBound, h: DensityBound,
                   horizon: int = DEFAULT_HORIZON,
                   cap: float = DEFAULT_RATIO_CAP) -> ComparisonReport:
    """Does the h-density norm dominate by a constant, i.e. is g = O(h)?

    For every sequence, prefix/h(n) <= (g(n)/h(n)) * prefix/g(n) holds
    pointwise in n, so eta = max_{n<=horizon} g(n)/h(n) is a sound constant
    at the horizon for all horizon-supported input.  If the ratio reaches the
    cap the flat-prefix witness at the first crossing is attached (its g-norm
    is exactly 1 while its h-norm carries the ratio).
    """
    _check_positive_finite(cap)
    for bound in (g, h):
        if bound.horizon is not None and bound.horizon < horizon:
            raise ValueError(f"horizon mismatch: {bound!r} ends before {horizon}")
    # ratios g(n)/h(n) compared by cross-multiplication; Fraction(float) is
    # exact, so the crossing test is exact for a float cap too
    exact_cap = Fraction(cap)
    cap_num, cap_den = exact_cap.numerator, exact_cap.denominator
    num, den = 0, 1
    best_n = 0
    first_crossing = None
    for n in range(1, horizon + 1):
        gn, hn = g.g(n), h.g(n)
        if gn * den > num * hn:
            num, den, best_n = gn, hn, n
        if first_crossing is None and gn * cap_den >= cap_num * hn:
            first_crossing = n
    best = Fraction(num, den)
    details = {"argmax": best_n, "horizon": horizon, "cap": cap}
    if first_crossing is not None:
        cert = density_witness_monotone(g, h, first_crossing)
        details["witness_certificate"] = cert
        return ComparisonReport("preceq", best, VIOLATED, cert.obj, details)
    verdict = HOLDS if _density_pair_provable(g, h) else CONSISTENT
    return ComparisonReport("preceq", best, verdict, None, details)


def _check_positive_finite(value, name: str = "cap") -> None:
    """Refuse a ratio cap or a level M that is not positive and finite."""
    if not is_finite(value):
        raise NonFiniteValue(f"{name} must be positive and finite, got {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _density_pair_provable(g: DensityBound, h: DensityBound) -> bool:
    if g.form == "table" or h.form == "table":
        return g.form == h.form == "table" and g.table == h.table
    if g.form == "log":
        return True                      # log profile is O(every power profile)
    if h.form == "log":
        return False
    return g.param <= h.param            # ceil(n^p) = O(ceil(n^q)) iff p <= q


def preceq_summable(A: WatermanWeights, B: WatermanWeights,
                    cap: float = DEFAULT_RATIO_CAP) -> ComparisonReport:
    """Hat-norm domination for weighted sums: sup_n b_n / a_n is both
    sufficient and necessary (the coordinate vector e_n witnesses necessity).
    """
    _check_positive_finite(cap)
    if len(A.values) != len(B.values):
        raise ValueError(f"length mismatch: {len(A.values)} vs {len(B.values)}")
    n_vals = len(A.values)
    best, best_n, first_crossing = 0, 0, None
    for n in range(1, n_vals + 1):
        r = exact_div(B.values[n - 1], A.values[n - 1])
        if r > best:
            best, best_n = r, n
        if first_crossing is None and r >= cap:
            first_crossing = n
    details = {"argmax": best_n, "horizon": n_vals, "cap": cap}
    if first_crossing is not None:
        witness = SequencePrefix((0,) * (first_crossing - 1) + (1,))
        details["witness_index"] = first_crossing
        return ComparisonReport("preceq", best, VIOLATED, witness, details)
    verdict = HOLDS if _summable_pair_provable(A, B) else CONSISTENT
    return ComparisonReport("preceq", best, verdict, None, details)


def _summable_pair_provable(A: WatermanWeights, B: WatermanWeights) -> bool:
    if A.form == "table" or B.form == "table":
        return A.values == B.values
    qa, qb = A.exponent, B.exponent
    if qa is None or qb is None:
        return False
    return qb >= qa                      # b_n/a_n ~ n^(qa-qb) stays bounded


def preceq_m_summable(A: WatermanWeights, B: WatermanWeights,
                      cap: float = DEFAULT_RATIO_CAP) -> ComparisonReport:
    """Domination on nonincreasing sequences: the partial-sum ratio decides.

    By summation by parts, sum b_i |x_i| rewrites over the prefix sums, so
    eta = max_n (sum_{i<=n} b_i)/(sum_{i<=n} a_i) dominates on the monotone
    cone, and the flat prefix at the argmax attains the ratio exactly.
    """
    _check_positive_finite(cap)
    if len(A.values) != len(B.values):
        raise ValueError(f"length mismatch: {len(A.values)} vs {len(B.values)}")
    n_vals = len(A.values)
    exact = all_exact(A.values) and all_exact(B.values) and n_vals <= 2048
    if exact:
        asum = bsum = 0
        best, best_n = 0, 0
        for n in range(1, n_vals + 1):
            asum += A.values[n - 1]
            bsum += B.values[n - 1]
            r = exact_div(bsum, asum)
            if r > best:
                best, best_n = r, n
    else:
        asums = np.cumsum(A.float_values(n_vals))
        bsums = np.cumsum(B.float_values(n_vals))
        ratios = bsums / asums
        best_n = int(np.argmax(ratios)) + 1
        best = float(ratios[best_n - 1])
    details = {"argmax": best_n, "horizon": n_vals, "cap": cap}
    if best >= cap:
        witness = SequencePrefix((1,) * best_n)
        return ComparisonReport("preceq_m", best, VIOLATED, witness, details)
    verdict = HOLDS if _summable_pair_m_provable(A, B) else CONSISTENT
    return ComparisonReport("preceq_m", best, verdict, None, details)


def _summable_pair_m_provable(A: WatermanWeights, B: WatermanWeights) -> bool:
    if A.form == "ones":
        return True                      # Bsum_n / n = mean of b <= b_1
    if A.form == "table" or B.form == "table":
        return A.values == B.values
    qa, qb = A.exponent, B.exponent
    if qa is None or qb is None:
        return False
    return qb >= qa                      # partial sums grow like n^(1-q)


# ---------------------------------------------------------------------------
# Katetov order between summable ideals
# ---------------------------------------------------------------------------


def katetov_scan(A: WatermanWeights, B: WatermanWeights, M,
                 horizon: int = None) -> ComparisonReport:
    """Scan for a pair (k, l) violating the Katetov criterion at level M:
    sum_{i<=k} b_i >= M * sum_{i<=l} a_i together with b_k > M * a_l.

    Both partial-sum arrays are nondecreasing and both weight sequences are
    nonincreasing, so the feasible l-window for each k moves monotonically
    and a two-pointer pass finds the lexicographically first violation in
    O(N).  The exhaustive quadratic scan is kept in the test suite as the
    oracle for this pointer dance.
    """
    _check_positive_finite(M, "Katetov level M")
    n_vals = min(len(A.values), len(B.values))
    if horizon is not None:
        n_vals = min(n_vals, horizon)
    a, b = A.values, B.values
    exact = all_exact(a[:n_vals]) and all_exact(b[:n_vals]) and isinstance(M, (int, Fraction))
    if not exact:
        a = [float(v) for v in a[:n_vals]]
        b = [float(v) for v in b[:n_vals]]
        M = float(M)
    asum = [0]
    bsum = [0]
    for n in range(n_vals):
        asum.append(asum[-1] + a[n])
        bsum.append(bsum[-1] + b[n])
    l_strict = 1        # first l with M*a_l < b_k
    l_weak = 0          # last l with M*asum_l <= bsum_k
    details = {"horizon": n_vals, "M": M}
    for k in range(1, n_vals + 1):
        while l_strict <= n_vals and not M * a[l_strict - 1] < b[k - 1]:
            l_strict += 1
        while l_weak < n_vals and M * asum[l_weak + 1] <= bsum[k]:
            l_weak += 1
        if l_strict <= l_weak:
            details["pair"] = (k, l_strict)
            return ComparisonReport("katetov_le", M, VIOLATED, (k, l_strict), details)
    return ComparisonReport("katetov_le", M, CONSISTENT, None, details)


def katetov_partition_build(A: WatermanWeights, B: WatermanWeights, m, M,
                            max_blocks: int = 10 ** 4) -> KatetovPartition:
    """Greedy block partition: block n absorbs b's while its sum stays <= m*a_n,
    then must land inside [m*a_n, M*a_n].

    The boundary is strict on purpose: a block keeps absorbing while its sum
    is at most m*a_n, so it stops at the first strictly larger sum.  Within
    the materialized weight prefix block sums are exact; beyond it (possible
    only for closed forms) the b partial sums come from asymptotics and block
    ends are located by doubling plus bisection, with float-tolerance checks.
    """
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    intervals = []
    sums = []
    start = 1
    exact_limit = len(B.values)
    for n in range(1, max_blocks + 1):
        try:
            a_n = A.value_at(n)
        except HorizonExceeded:
            return KatetovPartition(tuple(intervals), m, M, tuple(sums),
                                    failure_index=n, failure_reason="a exhausted")
        target = m * a_n
        end, block_sum = _greedy_block_end(B, start, target, exact_limit)
        if end is None:
            return KatetovPartition(tuple(intervals), m, M, tuple(sums),
                                    failure_index=n, failure_reason="b exhausted")
        if block_sum > M * a_n:
            return KatetovPartition(tuple(intervals), m, M, tuple(sums),
                                    failure_index=n, failure_reason="overshoot")
        intervals.append((start, end))
        sums.append(block_sum)
        start = end + 1
    return KatetovPartition(tuple(intervals), m, M, tuple(sums))


def _greedy_block_end(B: WatermanWeights, start: int, target, exact_limit: int):
    """Smallest end with b_start + ... + b_end strictly above target."""
    if start <= exact_limit:
        total = 0
        for t in range(start, exact_limit + 1):
            total = total + B.value_at(t)
            if total > target:
                return t, total
        if B.form == "table":
            return None, None
    # closed-form regime: partial sums are monotone, bisect on them
    base = B.partial_sum(start - 1)
    target_f = float(base) + float(target)
    lo, hi = start - 1, max(start, exact_limit)
    while B.partial_sum(hi) <= target_f:
        lo, hi = hi, hi * 2
        if hi > 10 ** 24:
            return None, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if B.partial_sum(mid) <= target_f:
            lo = mid
        else:
            hi = mid
    return hi, B.partial_sum(hi) - float(base)


# ---------------------------------------------------------------------------
# Finite-set inclusion criterion
# ---------------------------------------------------------------------------


def ideal_criterion_c(phi1: Submeasure, phi2: Submeasure,
                      horizon: int = DEFAULT_HORIZON, M=2) -> ComparisonReport:
    """Search for a finite F with phi1(F) <= 1/M and phi2(F) >= M.

    Such an F violates, at level M, the criterion characterizing when every
    tail-vanishing set of phi1 keeps finite phi2-value.  Exhaustive over all
    subsets (with monotonicity pruning on phi1) up to ``CRITERION_C_EXHAUSTIVE_LIMIT``;
    beyond that the search restricts to intervals {i..j}, which are the shape
    of the known separating witnesses, using that both set functions are
    monotone in j.
    """
    _check_positive_finite(M, "criterion level M")
    low = exact_div(1, M) if isinstance(M, (int, Fraction)) else 1.0 / M
    best_val = 0
    witness = None
    if horizon <= CRITERION_C_EXHAUSTIVE_LIMIT:
        stack = [((), 1)]
        while stack:
            F, next_i = stack.pop()
            if F:
                v2 = phi2.set_value(F)
                if v2 >= M:
                    witness = frozenset(F)
                    best_val = v2
                    break
                if v2 > best_val:
                    best_val = v2
            for i in range(next_i, horizon + 1):
                cand = F + (i,)
                if phi1.set_value(cand) <= low:
                    stack.append((cand, i + 1))
        mode = "exhaustive"
    else:
        for i in range(1, horizon + 1):
            if phi1.set_value((i,)) > low:
                continue
            lo, hi = i, horizon
            while lo < hi:                      # largest j with phi1({i..j}) <= 1/M
                mid = (lo + hi + 1) // 2
                if phi1.set_value(range(i, mid + 1)) <= low:
                    lo = mid
                else:
                    hi = mid - 1
            F = range(i, lo + 1)
            v2 = phi2.set_value(F)
            if v2 > best_val:
                best_val = v2
            if v2 >= M:
                witness = frozenset(F)
                break
        mode = "intervals"
    details = {"horizon": horizon, "M": M, "mode": mode}
    if witness is not None:
        return ComparisonReport("ideal_criterion_c", best_val, VIOLATED, witness, details)
    return ComparisonReport("ideal_criterion_c", best_val, CONSISTENT, None, details)


def tallness_hint(A: WatermanWeights) -> str:
    """Whether the weights are consistent with tending to zero (tallness of
    the induced summable ideal).  Closed forms answer analytically; tables
    by comparing the last entry against ``TALLNESS_TOLERANCE``.  Metadata only."""
    if A.form == "log":
        return "tall-consistent"
    q = A.exponent
    if q is not None:
        return "tall-consistent" if q > 0 else "not-tall-consistent"
    if float(A.values[-1]) < TALLNESS_TOLERANCE:
        return "tall-consistent"
    return "not-tall-consistent"
