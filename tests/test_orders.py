import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import NonFiniteValue
from gbv.orders import (
    ComparisonReport,
    KatetovPartition,
    compare,
    ideal_criterion_c,
    katetov_partition_build,
    katetov_scan,
    preceq_density,
    preceq_m_summable,
    preceq_summable,
    tallness_hint,
)
from gbv.submeasure import (
    DensityBound,
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    hat_norm,
    identity_bound,
    log_bound,
    max_with_unit,
    ones_weights,
    permuted,
    power_weights,
    shift_normalize,
    sqrt_bound,
    summable,
    unit,
)


def sqrt_weights(n):
    return WatermanWeights([F(1, math.isqrt(k - 1) + 1) for k in range(1, n + 1)],
                           form="table")


# ---------------------------------------------------------------------------
# preceq for density bounds
# ---------------------------------------------------------------------------

def test_preceq_density_identity_pair():
    r = preceq_density(sqrt_bound(), sqrt_bound(), horizon=2000)
    assert r.verdict == "holds-with-constant"
    assert r.bound_estimate == 1


def test_preceq_density_sqrt_below_identity():
    r = preceq_density(sqrt_bound(), identity_bound(), horizon=10 ** 4)
    assert r.verdict == "holds-with-constant"
    assert r.bound_estimate == 1              # max ceil(sqrt(n))/n is 1 at n = 1, 2


def test_preceq_density_violation_first_crossing():
    r = preceq_density(identity_bound(), sqrt_bound(), horizon=10 ** 4, cap=50)
    assert r.verdict == "violated-by-witness"
    assert float(r.bound_estimate) == 100.0   # ratio n/ceil(sqrt n) at n = 10^4
    # first n with n/ceil(sqrt n) >= 50 is n = 2500 (ceil(sqrt 2500) = 50)
    assert len(r.witness.entries) == 2500
    cert = r.details["witness_certificate"]
    assert cert.all_passed


def test_preceq_density_soundness_on_random_sequences():
    g, h = sqrt_bound(), identity_bound()
    eta = float(preceq_density(g, h, horizon=500).bound_estimate)
    rng = random.Random(5)
    phi_g, phi_h = density(g), density(h)
    for _ in range(100):
        x = [rng.uniform(-4, 4) for _ in range(rng.randint(1, 120))]
        assert float(hat_norm(phi_h, x)) <= eta * float(hat_norm(phi_g, x)) * (1 + 1e-12)


def test_preceq_density_horizon_mismatch():
    table = DensityBound("table", table=[1, 2, 3, 4])
    with pytest.raises(ValueError):
        preceq_density(table, identity_bound(), horizon=10)


def _reference_preceq_density(g, h, horizon, cap):
    """The scan with one Fraction per index: (bound, argmax, first crossing)."""
    best, best_n, first = F(0), 0, None
    for n in range(1, horizon + 1):
        r = F(g.g(n), h.g(n))
        if r > best:
            best, best_n = r, n
        if first is None and r >= cap:
            first = n
    return best, best_n, first


def _density_profiles(length):
    """Power, log and table profiles; the tables reach ``length``."""
    return [identity_bound(), sqrt_bound(), log_bound(), DensityBound("power", F(1, 3)),
            DensityBound("power", F(2, 3)),
            DensityBound("table", table=[min(n, 12) for n in range(1, length + 1)]),
            DensityBound("table", table=[n + 3 for n in range(1, length + 1)]),
            DensityBound("table", table=[min(2 * n + 1, 45) for n in range(1, length + 1)])]


def test_preceq_density_matches_fraction_reference():
    horizon = 300
    profiles = _density_profiles(horizon)
    for g in profiles:
        for h in profiles:
            mid = F(g.g(horizon // 2), h.g(horizon // 2))
            # the ratio at the midpoint is reached exactly by the Fraction cap
            for cap in (1, 3, F(7, 3), mid, 2.5, float(mid), 10 ** 3):
                r = preceq_density(g, h, horizon, cap)
                best, best_n, first = _reference_preceq_density(g, h, horizon, cap)
                assert r.bound_estimate == best and type(r.bound_estimate) is F
                assert r.details["argmax"] == best_n and r.details["cap"] is cap
                if first is None:
                    assert r.witness is None
                else:
                    assert r.verdict == "violated-by-witness"
                    assert len(r.witness.entries) == first


def test_preceq_density_first_crossing_at_a_ratio_equal_to_the_cap():
    # n/ceil(sqrt n) is 5 at n = 25 and below 5 before; int, Fraction and
    # float caps of the same value cross at the same index
    for cap in (5, F(5), 5.0):
        r = preceq_density(identity_bound(), sqrt_bound(), horizon=40, cap=cap)
        assert len(r.witness.entries) == 25
        assert r.bound_estimate == 6 and r.details["argmax"] == 36
    r = preceq_density(identity_bound(), sqrt_bound(), horizon=40, cap=5 + 1e-15)
    assert len(r.witness.entries) == 31            # 31/6 is the next ratio above 5


def test_preceq_density_table_horizon_errors():
    table = DensityBound("table", table=[min(n, 12) for n in range(1, 101)])
    for g, h in ((table, identity_bound()), (identity_bound(), table)):
        assert preceq_density(g, h, horizon=100).details["horizon"] == 100
        with pytest.raises(ValueError, match="horizon mismatch: DensityBound"
                                             r"\(table, n=100\) ends before 101"):
            preceq_density(g, h, horizon=101)


@pytest.mark.parametrize("scan", [
    lambda cap: preceq_density(sqrt_bound(), identity_bound(), 100, cap),
    lambda cap: preceq_summable(harmonic_weights(16), harmonic_weights(16), cap),
    lambda cap: preceq_m_summable(harmonic_weights(16), harmonic_weights(16), cap),
], ids=["preceq_density", "preceq_summable", "preceq_m_summable"])
def test_ratio_scans_refuse_bad_caps(scan):
    for cap in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteValue, match="cap must be positive and finite"):
            scan(cap)
    for cap in (0, 0.0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="cap must be positive and finite"):
            scan(cap)


@given(st.sampled_from(range(8)), st.sampled_from(range(8)), st.integers(1, 200),
       st.fractions(min_value=F(1, 4), max_value=40, max_denominator=20))
@settings(max_examples=150, deadline=None)
def test_preceq_density_exact_and_float_cap_agree(gi, hi, horizon, cap):
    # The float twin of a Fraction cap c is float(c), within relative 2**-53
    # of c.  The bound is the exact max of g(n)/h(n) either way, and its float
    # is the float ratio max (both round the same ratio once).  The first
    # crossing moves only if a ratio lies between c and float(c).
    profiles = _density_profiles(200)
    g, h = profiles[gi], profiles[hi]
    exact, flt = preceq_density(g, h, horizon, cap), preceq_density(g, h, horizon, float(cap))
    assert exact.bound_estimate == flt.bound_estimate
    assert exact.details["argmax"] == flt.details["argmax"]
    ratios = g.g_array(horizon) / h.g_array(horizon)
    assert float(exact.bound_estimate) == ratios.max()
    lengths = [len(r.witness.entries) if r.witness else None for r in (exact, flt)]
    if lengths[0] != lengths[1]:
        n = min(k for k in lengths if k is not None)
        assert math.isclose(F(g.g(n), h.g(n)), cap, rel_tol=2 ** -52)


# ---------------------------------------------------------------------------
# preceq / preceq_m for weighted sums
# ---------------------------------------------------------------------------

def test_preceq_summable_examples():
    h = harmonic_weights(100)
    assert preceq_summable(h, h).bound_estimate == 1
    assert preceq_summable(h, h).verdict == "holds-with-constant"
    half = WatermanWeights([F(1, 2 * n) for n in range(1, 101)], form="table")
    assert preceq_summable(h, half).bound_estimate == F(1, 2)
    with pytest.raises(ValueError):
        preceq_summable(h, harmonic_weights(50))


def test_preceq_summable_sqrt_witness():
    r = preceq_summable(harmonic_weights(10 ** 4), sqrt_weights(10 ** 4), cap=50)
    assert r.verdict == "violated-by-witness"
    assert float(r.bound_estimate) == 100.0
    assert r.details["witness_index"] == 2500
    assert r.witness.entries[-1] == 1 and len(r.witness.entries) == 2500


def _preceq_summable_loop(A, B, cap):
    # the per-index scan: one Python division per index, first argmax and
    # first crossing
    best, best_n, crossing = 0, 0, None
    for n, (a, b) in enumerate(zip(A.values, B.values), start=1):
        r = b / a
        if r > best:
            best, best_n = r, n
        if crossing is None and r >= cap:
            crossing = n
    return best, best_n, crossing


@pytest.mark.parametrize("pair", ["harmonic-power", "power-harmonic", "ones-power",
                                  "power-ones", "power-power"])
@pytest.mark.parametrize("cap", [1.5, 3, 10 ** 3])
def test_float_preceq_summable_matches_the_per_index_loop(pair, cap):
    # power weights are floats, harmonic and ones exact
    weights = {"harmonic": harmonic_weights(4096), "ones": ones_weights(4096),
               "power": power_weights(0.5, 4096)}
    a, b = pair.split("-")
    A = weights[a]
    B = power_weights(0.7, 4096) if b == a else weights[b]
    r = preceq_summable(A, B, cap)
    best, best_n, crossing = _preceq_summable_loop(A, B, cap)
    assert type(r.bound_estimate) is float
    assert r.bound_estimate == best and r.details["argmax"] == best_n
    assert r.details.get("witness_index") == crossing
    if crossing is not None:
        assert r.witness.entries == (0,) * (crossing - 1) + (1,)


def test_preceq_m_examples():
    ones = ones_weights(10 ** 4)
    h = harmonic_weights(10 ** 4)
    r = preceq_m_summable(ones, h)
    assert float(r.bound_estimate) == 1.0 and r.details["argmax"] == 1
    assert r.verdict == "holds-with-constant"
    r2 = preceq_m_summable(h, ones)
    assert r2.verdict == "violated-by-witness"
    assert float(r2.bound_estimate) == pytest.approx(10 ** 4 / sum(1 / k for k in range(1, 10 ** 4 + 1)))
    assert float(r2.bound_estimate) > 10 ** 3
    assert set(r2.witness.entries) == {1}


def test_preceq_m_abel_soundness():
    # eta from the partial-sum ratio dominates hat-norm ratios on the
    # monotone cone (summation by parts)
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 30)
        A = WatermanWeights(sorted([F(rng.randint(1, 40), rng.randint(1, 6))
                                    for _ in range(n)], reverse=True), form="table")
        B = WatermanWeights(sorted([F(rng.randint(1, 40), rng.randint(1, 6))
                                    for _ in range(n)], reverse=True), form="table")
        eta = preceq_m_summable(A, B, cap=10 ** 9).bound_estimate
        x = tuple(sorted((F(rng.randint(0, 20), rng.randint(1, 5)) for _ in range(n)),
                         reverse=True))
        assert hat_norm(summable(B), x) <= eta * hat_norm(summable(A), x)


def test_preceq_transitivity_at_horizon():
    g1, g2, g3 = identity_bound(), sqrt_bound(), DensityBound("power", F(1, 3))
    n = 500
    e12 = preceq_density(g2, g1, horizon=n).bound_estimate
    e23 = preceq_density(g3, g2, horizon=n).bound_estimate
    e13 = preceq_density(g3, g1, horizon=n).bound_estimate
    assert e13 <= e12 * e23


# ---------------------------------------------------------------------------
# Katetov scan and partition
# ---------------------------------------------------------------------------

def test_katetov_scan_identity_consistent():
    h = harmonic_weights(500)
    assert katetov_scan(h, h, 1).verdict == "consistent-up-to-horizon"


def test_katetov_scan_examples():
    r = katetov_scan(harmonic_weights(1000), ones_weights(1000), 2)
    assert r.verdict == "violated-by-witness"
    assert r.witness == (4, 3)
    r2 = katetov_scan(ones_weights(1000), harmonic_weights(1000), 1)
    assert r2.verdict == "consistent-up-to-horizon"
    with pytest.raises(ValueError):
        katetov_scan(harmonic_weights(10), ones_weights(10), 0)


def _exhaustive(A, B, M):
    a = np.array([float(v) for v in A.values])
    b = np.array([float(v) for v in B.values])
    asum, bsum = np.cumsum(a), np.cumsum(b)
    for k in range(1, len(a) + 1):
        hits = np.nonzero((bsum[k - 1] >= M * asum) & (b[k - 1] > M * a))[0]
        if len(hits):
            return (k, int(hits[0]) + 1)
    return None


def test_katetov_two_pointer_matches_exhaustive():
    rng = random.Random(13)
    for _ in range(25):
        n = 300

        def rand_w():
            vals, cur = [], rng.uniform(0.5, 3.0)
            for _ in range(n):
                vals.append(cur)
                cur *= rng.uniform(0.88, 1.0)
            return WatermanWeights(vals, form="table")

        A, B = rand_w(), rand_w()
        M = rng.choice((0.5, 1.0, 2.0, 4.0))
        fast = katetov_scan(A, B, M)
        pair = fast.witness if fast.verdict == "violated-by-witness" else None
        assert pair == _exhaustive(A, B, M)


def test_partition_identity_blocks_are_singletons():
    h = harmonic_weights(50)
    part = katetov_partition_build(h, h, F(1, 2), 2, max_blocks=10)
    assert part.complete
    assert part.intervals[:5] == ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))


def test_partition_harmonic_blocks():
    part = katetov_partition_build(ones_weights(30), harmonic_weights(10 ** 4),
                                   F(1, 2), 2, max_blocks=12)
    assert part.complete
    assert part.intervals[0] == (1, 1)
    assert part.intervals[1] == (2, 3)        # 1/2 + 1/3: first sum beyond 1/2
    assert part.block_sums[1] == F(5, 6)
    for s in part.block_sums:
        assert F(1, 2) <= s <= 2


def test_partition_failure_reported():
    part = katetov_partition_build(harmonic_weights(100), ones_weights(100), 1, 1,
                                   max_blocks=10)
    assert not part.complete
    assert part.failure_index == 1
    assert part.failure_reason == "overshoot"


def test_partition_consecutiveness_validated():
    with pytest.raises(ValueError):
        KatetovPartition(((1, 2), (4, 5)), 1, 2, (1, 1))


def test_partition_success_implies_scan_consistency():
    # a complete (m, M) partition of a prefix forces the scan to be
    # consistent at any level above M on that prefix
    rng = random.Random(17)
    for _ in range(15):
        n = 60
        vals = sorted([F(rng.randint(2, 40), rng.randint(1, 4)) for _ in range(n)],
                      reverse=True)
        A = WatermanWeights(vals, form="table")
        B = WatermanWeights(sorted([v * F(rng.randint(8, 12), 10) for v in vals],
                                   reverse=True), form="table")
        m, M = F(1, 2), F(3)
        part = katetov_partition_build(A, B, m, M, max_blocks=12)
        if not part.complete:
            continue
        covered = part.intervals[-1][1]
        r = katetov_scan(WatermanWeights(A.values[:covered], form="table"),
                         WatermanWeights(B.values[:covered], form="table"), M + m)
        assert r.verdict == "consistent-up-to-horizon"


def test_partition_deep_blocks_via_closed_form():
    part = katetov_partition_build(ones_weights(4), harmonic_weights(10 ** 4),
                                   F(1, 2), 2, max_blocks=100)
    assert len(part.intervals) == 100
    assert part.intervals[-1][1] > 10 ** 20   # block ends grow like e^(n/2)
    for s in part.block_sums:
        assert 0.5 - 1e-9 <= float(s) <= 2 + 1e-9


# ---------------------------------------------------------------------------
# ideal criterion and tallness
# ---------------------------------------------------------------------------

def test_criterion_c_counting_pair():
    r = ideal_criterion_c(counting(), counting(), horizon=14, M=2)
    assert r.verdict == "consistent-up-to-horizon"


def test_criterion_c_unit_vs_counting():
    r = ideal_criterion_c(unit(), counting(), horizon=15, M=3)
    assert r.verdict == "consistent-up-to-horizon"


def test_criterion_c_unit_dominated_by_harmonic():
    # only the empty set has unit value <= 1/2, so the criterion holds
    r = ideal_criterion_c(unit(), summable(harmonic_weights(18)), horizon=18, M=2)
    assert r.verdict == "consistent-up-to-horizon"


def test_criterion_c_density_pair_interval_scan():
    r = ideal_criterion_c(density(identity_bound()), density(sqrt_bound()),
                          horizon=10 ** 4, M=4)
    assert r.verdict == "violated-by-witness"
    F_set = r.witness
    phi1, phi2 = density(identity_bound()), density(sqrt_bound())
    assert phi1.set_value(F_set) <= F(1, 4)
    assert phi2.set_value(F_set) >= 4
    assert r.details["mode"] == "intervals"


def test_criterion_c_exhaustive_finds_non_interval_witnesses():
    r = ideal_criterion_c(summable(harmonic_weights(12)), counting(), horizon=12, M=2)
    # phi1(F) <= 1/2 needs small harmonic mass, phi2 = |F| >= 2: {7, 8} works
    assert r.verdict == "violated-by-witness"
    assert summable(harmonic_weights(12)).set_value(r.witness) <= F(1, 2)
    assert len(r.witness) >= 2


def test_report_invariants():
    with pytest.raises(ValueError):
        ComparisonReport("preceq", 1, "violated-by-witness", None)
    with pytest.raises(ValueError):
        ComparisonReport("preceq", 1, "consistent-up-to-horizon", (1, 2))


def test_tallness():
    assert tallness_hint(harmonic_weights(100)) == "tall-consistent"
    assert tallness_hint(ones_weights(100)) == "not-tall-consistent"
    drift = WatermanWeights([F(1, 2) + F(1, n) for n in range(1, 101)], form="table")
    assert tallness_hint(drift) == "not-tall-consistent"
    small = WatermanWeights([F(1, n * n) for n in range(1, 101)], form="table")
    assert tallness_hint(small) == "tall-consistent"


def test_density_bound_valid_on_monotone_and_general_alike():
    # the ratio bound for density pairs needs no monotonicity, so the
    # domination constant shows no discrepancy between the two cones
    g, h = sqrt_bound(), identity_bound()
    eta = preceq_density(g, h, horizon=300).bound_estimate
    phi_g, phi_h = density(g), density(h)
    rng = random.Random(51)
    worst_general = worst_mono = 0.0
    for _ in range(200):
        x = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(rng.randint(1, 40))]
        for vec in (x, sorted(x, reverse=True)):
            denom = hat_norm(phi_g, vec)
            if denom:
                r = float(hat_norm(phi_h, vec) / denom)
                if vec is x:
                    worst_general = max(worst_general, r)
                else:
                    worst_mono = max(worst_mono, r)
    assert worst_general <= float(eta) + 1e-12
    assert worst_mono <= float(eta) + 1e-12


def test_preceq_m_identical_weights_bound_one():
    h = harmonic_weights(64)
    r = preceq_m_summable(h, h)
    assert r.bound_estimate == 1
    assert r.verdict == "holds-with-constant"


# ---------------------------------------------------------------------------
# compare: the one dispatch from (relation, pair) to a checker
# ---------------------------------------------------------------------------

def _harm(n=64):
    return summable(harmonic_weights(n))


def _ones(n=64):
    return summable(ones_weights(n))


@pytest.mark.parametrize("relation,phi_a,phi_b,direct", [
    ("preceq", density(sqrt_bound()), density(identity_bound()),
     lambda: preceq_density(sqrt_bound(), identity_bound(), 50, 3)),
    ("preceq", density(identity_bound()), density(sqrt_bound()),
     lambda: preceq_density(identity_bound(), sqrt_bound(), 50, 3)),
    ("preceq", _harm(), _ones(),
     lambda: preceq_summable(harmonic_weights(64), ones_weights(64), 3)),
    ("preceq", _ones(), _harm(),
     lambda: preceq_summable(ones_weights(64), harmonic_weights(64), 3)),
    ("preceq_m", _harm(), _ones(),
     lambda: preceq_m_summable(harmonic_weights(64), ones_weights(64), 3)),
    ("katetov", _harm(), _ones(),
     lambda: katetov_scan(harmonic_weights(64), ones_weights(64), 3, 50)),
    ("katetov", _ones(), _harm(),
     lambda: katetov_scan(ones_weights(64), harmonic_weights(64), 3, 50)),
    ("criterion_c", unit(), counting(),
     lambda: ideal_criterion_c(unit(), counting(), 50, 3)),
    ("criterion_c", density(identity_bound()), shift_normalize(density(sqrt_bound())),
     lambda: ideal_criterion_c(density(identity_bound()),
                               shift_normalize(density(sqrt_bound())), 50, 3)),
])
def test_compare_reports_as_the_direct_checker(relation, phi_a, phi_b, direct):
    assert compare(phi_a, phi_b, relation, horizon=50, cap=3) == direct()


PRECEQ_REFUSAL = "preceq needs two density or two summable descriptors"
REFUSED_PAIRS = [
    ("preceq", density(sqrt_bound()), _harm(), PRECEQ_REFUSAL),
    ("preceq", counting(), counting(), PRECEQ_REFUSAL),
    ("preceq", shift_normalize(_harm()), _harm(), PRECEQ_REFUSAL),
    ("preceq", permuted(density(log_bound()), (2, 1)), density(log_bound()), PRECEQ_REFUSAL),
    ("preceq", max_with_unit(density(sqrt_bound())), density(sqrt_bound()), PRECEQ_REFUSAL),
    ("preceq_m", density(sqrt_bound()), density(identity_bound()),
     "preceq_m needs two summable descriptors"),
    ("preceq_m", _harm(), unit(), "preceq_m needs two summable descriptors"),
    ("preceq_m", permuted(_harm(), (2, 1)), _harm(), "preceq_m needs two summable descriptors"),
    ("katetov", _harm(), density(sqrt_bound()), "katetov needs two summable descriptors"),
    ("katetov", max_with_unit(_harm()), _harm(), "katetov needs two summable descriptors"),
    ("katetov", shift_normalize(_ones()), _harm(), "katetov needs two summable descriptors"),
]


@pytest.mark.parametrize("relation,phi_a,phi_b,message", REFUSED_PAIRS)
def test_compare_refuses_pairs_the_relation_has_no_checker_for(relation, phi_a, phi_b, message):
    for a, b in ((phi_a, phi_b), (phi_b, phi_a)):
        with pytest.raises(ValueError) as exc:
            compare(a, b, relation, horizon=50, cap=3)
        assert str(exc.value) == message


def test_compare_refuses_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation 'katetov_le'"):
        compare(_harm(), _harm(), "katetov_le")


def test_only_summable_and_density_state_weights_or_bound():
    h, g = harmonic_weights(8), sqrt_bound()
    assert summable(h).weights is h and summable(h).bound is None
    assert density(g).bound is g and density(g).weights is None
    wrapped = [unit(), counting()]
    for base in (summable(h), density(g), unit(), counting()):
        wrapped += [shift_normalize(base), permuted(base, (2, 1)), max_with_unit(base)]
    for phi in wrapped:
        assert phi.weights is None and phi.bound is None, phi


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_levels_must_be_finite(level):
    with pytest.raises(NonFiniteValue, match="Katetov level M must be positive and finite"):
        katetov_scan(harmonic_weights(50), ones_weights(50), level)
    with pytest.raises(NonFiniteValue, match="criterion level M must be positive and finite"):
        ideal_criterion_c(density(identity_bound()), density(sqrt_bound()), 30, level)
