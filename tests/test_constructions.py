import random
from fractions import Fraction as F

import numpy as np
import pytest

from gbv._util import HorizonExceeded, HypothesisViolation, exact_div
from gbv.constructions import (
    ConstructionCertificate,
    density_witness_monotone,
    density_witness_set,
    exh_minus_fin_sequence,
    permuted_equivalence_demo,
    separating_sequence,
    zigzag_from_sequence,
)
from gbv.selftest import exact_density_table
from gbv.sequence_spaces import is_monotone
from gbv.submeasure import (
    DensityBound,
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    hat_norm,
    identity_bound,
    log_bound,
    ones_weights,
    sqrt_bound,
    summable,
    tail_norm,
    unit,
)
from gbv.variation import jordan_variation, pl_from_points, variation_bruteforce


# ---------------------------------------------------------------------------
# density witnesses
# ---------------------------------------------------------------------------

def test_density_witness_monotone_classic():
    cert = density_witness_monotone(identity_bound(), sqrt_bound(), 100)
    assert cert.all_passed
    assert cert.obj.entries == (1,) * 100          # height g(n)/n = 1 for g = n
    assert cert.details["ratio_lower_bound"] == 10  # 100 / ceil(sqrt(100))


def test_density_witness_monotone_equal_profiles():
    cert = density_witness_monotone(sqrt_bound(), sqrt_bound(), 7)
    assert cert.all_passed
    assert hat_norm(density(sqrt_bound()), cert.obj) == 1


def test_density_witness_monotone_base_case():
    g = DensityBound("table", table=[2, 3, 4])
    cert = density_witness_monotone(g, g, 1)
    assert cert.obj.entries == (2,)                # x = (g(1)) and g-norm exactly 1
    assert cert.all_passed


def test_density_witness_monotone_ceiling_profile_stays_at_one():
    # the exact-max height absorbs ceiling slack: the g-norm is exactly 1
    # even where n/g(n) is non-monotone
    for n in (5, 7, 23, 100):
        cert = density_witness_monotone(sqrt_bound(), identity_bound(), n)
        assert cert.all_passed
        assert hat_norm(density(sqrt_bound()), cert.obj) == 1


def test_density_witness_set_found():
    cert = density_witness_set(identity_bound(), sqrt_bound(), 1, 10 ** 6)
    assert cert.all_passed
    assert cert.details["n"] == 73                 # first ratio beyond 8*delta
    assert density(identity_bound()).set_value(cert.obj) <= F(1, 2)
    assert density(sqrt_bound()).set_value(cert.obj) >= 2


def test_density_witness_set_level_two():
    cert = density_witness_set(identity_bound(), sqrt_bound(), 2, 10 ** 6)
    assert cert.all_passed
    assert density(identity_bound()).set_value(cert.obj) <= F(1, 4)
    assert density(sqrt_bound()).set_value(cert.obj) >= 4


def test_density_witness_set_no_witness():
    cert = density_witness_set(sqrt_bound(), sqrt_bound(), 1, 10 ** 4)
    assert cert.obj is None
    assert "no-witness-below-bound" in cert.notes
    cert2 = density_witness_set(identity_bound(), sqrt_bound(), 14, 10 ** 4)
    assert "no-witness-below-bound" in cert2.notes


def _density_profiles(length):
    """Power, log and table profiles; the tables reach ``length``."""
    return [identity_bound(), sqrt_bound(), log_bound(), DensityBound("power", F(1, 3)),
            DensityBound("table", table=[min(n, 12) for n in range(1, length + 1)]),
            DensityBound("table", table=[n + 3 for n in range(1, length + 1)]),
            DensityBound("table", table=[min(2 * n + 1, 45) for n in range(1, length + 1)])]


def _typed(values):
    return {k: (v, type(v)) for k, v in values.items()}


def _reference_witness_monotone(g, h, n):
    """The numbers of the flat witness with one Fraction per index."""
    s = max(exact_div(m, g.g(m)) for m in range(1, n + 1))
    return {"n": n, "s": s, "height": exact_div(1, s),
            "ratio_lower_bound": exact_div(n, h.g(n) * s),
            "ideal_ratio": exact_div(g.g(n), h.g(n))}


def _reference_witness_set(g, h, k, search_bound):
    """(F, details) of the dyadic interval search with Fraction ratios."""
    phi_g, phi_h = density(g), density(h)
    delta = F(max(g.g(1), 1))
    threshold = F(2 ** k * 2 ** (k + 1)) * delta
    for n in range(1, search_bound + 1):
        gn, hn = g.g(n), h.g(n)
        if F(gn, n) > delta:
            delta = F(gn, n)
            threshold = F(2 ** k * 2 ** (k + 1)) * delta
        if F(gn, hn) <= threshold:
            continue
        j = 0
        while (2 ** (j + 1)) * delta < gn:
            j += 1
        if j < k:
            continue
        a = n - 2 ** (j - k)
        if a < 0:
            continue
        S = frozenset(range(a + 1, n + 1))
        if phi_g.set_value(S) <= F(1, 2 ** k) and phi_h.set_value(S) >= 2 ** k:
            return S, {"n": n, "a": a, "j": j, "k": k, "delta": delta}
    return None, {"k": k, "search_bound": search_bound, "delta": delta}


def test_density_witness_monotone_matches_fraction_reference():
    profiles = _density_profiles(200)
    for g in profiles:
        for h in profiles:
            for n in (1, 2, 7, 60, 200):
                cert = density_witness_monotone(g, h, n)
                want = _reference_witness_monotone(g, h, n)
                assert _typed(cert.details) == _typed(want)
                assert cert.obj.entries == (want["height"],) * n


def test_density_witness_set_matches_fraction_reference():
    profiles = _density_profiles(400)
    found = 0
    for g in profiles:
        for h in profiles:
            for k in (1, 2):
                cert = density_witness_set(g, h, k, 400)
                obj, details = _reference_witness_set(g, h, k, 400)
                assert cert.obj == obj and _typed(cert.details) == _typed(details)
                found += obj is not None
    assert found >= 10


def test_density_bounds_keep_g_over_n_at_most_g1():
    # the invariant that lets density_witness_set hold delta at g(1)
    rng = random.Random(43)
    profiles = _density_profiles(10 ** 4) + [DensityBound("power", F(7, 10))]
    profiles += [exact_density_table(rng, n=rng.randint(2, 40), first=rng.choice((None, 5, 12)))
                 for _ in range(200)]
    for g in profiles:
        g1 = g.g(1)
        for n in range(1, (g.horizon or 10 ** 4) + 1):
            assert g.g(n) <= g1 * n, (g, n)


def test_density_witnesses_on_tables_keep_their_horizon_errors():
    table = DensityBound("table", table=[min(n, 12) for n in range(1, 101)])
    for g, h in ((table, identity_bound()), (identity_bound(), table)):
        with pytest.raises(HorizonExceeded, match="density table ends at 100, asked for 101"):
            density_witness_monotone(g, h, 101)
    with pytest.raises(HorizonExceeded, match="density table ends at 100, asked for 101"):
        density_witness_set(table, table, 1, 101)
    with pytest.raises(ValueError, match="witness index n must be at least 1, got 0"):
        density_witness_monotone(identity_bound(), sqrt_bound(), 0)


# ---------------------------------------------------------------------------
# zig-zag function
# ---------------------------------------------------------------------------

def test_zigzag_single_descent():
    f, cert = zigzag_from_sequence((1,))
    assert jordan_variation(f) == 1
    assert cert.all_passed


def test_zigzag_counting_example():
    f, cert = zigzag_from_sequence((1, F(1, 2), F(1, 4)), counting())
    assert cert.all_passed
    assert cert.details["variation"] == F(7, 4)
    assert f.breakpoints == (0, F(1, 8), F(1, 4), F(1, 2), 1)
    assert f.values == (F(3, 4), F(3, 4), F(1, 2), 1, 0)


def test_zigzag_weighted_example():
    A = WatermanWeights([F(1), F(1, 2), F(1, 3)], form="table")
    f, cert = zigzag_from_sequence((1, F(1, 2), F(1, 4)), summable(A))
    assert cert.all_passed
    assert cert.details["variation"] == F(4, 3)


def test_zigzag_identity_random_battery():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 6)
        x = sorted((F(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(n)),
                   reverse=True)
        x = [v if rng.random() < 0.7 else -v for v in x]
        phi = counting() if rng.random() < 0.5 else summable(harmonic_weights(8))
        f, cert = zigzag_from_sequence(x, phi)
        assert cert.all_passed
        assert variation_bruteforce(f, phi) == hat_norm(phi, [abs(v) for v in x])


def test_zigzag_certifies_on_both_rails():
    # float partial sums round (0.33333333333333326 vs 0.3333333333333333),
    # so the float rail compares within a relative slack
    _, cert = zigzag_from_sequence([1.0 / k for k in range(1, 21)])
    assert cert.all_passed
    _, cert = zigzag_from_sequence([1.0 / k for k in range(1, 9)],
                                   summable(harmonic_weights(8)))
    assert cert.all_passed
    # the exact rail compares exactly, with no float entering the checks
    f, cert = zigzag_from_sequence([F(1, k) for k in range(1, 21)])
    assert cert.all_passed and f.is_exact()
    assert all(type(c.lhs) in (int, F) and type(c.rhs) in (int, F) for c in cert.checks)
    assert cert.notes == ()


def test_zigzag_float_notes_the_entries_within_the_slack():
    # 1e-310 and 5e-324 are lost in the partial sums and still pass within
    # the slack, so the certificate says it does not certify them
    _, cert = zigzag_from_sequence([0.9, 0.3333333333333333, 1e-310, 5e-324])
    assert cert.all_passed and [c.lhs for c in cert.checks[2:]] == [0.0, 0.0]
    assert cert.notes == ("not certified: |x_k| <= float slack 1e-09 for k = 3, 4",)
    _, cert = zigzag_from_sequence([5.0, 1e-8, 5e-9, 4e-9])
    assert cert.notes == ("not certified: |x_k| <= float slack 5e-09 for k = 3, 4",)
    _, cert = zigzag_from_sequence([1.0 / k for k in range(1, 21)])
    assert cert.notes == ()
    # the exact rail certifies zero entries exactly and adds no note
    _, cert = zigzag_from_sequence([1, F(1, 2), 0, 0])
    assert cert.all_passed and cert.notes == ()


def test_zigzag_rejects_non_monotone():
    with pytest.raises(HypothesisViolation):
        zigzag_from_sequence((1, 2))


# ---------------------------------------------------------------------------
# vanishing-tail-but-unbounded construction
# ---------------------------------------------------------------------------

def test_exh_minus_fin_depth_two():
    phi1, phi2 = density(identity_bound()), counting()
    cert = exh_minus_fin_sequence(phi1, phi2, depth=3, witness_search_len=2 ** 10)
    assert cert.details["depth_reached"] >= 2
    assert cert.all_passed
    # re-verify the exact block values through the public operations
    blocks = cert.details["blocks"]
    x = cert.obj.entries
    first = blocks[0]
    vec = (0,) * (first["start"] - 1) + x[first["start"] - 1:first["end"]]
    assert hat_norm(phi1, vec) == F(1, 2 ** first["n_k"])
    assert hat_norm(phi2, vec) > 2 ** first["n_k"]
    cut = first["end"] + 1
    assert tail_norm(phi1, x, cut) <= sum(F(1, 2 ** b["n_k"]) for b in blocks[1:])


def test_exh_minus_fin_monotone_variant():
    cert = exh_minus_fin_sequence(density(identity_bound()), counting(),
                                  depth=2, witness_search_len=2 ** 12, monotone=True)
    assert cert.details["depth_reached"] == 2
    assert cert.all_passed
    assert is_monotone(cert.obj)


def test_exh_minus_fin_search_failure_when_dominated():
    cert = exh_minus_fin_sequence(counting(), counting(), depth=2,
                                  witness_search_len=64)
    assert cert.details["depth_reached"] == 0
    assert any("search failed" in note for note in cert.notes)


# ---------------------------------------------------------------------------
# separating sequence
# ---------------------------------------------------------------------------

def test_separating_sequence_full_scale():
    cert = separating_sequence(harmonic_weights(16), sqrt_bound(), i_max=3)
    assert cert.all_passed
    assert "convergent-branch" in cert.notes
    n_i = cert.details["n_i"]
    assert len(n_i) == 4 and n_i[-1] <= 10 ** 6
    y = np.array(cert.obj.entries)
    assert is_monotone(y)
    phi_g = density(sqrt_bound())
    for i in range(1, 4):
        assert float(phi_g.truncation_norms(y[:n_i[i]])[-1]) >= (i + 1) / 2


def test_separating_divergent_branch():
    cert = separating_sequence(ones_weights(8), sqrt_bound(), i_max=2)
    assert "divergent-branch" in cert.notes
    assert cert.all_passed


def test_separating_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        separating_sequence(harmonic_weights(8), identity_bound(), i_max=2)
    growing = DensityBound("table", table=[1, 2, 3, 4, 5])
    with pytest.raises(HypothesisViolation):
        separating_sequence(harmonic_weights(8), growing, i_max=1)


def test_separating_horizon_exhaustion():
    with pytest.raises(HorizonExceeded):
        separating_sequence(harmonic_weights(8), sqrt_bound(), i_max=3, horizon=2000)


# ---------------------------------------------------------------------------
# permutation demo and certificate plumbing
# ---------------------------------------------------------------------------

def test_permuted_demo_identity_and_random():
    f = pl_from_points([(0, 0), (F(1, 2), 1), (1, 0)])
    cert = permuted_equivalence_demo(unit(), (1, 2), f)
    assert cert.all_passed
    rng = random.Random(43)
    for _ in range(8):
        cuts = sorted(rng.sample(range(1, 64), 4))
        g = pl_from_points(
            [(0, F(rng.randint(-8, 8), 3))]
            + [(F(c, 64), F(rng.randint(-8, 8), 3)) for c in cuts]
            + [(1, F(rng.randint(-8, 8), 3))])
        phi = summable(harmonic_weights(8))
        cert = permuted_equivalence_demo(phi, tuple(rng.sample(range(1, 9), 8)), g)
        assert cert.all_passed


def test_certificate_consistency_enforced():
    from gbv.constructions import CheckRecord

    good = CheckRecord("x", 1, "<=", 2, True)
    with pytest.raises(ValueError):
        ConstructionCertificate("k", None, (good,), all_passed=False)


def test_separating_second_convergent_profile():
    # harmonic weights against the cube-root profile: a_n x_n ~ n^(-5/3)
    cert = separating_sequence(harmonic_weights(16), DensityBound("power", F(1, 3)),
                               i_max=2, horizon=10 ** 6)
    assert cert.all_passed
    assert cert.details["n_i"] == [8, 191, 3079]


def test_separating_divergent_by_comparison_table():
    # q = 1/3 below p = 1/2: the weighted increments diverge and the base
    # sequence itself is the separator
    from gbv.submeasure import power_weights

    cert = separating_sequence(power_weights(F(1, 3), 16), sqrt_bound(), i_max=2,
                               horizon=10 ** 5)
    assert "divergent-branch" in cert.notes
    assert cert.all_passed


def test_permuted_demo_literal_triple():
    from gbv.variation import tent

    phi = summable(WatermanWeights([F(1), F(1, 2), F(1, 3)], form="table"))
    cert = permuted_equivalence_demo(phi, (2, 1, 3), tent())
    assert cert.all_passed
    assert cert.details["variation"] == F(3, 2)   # oscillations (1, 1) against (1, 1/2)
