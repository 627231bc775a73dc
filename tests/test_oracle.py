import random
from fractions import Fraction as F

import pytest

from gbv import oracle
from gbv._util import SizeRefusal
from gbv.oracle import hat_norm_oracle
from gbv.submeasure import (
    DensityBound,
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    hat_norm,
    identity_bound,
    max_with_unit,
    permuted,
    shift_normalize,
    sqrt_bound,
    summable,
    unit,
)


def test_oracle_examples():
    assert hat_norm_oracle(unit(), (3, -5, 2)) == 5
    w = summable(WatermanWeights([F(1), F(1, 2), F(1, 3)], form="table"))
    assert hat_norm_oracle(w, (1, 1, 1)) == F(11, 6)
    phi = density(sqrt_bound())
    x = (1, 1, 1, 1)
    assert hat_norm_oracle(phi, x) == hat_norm(phi, x) == 2


def test_oracle_empty_and_zero():
    assert hat_norm_oracle(counting(), ()) == 0
    assert hat_norm_oracle(counting(), (0, 0)) == 0


def test_size_refusal():
    with pytest.raises(SizeRefusal):
        hat_norm_oracle(counting(), (1,) * 13)


def test_density_prefix_formula_is_a_strict_lower_bound_off_monotone():
    # The dominated-measure supremum exceeds the prefix-sum formula when a
    # late coordinate dominates: mu = (3/4, 0, 0, 1/4) is dominated by the
    # identity-profile density submeasure and beats every uniform prefix.
    phi = density(identity_bound())
    x = (F(7, 4), 0, 0, 5)
    assert hat_norm(phi, x) == F(7, 4)
    assert hat_norm_oracle(phi, x) == F(41, 16)
    # ceiling profile, monotone input: rounding alone already opens a gap
    phi2 = density(sqrt_bound())
    y = (F(-13, 3), 10, F(1, 2), F(1, 3), F(-11, 3), F(-17, 3), F(-1, 8))
    assert hat_norm(phi2, y) == F(197, 24)
    assert hat_norm_oracle(phi2, y) == F(1195, 144)
    assert hat_norm(phi2, y) < hat_norm_oracle(phi2, y)


def test_constraint_generation_adds_violated_subsets_on_both_rails(monkeypatch):
    # The warm-start working set (singletons and descending-cost prefixes) is
    # not optimal for the off-monotone sqrt-density case pinned above, so the
    # certification scan must find violated subsets and re-solve.  The float
    # input is the same case scaled by 144: the LP value is positively
    # homogeneous in x, so it is exactly 144 * 1195/144 = 1195.
    working_sizes = []
    simplex_max = oracle._simplex_max

    def counting_simplex(cost, masks, phi_table):
        working_sizes.append(len(masks))
        return simplex_max(cost, masks, phi_table)

    monkeypatch.setattr(oracle, "_simplex_max", counting_simplex)
    phi = density(sqrt_bound())
    y = (F(-13, 3), 10, F(1, 2), F(1, 3), F(-11, 3), F(-17, 3), F(-1, 8))
    exact = hat_norm_oracle(phi, y)
    assert type(exact) is F and exact == F(1195, 144)
    assert len(working_sizes) > 1
    assert working_sizes == sorted(set(working_sizes))

    working_sizes.clear()
    x = tuple(float(144 * v) for v in y)
    floating = hat_norm_oracle(phi, x)
    assert type(floating) is float and floating == 1195.0
    assert len(working_sizes) > 1


def test_density_prefix_formula_exact_on_monotone_g1_profiles():
    rng = random.Random(1)
    profiles = [sqrt_bound(), identity_bound(), DensityBound("power", F(1, 3))]
    for phi_bound in profiles:
        phi = density(phi_bound)
        for _ in range(60):
            n = rng.randint(1, 8)
            x = sorted((F(rng.randint(0, 20), rng.randint(1, 8)) for _ in range(n)),
                       reverse=True)
            assert hat_norm(phi, x) == hat_norm_oracle(phi, x)


def test_density_prefix_formula_never_exceeds_oracle():
    rng = random.Random(2)
    phi = density(sqrt_bound())
    for _ in range(120):
        n = rng.randint(1, 8)
        x = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(n)]
        assert hat_norm(phi, x) <= hat_norm_oracle(phi, x)


def test_oracle_agreement_random_battery():
    rng = random.Random(3)

    def rand_waterman(n):
        vals, cur = [], F(rng.randint(5, 30), rng.randint(1, 3))
        for _ in range(n):
            vals.append(cur)
            cur = cur * F(rng.randint(5, 10), 10)
        return WatermanWeights(vals, form="table")

    for _ in range(40):
        x = tuple(F(rng.randint(-15, 15), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 7)))
        for phi in (unit(), counting(), summable(rand_waterman(7)),
                    shift_normalize(summable(rand_waterman(7))),
                    permuted(summable(rand_waterman(7)),
                             tuple(rng.sample(range(1, 8), 7)))):
            assert hat_norm(phi, x) == hat_norm_oracle(phi, x), repr(phi)


def test_max_with_unit_hat_routes_through_oracle():
    phi = max_with_unit(summable(harmonic_weights(8)))
    # mu = (1, 1/2) is dominated: singletons are max(a_i, 1) >= 1 each is
    # wrong for i = 2 (value 1), but the pair set allows 3/2 in total.
    assert hat_norm(phi, (1, 1)) == F(3, 2)
    assert hat_norm(phi, (1, 1)) == hat_norm_oracle(phi, (1, 1))
    with pytest.raises(SizeRefusal):
        hat_norm(phi, (1,) * 13)


def test_oracle_agreement_float_mode_within_tolerance():
    # float inputs: the closed forms accumulate rounding, the oracle is the
    # exact LP of the represented bits; agreement within 1e-12 relative
    rng = random.Random(5)
    for _ in range(40):
        x = tuple(rng.uniform(-10, 10) for _ in range(rng.randint(1, 7)))
        w = WatermanWeights([2.0 * 0.8 ** k for k in range(7)], form="table")
        for phi in (unit(), counting(), summable(w)):
            a, b = float(hat_norm(phi, x)), float(hat_norm_oracle(phi, x))
            assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_max_with_unit_nonpathology_on_indicators():
    # set value and hat of the indicator agree, i.e. the dominated measures
    # reach the set value (non-pathology at the finite level)
    phi = max_with_unit(summable(harmonic_weights(10)))
    rng = random.Random(4)
    for _ in range(25):
        C = sorted(rng.sample(range(1, 11), rng.randint(1, 5)))
        x = tuple(1 if i in C else 0 for i in range(1, 11))
        assert hat_norm_oracle(phi, x) == phi.set_value(C)


# ---------------------------------------------------------------------------
# the integer tableau against a Fraction tableau
# ---------------------------------------------------------------------------


def _fraction_simplex(cost, masks, phi_table):
    """Dense Fraction tableau with Bland's rule: smallest-index entering
    column, and on a ratio tie the row whose basic variable has the smaller
    index.  Returns (value, mu, number of ratio ties met)."""
    k, m = len(cost), len(masks)
    rows = [[F(mask >> j & 1) for j in range(k)] + [F(int(s == r)) for s in range(m)]
            + [F(phi_table[mask])] for r, mask in enumerate(masks)]
    obj = [-F(c) for c in cost] + [F(0)] * (m + 1)
    basis = list(range(k, k + m))
    ties = 0
    while True:
        enter = next((j for j in range(k + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for r in range(m):
            if rows[r][enter] > 0:
                ratio = rows[r][-1] / rows[r][enter]
                if leave is None or ratio < best:
                    leave, best = r, ratio
                elif ratio == best:
                    ties += 1
                    if basis[r] < basis[leave]:
                        leave = r
        prow = [v / rows[leave][enter] for v in rows[leave]]
        rows[leave] = prow
        for row in rows + [obj]:
            if row is not prow:
                f = row[enter]
                row[:] = [a - f * b for a, b in zip(row, prow)]
        basis[leave] = enter
    mu = [F(0)] * k
    for r, b in enumerate(basis):
        if b < k:
            mu[b] = rows[r][-1]
    return sum((c * v for c, v in zip(cost, mu)), F(0)), mu, ties


def _assert_same_as_reference(cost, masks, phi_table):
    value, mu = oracle._simplex_max(cost, masks, phi_table)
    ref_value, ref_mu, ties = _fraction_simplex(cost, masks, phi_table)
    assert (value, mu) == (ref_value, ref_mu)
    assert type(value) is F and all(type(v) is F for v in mu)
    return ties


def _random_masks(rng, k):
    """Singletons (which keep the LP bounded) plus distinct random subsets."""
    masks = [1 << j for j in range(k)]
    for mask in rng.sample(range(1, 1 << k), min(rng.randint(1, 2 * k), (1 << k) - 1)):
        if mask not in masks:
            masks.append(mask)
    return masks


def test_integer_tableau_matches_fraction_tableau_on_degenerate_ties():
    # phi in {0, 1, 2} and small integer costs: many zero and equal ratios,
    # so the leaving row is often settled by Bland's tie-break
    rng = random.Random(11)
    ties = 0
    for _ in range(300):
        k = rng.randint(1, 7)
        phi_table = [rng.randint(0, 2) for _ in range(1 << k)]
        cost = [F(rng.randint(1, 3)) for _ in range(k)]
        ties += _assert_same_as_reference(cost, _random_masks(rng, k), phi_table)
    assert ties > 100


def test_integer_tableau_matches_fraction_tableau_on_float_costs():
    # float-derived costs and phi carry denominators up to 2^52 and beyond
    rng = random.Random(12)
    for _ in range(150):
        k = rng.randint(1, 7)
        phi_table = [F(rng.uniform(0.0, 3.0)) for _ in range(1 << k)]
        cost = [abs(F(rng.uniform(-10.0, 10.0))) or F(1) for _ in range(k)]
        assert max(c.denominator for c in cost) >= 2 ** 40
        _assert_same_as_reference(cost, _random_masks(rng, k), phi_table)


def test_integer_tableau_matches_fraction_tableau_on_max_with_unit_working_sets(monkeypatch):
    # the working sets that constraint generation builds for max_with_unit,
    # recorded at each call as the oracle makes it
    calls = []
    simplex_max = oracle._simplex_max

    def recording(cost, masks, phi_table):
        calls.append((list(cost), list(masks), list(phi_table)))
        return simplex_max(cost, masks, phi_table)

    monkeypatch.setattr(oracle, "_simplex_max", recording)
    rng = random.Random(13)
    bases = (summable([F(3, i + 4) for i in range(1, 9)]), density(sqrt_bound()))
    for base in bases:
        phi = max_with_unit(base)
        for _ in range(6):
            x = [F(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(rng.randint(3, 8))]
            hat_norm_oracle(phi, x)
            hat_norm_oracle(phi, [float(v) * rng.uniform(0.5, 2.0) for v in x])
    assert len(calls) > 2 * len(bases) * 6
    monkeypatch.undo()
    for cost, masks, phi_table in calls:
        _assert_same_as_reference(cost, masks, phi_table)
