import math
import random
from fractions import Fraction as F

import pytest

from gbv import oracle
from gbv._util import INT64_BOUND, NonFiniteValue, SizeRefusal, subset_sums
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oracle_refuses_non_finite_entries(bad):
    with pytest.raises(NonFiniteValue, match="entry 2 of the sequence is not finite"):
        hat_norm_oracle(counting(), [1.0, bad])
    with pytest.raises(NonFiniteValue, match="entry 3 of the sequence is not finite"):
        hat_norm_oracle(max_with_unit(summable(harmonic_weights(4))), (1, 0, bad))


def test_oracle_float_value_past_the_float_range_is_refused():
    # finite float entries whose exact hat-norm passes the largest float
    with pytest.raises(NonFiniteValue, match=r"hat-norm value 2\.400000e\+308 overflows a float"):
        hat_norm_oracle(counting(), [1.7e308, 7e307])
    with pytest.raises(NonFiniteValue, match="overflows a float"):
        hat_norm_oracle(max_with_unit(counting()), [F(17, 10) * 10 ** 308, 7e307])
    assert hat_norm_oracle(counting(), [1.7e308, 1e306]) == 1.7e308 + 1e306


def test_size_refusal():
    with pytest.raises(SizeRefusal):
        hat_norm_oracle(counting(), (1,) * 13)


def test_size_cap_counts_the_support_not_the_zeros():
    assert hat_norm_oracle(counting(), [1, 2, 3, 4, 5] + [0] * 11) == 15
    assert hat_norm_oracle(unit(), [0] * 20 + [F(7, 2)]) == F(7, 2)
    with pytest.raises(SizeRefusal, match=r"support of 12 coordinates \(got 13 nonzero\)"):
        hat_norm_oracle(counting(), [0, 1] * 13)
    # the NaN check comes first and sees every entry, zeros included
    with pytest.raises(NonFiniteValue, match="entry 30 of the sequence is not finite"):
        hat_norm_oracle(counting(), [1] * 13 + [0] * 16 + [math.nan])


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
    # The singleton vertex mu_j = phi({j}) is not optimal for the
    # off-monotone sqrt-density case pinned above, so the certification scan
    # must find violated subsets and add them.  The float input is the same
    # case scaled by 144: the LP value is positively homogeneous in x, so it
    # is exactly 144 * 1195/144 = 1195.
    tableaux = _record_rounds(monkeypatch)
    phi = density(sqrt_bound())
    y = (F(-13, 3), 10, F(1, 2), F(1, 3), F(-11, 3), F(-17, 3), F(-1, 8))
    exact = hat_norm_oracle(phi, y)
    assert type(exact) is F and exact == F(1195, 144)
    x = tuple(float(144 * v) for v in y)
    floating = hat_norm_oracle(phi, x)
    assert type(floating) is float and floating == 1195.0

    assert len(tableaux) == 2
    for record in tableaux:
        sizes = [len(masks) for masks, _, _ in record["rounds"]]
        assert len(sizes) > 1
        assert sizes == sorted(set(sizes))
        for masks, value, mu in record["rounds"]:
            _assert_round_matches_cold_reference(record, masks, value, mu)


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
    """Dense Fraction tableau solved cold from the slack basis.  Returns
    (value, mu, number of ratio ties met)."""
    tableau, ties = _fraction_tableau(cost, masks, phi_table)
    return (*_fraction_solution(tableau, cost), ties)


def _fraction_tableau(cost, masks, phi_table):
    """Dense Fraction tableau over the slack basis, solved with Bland's rule:
    smallest-index entering column, and on a ratio tie the row whose basic
    variable has the smaller index.  Returns ((rows, obj, basis), number of
    ratio ties met)."""
    k, m = len(cost), len(masks)
    rows = [[F(mask >> j & 1) for j in range(k)] + [F(int(s == r)) for s in range(m)]
            + [F(phi_table[mask])] for r, mask in enumerate(masks)]
    obj = [-F(c) for c in cost] + [F(0)] * (m + 1)
    basis = list(range(k, k + m))
    ties = 0
    while True:
        enter = next((j for j in range(k + m) if obj[j] < 0), None)
        if enter is None:
            return (rows, obj, basis), ties
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
        _fraction_pivot(rows, obj, basis, leave, enter)


def _fraction_pivot(rows, obj, basis, leave, enter):
    prow = [v / rows[leave][enter] for v in rows[leave]]
    rows[leave] = prow
    for row in rows + [obj]:
        if row is not prow:
            f = row[enter]
            row[:] = [a - f * b for a, b in zip(row, prow)]
    basis[leave] = enter


def _fraction_solution(tableau, cost):
    rows, _, basis = tableau
    mu = [F(0)] * len(cost)
    for r, b in enumerate(basis):
        if b < len(cost):
            mu[b] = rows[r][-1]
    return sum((c * v for c, v in zip(cost, mu)), F(0)), mu


def _fraction_add_row(tableau, mask, phi_table):
    """Add mask's row and slack column to the Fraction tableau, write the
    row in the current basis, and take dual simplex steps: the
    negative-rhs row with the smallest basic variable leaves, the column of
    least ratio obj_j / -a_j over a_j < 0 enters, the smallest j on a tie.
    Returns the number of ratio ties met."""
    rows, obj, basis = tableau
    n = len(obj) - 1
    for row in rows + [obj]:
        row.insert(n, F(0))
    # mask < 2^k, so its bits vanish on the slack columns
    new = [F(mask >> j & 1) for j in range(n)] + [F(1), F(phi_table[mask])]
    for r, b in enumerate(basis):
        f = new[b]
        if f:
            new = [a - f * c for a, c in zip(new, rows[r])]
    rows.append(new)
    basis.append(n)
    ties = 0
    while True:
        negative = [r for r, row in enumerate(rows) if row[-1] < 0]
        if not negative:
            return ties
        leave = min(negative, key=lambda r: basis[r])
        enter, best = None, None
        for j in range(n + 1):
            a = rows[leave][j]
            if a < 0:
                ratio = obj[j] / -a
                if enter is None or ratio < best:
                    enter, best = j, ratio
                elif ratio == best:
                    ties += 1
        _fraction_pivot(rows, obj, basis, leave, enter)


def _over_lcm(phi_table):
    """A table of rationals as (numerators, den) over the lcm of its
    denominators, the form the integer tableau reads."""
    den = math.lcm(*(F(v).denominator for v in phi_table))
    return [F(v).numerator * (den // F(v).denominator) for v in phi_table], den


def _assert_same_as_reference(cost, masks, phi_num, phi_den):
    """The integer tableau on (phi_num, phi_den), started at the singleton
    vertex and given the other masks one at a time through add_row, against
    the cold Fraction tableau on the same working set.  Returns the number
    of ratio ties the cold solve met."""
    tableau = oracle._Tableau(cost, phi_num, phi_den)
    for mask in masks[len(cost):]:
        tableau.add_row(mask)
    value, mu = tableau.solution()
    phi_table = [F(v, phi_den) for v in phi_num]
    ref_value, _, ties = _fraction_simplex(cost, masks, phi_table)
    _assert_feasible_optimum(cost, masks, phi_table, value, mu, ref_value)
    return ties


def _assert_feasible_optimum(cost, masks, phi_table, value, mu, ref_value):
    """mu is dominated by phi on every mask of the working set and reaches
    the reference value.  The integer tableau may end at another optimal
    vertex than a cold solve, so mu itself is not compared."""
    assert value == ref_value
    assert type(value) is F and all(type(v) is F and v >= 0 for v in mu)
    for mask in masks:
        assert sum(v for j, v in enumerate(mu) if mask >> j & 1) <= phi_table[mask]
    assert sum(c * v for c, v in zip(cost, mu)) == ref_value


def _record_rounds(monkeypatch):
    """Record every tableau the oracle builds: its cost and phi table, and
    the working set (the singletons, then each added mask), value and mu of
    each round as the oracle reads them."""
    tableaux = []
    init = oracle._Tableau.__init__
    add_row = oracle._Tableau.add_row
    solution = oracle._Tableau.solution

    def recording_init(self, cost, phi_num, phi_den):
        self.record = dict(cost=list(cost), phi=(list(phi_num), phi_den),
                           working=[1 << j for j in range(len(cost))], rounds=[])
        tableaux.append(self.record)
        init(self, cost, phi_num, phi_den)

    def recording_add_row(self, mask):
        self.record["working"].append(mask)
        add_row(self, mask)

    def recording_solution(self):
        value, mu = solution(self)
        self.record["rounds"].append((list(self.record["working"]), value, mu))
        return value, mu

    monkeypatch.setattr(oracle._Tableau, "__init__", recording_init)
    monkeypatch.setattr(oracle._Tableau, "add_row", recording_add_row)
    monkeypatch.setattr(oracle._Tableau, "solution", recording_solution)
    return tableaux


def _assert_round_matches_cold_reference(record, masks, value, mu):
    """One recorded round against the cold Fraction tableau on its working
    set."""
    phi_num, phi_den = record["phi"]
    phi_table = [F(v, phi_den) for v in phi_num]
    ref_value, _, _ = _fraction_simplex(record["cost"], masks, phi_table)
    _assert_feasible_optimum(record["cost"], masks, phi_table, value, mu, ref_value)


def _random_masks(rng, k):
    """Singletons (which keep the LP bounded) plus distinct random subsets."""
    masks = [1 << j for j in range(k)]
    for mask in rng.sample(range(1, 1 << k), min(rng.randint(1, 2 * k), (1 << k) - 1)):
        if mask not in masks:
            masks.append(mask)
    return masks


def test_integer_tableau_matches_fraction_tableau_on_degenerate_ties():
    # phi in {0, 1, 2} and small integer costs: a degenerate polytope, many
    # zero and equal ratios, and often more than one optimal vertex
    rng = random.Random(11)
    ties = 0
    for _ in range(300):
        k = rng.randint(1, 7)
        phi_table = [rng.randint(0, 2) for _ in range(1 << k)]
        cost = [F(rng.randint(1, 3)) for _ in range(k)]
        ties += _assert_same_as_reference(cost, _random_masks(rng, k), *_over_lcm(phi_table))
    assert ties > 100


def test_integer_tableau_matches_fraction_tableau_on_float_costs():
    # float-derived costs and phi carry denominators up to 2^52 and beyond
    rng = random.Random(12)
    for _ in range(150):
        k = rng.randint(1, 7)
        phi_table = [F(rng.uniform(0.0, 3.0)) for _ in range(1 << k)]
        cost = [abs(F(rng.uniform(-10.0, 10.0))) or F(1) for _ in range(k)]
        assert max(c.denominator for c in cost) >= 2 ** 40
        _assert_same_as_reference(cost, _random_masks(rng, k), *_over_lcm(phi_table))


def test_integer_tableau_matches_fraction_tableau_on_max_with_unit_working_sets(monkeypatch):
    # the working sets that constraint generation builds for max_with_unit,
    # recorded at each round as the oracle reads it
    tableaux = _record_rounds(monkeypatch)
    rng = random.Random(13)
    bases = (summable([F(3, i + 4) for i in range(1, 9)]), density(sqrt_bound()))
    for base in bases:
        phi = max_with_unit(base)
        for _ in range(6):
            x = [F(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(rng.randint(3, 8))]
            hat_norm_oracle(phi, x)
            hat_norm_oracle(phi, [float(v) * rng.uniform(0.5, 2.0) for v in x])
    rounds = [(record, *r) for record in tableaux for r in record["rounds"]]
    assert len(rounds) > 2 * len(bases) * 6
    monkeypatch.undo()
    for record, masks, value, mu in rounds:
        _assert_round_matches_cold_reference(record, masks, value, mu)


def _violated_masks(mu, phi_table):
    return [mask for mask in range(1, len(phi_table))
            if sum(v for j, v in enumerate(mu) if mask >> j & 1) > phi_table[mask]]


def _assert_dual_steps_match(rng, cost, phi_table):
    """Grow a working set of singletons by random violated masks, one at a
    time: after each dual step the integer tableau has the (value, mu) of
    the same steps on the Fraction tableau, and the value of the cold
    Fraction tableau on the enlarged working set.  Returns (steps taken,
    ratio ties met in the dual steps)."""
    k = len(cost)
    masks = [1 << j for j in range(k)]
    tableau = oracle._Tableau(cost, *_over_lcm(phi_table))
    reference, _ = _fraction_tableau(cost, masks, phi_table)
    steps = ties = 0
    while True:
        value, mu = tableau.solution()
        assert (value, mu) == _fraction_solution(reference, cost)
        ref_value, _, _ = _fraction_simplex(cost, masks, phi_table)
        _assert_feasible_optimum(cost, masks, phi_table, value, mu, ref_value)
        violated = _violated_masks(mu, phi_table)
        if not violated:
            return steps, ties
        mask = rng.choice(violated)
        masks.append(mask)
        tableau.add_row(mask)
        ties += _fraction_add_row(reference, mask, phi_table)
        steps += 1


def test_dual_step_matches_fraction_tableau_on_degenerate_ties():
    # phi in {0, 1, 2} and small integer costs: many zero reduced costs and
    # equal ratios, so the entering column is often settled by the tie-break
    rng = random.Random(14)
    steps = ties = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        phi_table = [0] + [rng.randint(0, 2) for _ in range(1, 1 << k)]
        cost = [F(rng.randint(1, 3)) for _ in range(k)]
        s, t = _assert_dual_steps_match(rng, cost, phi_table)
        steps += s
        ties += t
    assert steps > 200
    assert ties > 100


def test_dual_step_matches_fraction_tableau_on_float_tables():
    # float-derived costs and phi carry denominators up to 2^52 and beyond
    rng = random.Random(15)
    steps = 0
    for _ in range(60):
        k = rng.randint(1, 6)
        phi_table = [F(0)] + [F(rng.uniform(0.0, 3.0)) for _ in range(1, 1 << k)]
        cost = [abs(F(rng.uniform(-10.0, 10.0))) or F(1) for _ in range(k)]
        steps += _assert_dual_steps_match(rng, cost, phi_table)[0]
    assert steps > 60


# ---------------------------------------------------------------------------
# the certification scan
# ---------------------------------------------------------------------------


def _first_worst_mask(mu, phi_num, phi_den):
    """The plain-Python scan: the first mask of largest violation
    mu(S) - phi(S), and that violation, in Fractions."""
    violations = [s - F(p, phi_den) for s, p in zip(subset_sums(mu), phi_num)]
    worst = max(violations)
    return violations.index(worst), worst


def _assert_added_masks_are_first_worst(record):
    """Each mask added after a round is the first mask of largest violation
    of that round's mu, and the last round violates nothing."""
    phi_num, phi_den = record["phi"]
    rounds = record["rounds"]
    for (_, _, mu), (working, _, _) in zip(rounds, rounds[1:]):
        mask, worst = _first_worst_mask(mu, phi_num, phi_den)
        assert worst > 0 and working[-1] == mask
    assert _first_worst_mask(rounds[-1][2], phi_num, phi_den)[1] <= 0


def test_scan_adds_the_first_mask_of_largest_violation_on_both_rails(monkeypatch):
    # counting and unit take small integer values, so equal violations are
    # common and the first-argmax rule decides the mask
    tableaux = _record_rounds(monkeypatch)
    rng = random.Random(16)
    variants = (unit(), counting(), summable(harmonic_weights(9)), density(sqrt_bound()),
                shift_normalize(density(identity_bound())),
                max_with_unit(summable([F(3, i + 4) for i in range(1, 10)])))
    added = {True: 0, False: 0}
    for phi in variants:
        for _ in range(4):
            x = [F(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(rng.randint(4, 9))]
            for exact in (True, False):
                del tableaux[:]
                value = hat_norm_oracle(phi, x if exact else [float(v) for v in x])
                assert type(value) is (F if exact else float)
                for record in tableaux:
                    _assert_added_masks_are_first_worst(record)
                    added[exact] += len(record["rounds"]) - 1
    assert added[True] > 50 and added[False] > 50


def test_scan_on_python_ints_beyond_int64(monkeypatch):
    # Waterman weights in (1/3, 2/3) over ten denominators near 3^41: phi's
    # numerators over their lcm pass 2^62, so every round scans an object
    # array of Python ints.  The summable LP ends at its first round, the
    # closed form; under max_with_unit the unit part binds on small sets,
    # so rows are added, and each round matches the cold Fraction tableau
    # and adds the first mask of largest violation.
    tableaux = _record_rounds(monkeypatch)
    rng = random.Random(17)
    base = summable(WatermanWeights(
        sorted((F(rng.randint(3 ** 40, 2 * 3 ** 40), 3 ** 41 + rng.randint(1, 10 ** 6))
                for _ in range(10)), reverse=True), form="table"))
    x = [F(rng.randint(1, 24), rng.randint(1, 8)) * rng.choice((-1, 1)) for _ in range(10)]
    assert hat_norm_oracle(base, x) == hat_norm(base, x)
    assert type(hat_norm_oracle(max_with_unit(base), x)) is F
    assert type(hat_norm_oracle(max_with_unit(base), [float(v) for v in x])) is float
    assert len(tableaux) == 3
    monkeypatch.undo()
    rounds = 0
    for record in tableaux:
        assert max(record["phi"][0]) >= INT64_BOUND
        _assert_added_masks_are_first_worst(record)
        for masks, value, mu in record["rounds"]:
            _assert_round_matches_cold_reference(record, masks, value, mu)
            rounds += 1
    assert rounds > 12


def test_scan_bound_counts_phi_as_well_as_mu(monkeypatch):
    # Weights over the one denominator 3^39 under max_with_unit: in some
    # round D * mu(support) is below 2^62 while D * max phi is past 2^63, so
    # a bound on mu alone would send phi's numerators into int64.
    tableaux = _record_rounds(monkeypatch)
    rng = random.Random(21)
    d = 3 ** 39
    w = sorted((F(rng.randint(d // 10, d // 2), d) for _ in range(8)), reverse=True)
    x = [F(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(8)]
    assert type(hat_norm_oracle(max_with_unit(summable(WatermanWeights(w, form="table"))), x)) is F
    monkeypatch.undo()
    (record,) = tableaux
    phi_num, phi_den = record["phi"]
    phi_past_mu = 0
    for masks, value, mu in record["rounds"]:
        den = math.lcm(phi_den, *(v.denominator for v in mu))
        phi_past_mu += (sum(mu) * den < INT64_BOUND
                        and max(phi_num) * (den // phi_den) >= 2 * INT64_BOUND)
        _assert_round_matches_cold_reference(record, masks, value, mu)
    assert phi_past_mu > 0
    _assert_added_masks_are_first_worst(record)
