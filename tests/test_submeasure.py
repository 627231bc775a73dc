import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import HorizonExceeded, NonFiniteValue, SizeRefusal, exact_div, iroot_floor
from gbv.submeasure import (
    CountingSubmeasure,
    DensityBound,
    DensitySubmeasure,
    MaxWithUnitSubmeasure,
    PermutedSubmeasure,
    ShiftedSubmeasure,
    Submeasure,
    SummableSubmeasure,
    UnitSubmeasure,
    WatermanWeights,
    counting,
    density,
    density_from_table,
    eval_set,
    harmonic_weights,
    hat_norm,
    identity_bound,
    log_bound,
    log_weights,
    max_with_unit,
    ones_weights,
    permuted,
    power_weights,
    shift_normalize,
    sqrt_bound,
    summable,
    tail_norm,
    unit,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_seqs = st.lists(rationals, min_size=0, max_size=10).map(tuple)


def harmonic8():
    return summable(harmonic_weights(8))


# ---------------------------------------------------------------------------
# set values
# ---------------------------------------------------------------------------

def test_unit_set_values():
    u = unit()
    assert eval_set(u, {3, 7}) == 1
    assert eval_set(u, []) == 0


def test_counting_set_values():
    c = counting()
    assert eval_set(c, []) == 0
    assert eval_set(c, [5, 2, 2]) == 2


def test_summable_closed_form():
    phi = summable(harmonic_weights(10))
    assert eval_set(phi, [1, 2, 4]) == F(7, 4)


def test_density_identity_example():
    phi = density(identity_bound())
    assert eval_set(phi, [2, 4, 6, 8]) == F(1, 2)


def test_sqrt_bound_values():
    g = sqrt_bound()
    assert [g.g(n) for n in range(1, 11)] == [1, 2, 2, 2, 3, 3, 3, 3, 3, 4]
    assert g.g(2500) == 50
    assert g.g(2501) == 51


def test_log_bound_values():
    g = log_bound()
    assert [g.g(n) for n in range(1, 9)] == [1, 2, 2, 3, 3, 3, 3, 4]


def test_shifted_set_values():
    assert eval_set(shift_normalize(unit()), [2]) == F(5, 4)
    assert eval_set(shift_normalize(counting()), []) == 0
    assert eval_set(shift_normalize(density(identity_bound())), [1]) == F(3, 2)


def test_max_with_unit_set_values():
    assert eval_set(max_with_unit(harmonic8()), [4]) == 1
    assert eval_set(max_with_unit(counting()), [1, 2]) == 2
    assert eval_set(max_with_unit(harmonic8()), []) == 0


def test_permuted_set_value_is_base_on_image():
    phi = harmonic8()
    psi = permuted(phi, (2, 1, 3, 4, 5, 6, 7, 8))
    assert eval_set(psi, [1]) == F(1, 2)
    assert eval_set(psi, [1, 2]) == eval_set(phi, [1, 2])


@pytest.mark.parametrize("image", [1.9, F(5, 2), math.inf, math.nan, "x"])
def test_permuted_refuses_a_non_integer_image(image):
    # refused by name, not truncated: int(1.9) would make (1, 2) a bijection
    with pytest.raises(ValueError, match="permutation image 2 is not an integer"):
        permuted(counting(), [1, image])
    assert permuted(counting(), [2.0, 1]).perm == (2, 1)


# ---------------------------------------------------------------------------
# hat norms
# ---------------------------------------------------------------------------

def test_hat_norm_examples():
    assert hat_norm(unit(), (3, -5, 2)) == 5
    assert hat_norm(counting(), (1, 1, 1)) == 3
    assert hat_norm(density(identity_bound()), (4, 2, 0)) == 4
    assert hat_norm(harmonic8(), (1, 1, 1)) == F(11, 6)


def test_shifted_hat_adds_dyadic_part():
    phi = shift_normalize(unit())
    assert hat_norm(phi, (1, 1)) == 1 + F(1, 2) + F(1, 4)


def test_tail_norm_examples():
    assert tail_norm(counting(), (1, 1, 1), 2) == 2
    assert tail_norm(counting(), (1, 1, 1), 1) == hat_norm(counting(), (1, 1, 1))
    assert tail_norm(harmonic8(), (1, 1, 1, 1), 3) == F(1, 3) + F(1, 4)
    with pytest.raises(ValueError):
        tail_norm(counting(), (1, 1), 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tail_norm_refuses_non_finite_entries(bad):
    # a non-finite entry is refused even where the cut zeroes it
    phi = summable(harmonic_weights(3))
    for n in (1, 3):
        with pytest.raises(NonFiniteValue, match="entry 2 of the sequence is not finite"):
            tail_norm(phi, [1.0, bad, 2.0], n)


def test_characteristic_identity_every_variant():
    # hat of an indicator vector equals the set value, for every variant
    variants = [unit(), counting(), harmonic8(), density(sqrt_bound()),
                shift_normalize(harmonic8()),
                permuted(harmonic8(), (3, 1, 2, 4, 5, 6, 7, 8)),
                max_with_unit(harmonic8())]
    C = [2, 3, 5]
    x = tuple(1 if i in C else 0 for i in range(1, 9))
    for phi in variants:
        assert hat_norm(phi, x) == eval_set(phi, C), repr(phi)


@given(small_seqs, rationals)
@settings(max_examples=150, deadline=None)
def test_hat_homogeneity(x, c):
    for phi in (unit(), counting(), summable(harmonic_weights(12))):
        scaled = tuple(c * v for v in x)
        assert hat_norm(phi, scaled) == abs(c) * hat_norm(phi, x)


@given(small_seqs, small_seqs)
@settings(max_examples=150, deadline=None)
def test_hat_triangle(x, y):
    n = max(len(x), len(y))
    x = x + (0,) * (n - len(x))
    y = y + (0,) * (n - len(y))
    for phi in (unit(), counting(), summable(harmonic_weights(12)),
                density(sqrt_bound())):
        assert hat_norm(phi, tuple(a + b for a, b in zip(x, y))) \
            <= hat_norm(phi, x) + hat_norm(phi, y)


@given(small_seqs)
@settings(max_examples=100, deadline=None)
def test_monotone_rearrangement_domination(x):
    # sorting |x| nonincreasing dominates every prefix sum, so the hat-norm
    # cannot drop for weighted-sum and density variants
    srt = tuple(sorted((abs(v) for v in x), reverse=True))
    for phi in (summable(harmonic_weights(12)), density(sqrt_bound()),
                counting()):
        assert hat_norm(phi, srt) >= hat_norm(phi, x)


def test_truncation_and_tail_fast_paths_match_hat():
    import numpy as np

    x = (3, -1, F(1, 2), 0, 2, -5)
    for phi in (unit(), counting(), harmonic8(), density(sqrt_bound()),
                shift_normalize(harmonic8())):
        trunc = phi.truncation_norms(np.array([float(v) for v in x]))
        tails = phi.tail_norms(np.array([float(v) for v in x]))
        for n in range(1, len(x) + 1):
            assert trunc[n - 1] == pytest.approx(float(hat_norm(phi, x[:n])), rel=1e-12)
            assert tails[n - 1] == pytest.approx(float(tail_norm(phi, x, n)), rel=1e-12)


@pytest.mark.parametrize("phi", [
    permuted(summable(harmonic_weights(8)), (3, 1, 8, 2, 7, 4, 6, 5)),
    permuted(density(identity_bound()), (2, 1, 4, 3, 6, 5, 8, 7)),
    max_with_unit(summable(harmonic_weights(8))),
    max_with_unit(density(sqrt_bound())),
], ids=["permuted-summable", "permuted-density", "max-unit-summable", "max-unit-density"])
def test_base_class_truncation_and_tail_norms_are_the_hat_of_each_cut(phi):
    # permuted and max-with-unit have no O(n) pass of their own
    assert "truncation_norms" not in vars(type(phi))
    assert "tail_norms" not in vars(type(phi))
    x = (F(3, 2), -1, 0, F(5, 4), -2, F(1, 3), 4, F(-1, 2))
    for k in range(1, len(x) + 1):
        trunc = phi.truncation_norms(x[:k])
        tails = phi.tail_norms(x[:k])
        assert len(trunc) == len(tails) == k
        for n in range(1, k + 1):
            assert trunc[n - 1] == float(hat_norm(phi, x[:n]))
            assert tails[n - 1] == float(hat_norm(phi, (0,) * (n - 1) + x[n - 1:k]))


@pytest.mark.parametrize("p", [0.5, 0.75, 1.5, 2])
def test_power_partial_sums_past_the_float_cache_follow_the_asymptotic_terms(p):
    w = power_weights(p, 10)
    for n in ((1 << 17) + 1, 200_003, 300_000):
        expected = math.fsum(float(i) ** (-p) for i in range(1, n + 1))
        assert w.partial_sum(n) == pytest.approx(expected, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# submeasure axioms, exhaustively on {1..10}
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    unit, counting,
    lambda: summable(harmonic_weights(10)),
    lambda: density(sqrt_bound()),
    lambda: shift_normalize(density(identity_bound())),
    lambda: max_with_unit(summable(harmonic_weights(10))),
    lambda: permuted(summable(harmonic_weights(10)), (4, 2, 7, 1, 10, 3, 9, 5, 8, 6)),
])
def test_monotone_and_subadditive_exhaustive(make):
    phi = make()
    n = 10
    values = [phi.set_value([i + 1 for i in range(n) if mask >> i & 1])
              for mask in range(1 << n)]
    assert values[0] == 0
    for mask in range(1 << n):
        for j in range(n):
            if not mask >> j & 1:
                assert values[mask] <= values[mask | 1 << j]
    # subadditivity over all pairs
    for a in range(1 << n):
        va = values[a]
        for b in range(a, 1 << n):
            assert values[a | b] <= va + values[b]


def _reference_set_value(phi, C):
    """phi(C) element by element, as the closed forms read on their own."""
    C = sorted(set(C))
    if isinstance(phi, SummableSubmeasure):
        total = 0
        for i in C:
            total += phi.weights.value_at(i)
        return total
    if isinstance(phi, DensitySubmeasure):
        best = 0
        for rank, n in enumerate(C, start=1):
            best = max(best, F(rank, phi.bound.g(n)))
        return best
    if isinstance(phi, UnitSubmeasure):
        return 1 if C else 0
    if isinstance(phi, CountingSubmeasure):
        return len(C)
    if isinstance(phi, ShiftedSubmeasure):
        extra = F(0)
        for i in C:
            extra += F(1, 2 ** i)
        return _reference_set_value(phi.base, C) + extra
    if isinstance(phi, PermutedSubmeasure):
        return _reference_set_value(phi.base, [phi.perm[i - 1] for i in C])
    assert isinstance(phi, MaxWithUnitSubmeasure)
    if not C:
        return 0
    base = _reference_set_value(phi.base, C)
    return base if base > 1 else 1


def _set_value_leaves():
    rng = random.Random(21)
    fractions = [F(rng.randint(5, 30), rng.randint(1, 3))]
    for _ in range(7):
        fractions.append(fractions[-1] * F(rng.randint(5, 10), 10))
    return [
        summable(WatermanWeights(fractions)),
        summable(WatermanWeights([9, 7, 7, 5, 3, 3, 2, 1])),
        summable(WatermanWeights([9, F(15, 2), 7, 5.5, 3, F(5, 2), 2, 1])),
        summable(WatermanWeights([2.0 * 0.8 ** k for k in range(8)])),
        summable(harmonic_weights(6)),        # closed form read past its prefix
        summable(log_weights(8)),
        density(sqrt_bound()),
        density(log_bound()),
        density(identity_bound()),
        density(DensityBound("power", F(1, 3))),
        density(density_from_table([1, 2, 3, 4, 4, 4, 4, 4])),   # horizon 8
        unit(),
        counting(),
    ]


def _wrapper_stacks(leaf):
    perm = (3, 8, 1, 6, 2, 7, 5, 4)
    wrappers = (shift_normalize, max_with_unit, lambda phi: permuted(phi, perm))
    yield leaf
    for outer in wrappers:
        yield outer(leaf)
        for inner in wrappers:
            yield outer(inner(leaf))


def test_set_value_matches_per_element_reference_under_wrapper_stacks():
    rng = random.Random(22)
    subsets = [[i + 1 for i in range(8) if mask >> i & 1] for mask in range(1 << 8)]
    for leaf in _set_value_leaves():
        for phi in _wrapper_stacks(leaf):
            scrambled = []
            for _ in range(20):
                C = rng.sample(range(1, 9), rng.randint(1, 8))
                scrambled.append(C + rng.choices(C, k=rng.randint(1, 3)))
            for C in subsets + scrambled:
                got, want = phi.set_value(C), _reference_set_value(phi, C)
                assert got == want and type(got) is type(want), (phi, C, got, want)
            for k in range(1, 9):
                got, want = phi.singleton(k), _reference_set_value(phi, [k])
                assert got == want and type(got) is type(want), (phi, k, got, want)
            with pytest.raises(ValueError, match=">= 1"):
                phi.singleton(0)
            with pytest.raises(ValueError, match=">= 1"):
                phi.set_value([0, 2])
            if phi.horizon is not None:
                with pytest.raises(HorizonExceeded):
                    phi.set_value([1, phi.horizon + 1])


def test_set_value_checks_the_set_once_under_a_three_deep_stack(monkeypatch):
    # the outermost wrapper checks C; the layers below take it as checked
    checked = []
    check = Submeasure._check_indices

    def spy(self, C):
        checked.append(self)
        return check(self, C)

    monkeypatch.setattr(Submeasure, "_check_indices", spy)
    perm = (3, 8, 1, 6, 2, 7, 5, 4)
    for leaf in (summable(harmonic_weights(8)), density(sqrt_bound())):
        phi = max_with_unit(shift_normalize(permuted(leaf, perm)))
        for C in ([5, 1, 5, 3], [8], [], range(1, 9)):
            checked.clear()
            got, want = phi.set_value(C), _reference_set_value(phi, C)
            assert got == want and type(got) is type(want), (phi, C)
            assert checked == [phi], (phi, C)


# ---------------------------------------------------------------------------
# subset tables
# ---------------------------------------------------------------------------

def _set_table_variants():
    """Every leaf under each wrapper stack of depth <= 2 (the permuted ones
    have horizon 8), then float power weights and deeper nestings at 12."""
    for leaf in _set_value_leaves():
        yield from _wrapper_stacks(leaf)
    perm = tuple(random.Random(23).sample(range(1, 13), 12))
    power = summable(power_weights(F(7, 10), 12))
    yield power
    yield shift_normalize(power)
    yield shift_normalize(density(sqrt_bound()))
    yield permuted(shift_normalize(summable(harmonic_weights(12))), perm)
    yield permuted(shift_normalize(power), perm)
    yield max_with_unit(permuted(power, perm))
    yield max_with_unit(permuted(shift_normalize(density(log_bound())), perm))
    yield shift_normalize(max_with_unit(power))


def test_set_table_matches_set_value_on_every_mask():
    rng = random.Random(24)
    for phi in _set_table_variants():
        top = phi.horizon or 12
        for _ in range(3):
            support = sorted(rng.sample(range(1, top + 1), rng.randint(1, min(10, top))))
            nums, den = phi.set_table(support)
            assert len(nums) == 1 << len(support) and nums[0] == 0, phi
            assert type(den) is int and den > 0 and all(type(v) is int for v in nums), phi
            for mask in range(1, 1 << len(support)):
                members = [i for j, i in enumerate(support) if mask >> j & 1]
                assert F(nums[mask], den) == F(phi.set_value(members)), (phi, members)


def test_set_table_of_exact_variants_stays_on_integers(monkeypatch):
    # a variant with exact set values tabulates without the per-subset
    # _set_value loop of the base class; float-valued ones keep that loop
    fallbacks = []
    base_table = Submeasure._set_table

    def spy(self, support):
        fallbacks.append(self)
        return base_table(self, support)

    monkeypatch.setattr(Submeasure, "_set_table", spy)
    for phi in _set_table_variants():
        fallbacks.clear()
        phi.set_table(range(1, 9))
        assert (fallbacks == []) == phi.is_exact(), (phi, fallbacks)


def test_set_table_checks_its_support_as_set_value_does():
    for phi in _set_table_variants():
        assert phi.set_table([]) == ([0], 1), phi
        with pytest.raises(ValueError, match=">= 1"):
            phi.set_table([0, 2])
        if phi.horizon is not None:
            over = [1, phi.horizon + 1]
            with pytest.raises(HorizonExceeded) as want:
                phi.set_value(over)
            with pytest.raises(HorizonExceeded) as got:
                phi.set_table(over)
            assert str(got.value) == str(want.value)
        for bad in ([2, 1], [3, 3]):
            with pytest.raises(ValueError, match="strictly increasing"):
                phi.set_table(bad)


# ---------------------------------------------------------------------------
# validation and horizons
# ---------------------------------------------------------------------------

def test_waterman_validation():
    with pytest.raises(ValueError):
        WatermanWeights([1, 2])           # increasing
    with pytest.raises(ValueError):
        WatermanWeights([1, 0])           # zero entry
    w = WatermanWeights([F(1), F(1, 2)], form="table")
    assert not w.declared_divergent
    assert harmonic_weights(4).declared_divergent
    assert not power_weights(2, 4).declared_divergent
    assert power_weights(F(1, 2), 4).declared_divergent


def test_non_finite_weights_and_entries_are_refused():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteValue, match="weight at index 1"):
            WatermanWeights([bad, 1.0])
        with pytest.raises(NonFiniteValue, match="entry 2 of the sequence"):
            hat_norm(summable(harmonic_weights(5)), [1.0, bad, 0.5])
    assert hat_norm(summable(harmonic_weights(5)), [1.0, 0.5]) == 1.25


def _every_hat_variant():
    return [summable(harmonic_weights(3)), density(sqrt_bound()), unit(), counting(),
            shift_normalize(unit()), permuted(counting(), (2, 1)),
            max_with_unit(counting())]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("phi", _every_hat_variant(), ids=repr)
def test_every_hat_refuses_non_finite_entries(phi, bad):
    for x, k in (([bad, 1.0], 1), ([1.0, bad], 2), ((F(1, 2), 0, bad), 3)):
        with pytest.raises(NonFiniteValue, match=f"entry {k} of the sequence is not finite"):
            phi.hat(x)
    assert phi.hat([1.0, 0.5]) > 0


def _sorted_form_variants():
    table = summable(WatermanWeights([1, F(1, 2), F(1, 3), F(1, 5), F(1, 8), F(1, 9),
                                      F(1, 11), F(1, 12)], form="table"))
    dens = density(density_from_table([1, 2, 3, 4, 4, 4, 4, 4]))
    return [table, summable(harmonic_weights(8)), summable(log_weights(8)),
            summable(ones_weights(8)), dens, density(sqrt_bound()), density(log_bound()),
            density(identity_bound()), unit(), counting(), shift_normalize(table),
            shift_normalize(dens), shift_normalize(unit()), shift_normalize(counting()),
            shift_normalize(shift_normalize(density(sqrt_bound())))]


def test_sorted_forms_give_the_hat_of_every_nonincreasing_vector():
    rng = random.Random(71)
    for phi in _sorted_form_variants():
        assert phi.sorted_hat_is_sup and phi.is_exact(), phi
        for m in range(1, 9):
            rows, den = phi.sorted_forms(m)
            assert den > 0 and rows and all(len(r) == m for r in rows), (phi, m)
            assert all(type(v) is int for r in rows for v in r), (phi, m)
            for length in range(m + 1):
                for _ in range(4):
                    x = sorted((rng.choice((rng.randint(0, 9), F(rng.randint(0, 30),
                                                                 rng.randint(1, 7))))
                                for _ in range(length)), reverse=True)
                    padded = x + [0] * (m - length)
                    best = max(sum(r * v for r, v in zip(row, padded)) for row in rows)
                    assert F(best, den) == phi.hat(x), (phi, m, x)


def test_sorted_forms_are_stated_only_where_the_sorted_hat_is_the_sup():
    for phi in (max_with_unit(counting()), permuted(counting(), (2, 1)),
                shift_normalize(permuted(counting(), (2, 1)))):
        assert not phi.sorted_hat_is_sup
        with pytest.raises(NotImplementedError):
            phi.sorted_forms(2)


def test_power_density_g_is_the_exact_ceiling():
    # n**a for a = 99 or 999 is past the float range, which a float seed of
    # the root cannot take
    for p in (F(99, 100), F(999, 1000), F(3, 4), F(1, 3), F(2, 7)):
        bound = DensityBound("power", p)
        a, b = p.numerator, p.denominator
        for n in list(range(1, 60)) + [2 ** 20, 10 ** 30 + 7]:
            g = bound.g(n)
            assert (g - 1) ** b < n ** a <= g ** b, (p, n, g)
    for n, k in ((10 ** 30, 1000), (2 ** 20000 - 1, 3), (3 ** 4000, 999), (5 ** 30, 30)):
        r = iroot_floor(n, k)
        assert r ** k <= n < (r + 1) ** k, (n, k)
    with pytest.raises(SizeRefusal, match="denominator b of a/b is past 1000"):
        DensityBound("power", F(1, 1001))
    assert DensityBound("power", F(1, 1000)).g(2) == 2


def test_density_table_validation():
    with pytest.raises(ValueError):
        density_from_table([2, 1])        # decreasing
    with pytest.raises(ValueError):
        density_from_table([2, 2, 2])     # never grows
    with pytest.raises(ValueError):
        density_from_table([1, 2, 2, 2, 3])   # ratio 4/2 -> 5/3 drops
    density_from_table([1, 2, 3, 4])      # the diagonal is fine


def test_horizon_errors():
    phi = summable(WatermanWeights([F(1), F(1, 2)], form="table"))
    with pytest.raises(HorizonExceeded):
        eval_set(phi, [3])
    with pytest.raises(HorizonExceeded):
        hat_norm(phi, (1, 1, 1))
    closed = summable(harmonic_weights(4))
    assert eval_set(closed, [9]) == F(1, 9)   # closed form evaluates past the prefix


def test_log_weights_partial_sums():
    w = log_weights(10)
    assert w._log_partial_exact(10) == F(49, 12)
    assert w.partial_sum(10) == pytest.approx(float(F(49, 12)))
    # past the float cache the exact block sums answer: a_i = 1/k on the
    # 2^(k-1) indices of block k, so 18 full blocks and 5 of the 19th
    full = sum(F(2 ** (k - 1), k) for k in range(1, 19))
    assert w.partial_sum(2 ** 18 - 1) == float(full)
    assert w.partial_sum(2 ** 18 + 4) == float(full + F(5, 19))


def test_harmonic_asymptotic_partial_sum():
    w = harmonic_weights(8)
    n = 10 ** 7
    expected = math.log(n) + 0.5772156649015329 + 1 / (2 * n)
    assert w.partial_sum(n) == pytest.approx(expected, abs=1e-10)


def test_deep_weight_values():
    w = harmonic_weights(4)
    assert w.value_at(10 ** 9) == F(1, 10 ** 9)
    assert ones_weights(2).value_at(10 ** 12) == 1
    assert log_weights(2).value_at(7) == F(1, 3)


# ---------------------------------------------------------------------------
# exact closed-form weights without a built prefix
# ---------------------------------------------------------------------------

def _entry(form, i):
    """The exact closed-form weight a_i, as the prefix was built with."""
    if form == "harmonic":
        return F(1, i)
    if form == "ones":
        return 1
    # 1/ceil(log2(i + 1)), with ceil(log2(m)) = (m - 1).bit_length() for m > 1
    return F(1, max(1, i.bit_length()))


def _prefix_values(form, length):
    """The prefix the exact closed forms were built with, entry by entry."""
    return tuple(_entry(form, i) for i in range(1, length + 1))


def _prefix_float_values(form, values, length):
    """float_values as read off a built prefix, with the closed form past it."""
    k = len(values)
    if length <= k:
        return np.array([float(v) for v in values[:length]], dtype=float)
    if form == "harmonic":
        return 1.0 / np.arange(1, length + 1, dtype=float)
    if form == "ones":
        return np.ones(length)
    arr = 1.0 / np.maximum(1, np.ceil(np.log2(np.arange(2, length + 2))))
    arr[:k] = [float(v) for v in values[:k]]
    return arr


BUILDERS = {"harmonic": harmonic_weights, "ones": ones_weights, "log": log_weights}


@pytest.mark.parametrize("form", sorted(BUILDERS))
@pytest.mark.parametrize("length", [1, 2, 3, 16, 100, 4096])
def test_exact_closed_forms_build_no_prefix_and_read_the_same(form, length):
    w = BUILDERS[form](length)
    values = _prefix_values(form, length)
    assert len(w) == length and w.horizon is None and w.is_exact()
    assert repr(w) == f"WatermanWeights(form={form!r}, n={length}, divergent=True)"
    for m in (1, length // 2 or 1, length, length + 1, 3 * length + 7, 5000):
        got, want = w.float_values(m), _prefix_float_values(form, values, m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), m
        assert w.partial_sum(m) == float(np.cumsum(want)[-1])
    assert w._values is None                     # none of the above built it
    # value_at reads the formula, inside the length and past it
    for n in (1, length // 2 or 1, length, length + 1, 2 * length + 3, 10 ** 6, 10 ** 12):
        want = values[n - 1] if n <= length else _entry(form, n)
        got = w.value_at(n)
        assert got == want and type(got) is type(want)
    assert w._values is None
    # reading values builds the prefix, once
    assert w.values == values and tuple(map(type, w.values)) == tuple(map(type, values))
    assert w.values is w.values
    assert w.values == BUILDERS[form](length).values
    assert w.values != BUILDERS[form](length + 1).values


def test_exact_closed_forms_keep_their_far_values_and_sums():
    assert harmonic_weights(4).value_at(10 ** 9) == F(1, 10 ** 9)
    assert [log_weights(2).value_at(n) for n in (1, 2, 3, 4, 7, 8, 2 ** 40)] == \
        [1, F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(1, 4), F(1, 41)]
    for n in (2 ** 17 + 1, 10 ** 7):
        assert log_weights(3).partial_sum(n) == float(log_weights(3)._log_partial_exact(n))
        assert ones_weights(3).partial_sum(n) == float(n)
    # a long float prefix agrees with the log formula entry by entry
    n = 1 << 21
    want = [float(F(1, m.bit_length())) for m in range(n - 5000, n + 5000)]
    assert log_weights(1).float_values(n + 4999)[n - 5001:].tolist() == want


@pytest.mark.parametrize("builder", [harmonic_weights, ones_weights, log_weights])
def test_exact_closed_forms_refuse_as_before(builder):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^weight prefix must be nonempty$"):
            builder(bad)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        builder(2.5)
    with pytest.raises(ValueError, match="indices are 1-based"):
        builder(4).value_at(0)


@pytest.mark.parametrize("form", ["harmonic", "log"])
def test_closed_form_descriptors_refuse_and_load_as_before(form):
    from gbv._util import DescriptorError
    from gbv.io import submeasure_from_descriptor

    for bad in (0, -1, "16", 2.5, None):
        with pytest.raises(DescriptorError,
                           match=re.escape(f"field 'horizon': need a positive integer, got {bad!r}")):
            submeasure_from_descriptor({"type": "summable", "form": form, "horizon": bad})
    with pytest.raises(SizeRefusal, match="field 'horizon': 1048577 is past the cap 1048576"):
        submeasure_from_descriptor({"type": "summable", "form": form, "horizon": 2 ** 20 + 1})
    w = submeasure_from_descriptor({"type": "summable", "form": form, "horizon": 2 ** 20}).weights
    assert len(w) == 2 ** 20 and w.form == form and w._values is None
    assert len(submeasure_from_descriptor({"type": "summable", "form": form}).weights) == 4096


def test_float_rail_reads_no_prefix_of_exact_closed_forms():
    from gbv.orders import katetov_scan, preceq_m_summable, preceq_summable

    for build in (harmonic_weights, log_weights, ones_weights):
        A, B = build(4096), power_weights(0.7, 4096)
        preceq_summable(A, B)
        preceq_summable(B, A)
        preceq_m_summable(A, B)
        katetov_scan(A, B, 2.0)
        katetov_scan(B, A, 0.5)
        phi = summable(A)
        assert phi.is_exact()
        phi.truncation_norms(np.linspace(1.0, 0.0, 20000))
        phi.tail_norms(np.linspace(1.0, 0.0, 20000))
        assert A._values is None
        # an exact scan builds it
        preceq_summable(A, build(4096))
        assert A._values is not None


@given(small_seqs)
@settings(max_examples=100, deadline=None)
def test_truncation_nondecreasing_tail_nonincreasing(x):
    # lower semicontinuity at the finite level: truncation hat-norms grow to
    # the full hat-norm; cutting more of the head never raises a tail norm
    for phi in (unit(), counting(), summable(harmonic_weights(12)),
                density(sqrt_bound())):
        prev = 0
        for n in range(1, len(x) + 1):
            cur = hat_norm(phi, x[:n])
            assert cur >= prev
            prev = cur
        if x:
            assert prev == hat_norm(phi, x)
            tails = [tail_norm(phi, x, n) for n in range(1, len(x) + 1)]
            assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))
            assert tails[0] == hat_norm(phi, x)


def _reference_density_hat(phi, x):
    """max_n prefix/g(n) with one Fraction (or float) per index."""
    best = 0
    prefix = 0
    for n, v in enumerate(x, start=1):
        prefix = prefix + abs(v)
        val = exact_div(prefix, phi.bound.g(n))
        if val > best:
            best = val
    return best


def _density_hat_profiles():
    return [density(identity_bound()), density(sqrt_bound()), density(log_bound()),
            density(DensityBound("power", F(1, 3))),
            density(density_from_table([min(n, 5) for n in range(1, 13)]))]   # horizon 12


def test_density_hat_matches_fraction_reference():
    rng = random.Random(31)
    inputs = [(), (0,), (0, 0, 0), (F(0), F(0)), (0.0, 0.0), (-3,), (-1, 2, -5, 0, 7),
              (F(-1, 3), F(5, 6), F(-7, 4)), (1, F(1, 2), 0, F(-2, 3), 4),
              (2.5, -0.125, 3.0), (1, F(1, 3), 0.5, 2), (0.25, F(1, 3), 2), (True, False, 3)]
    for _ in range(40):
        inputs.append(tuple(rng.choice((rng.randint(-9, 9), F(rng.randint(-9, 9),
                                                                  rng.randint(1, 12))))
                            for _ in range(rng.randint(1, 12))))
    for phi in _density_hat_profiles():
        for x in inputs:
            got, want = phi.hat(x), _reference_density_hat(phi, x)
            assert got == want and type(got) is type(want), (phi, x, got, want)
    with pytest.raises(HorizonExceeded, match="sequence length 13 exceeds horizon 12"):
        _density_hat_profiles()[-1].hat((F(1, 2),) * 13)


@given(st.sampled_from(range(5)), small_seqs)
@settings(max_examples=200, deadline=None)
def test_density_hat_exact_and_float_twin_agree(i, x):
    # Summing n absolute values and dividing once stays within relative
    # (n + 2) * 2**-52 of the exact value; an all-zero input is 0 on both rails
    phi = _density_hat_profiles()[i]
    exact, flt = phi.hat(x), phi.hat([float(v) for v in x])
    assert math.isclose(flt, exact, rel_tol=(len(x) + 2) * 2 ** -52, abs_tol=0)


def test_empty_sequence_hat_norm_is_zero():
    for phi in (unit(), counting(), summable(harmonic_weights(4)),
                density(sqrt_bound()), shift_normalize(unit()),
                max_with_unit(counting())):
        assert hat_norm(phi, ()) == 0
