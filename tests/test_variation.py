import itertools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import SizeRefusal
from gbv.submeasure import (
    WatermanWeights,
    counting,
    density,
    density_from_table,
    harmonic_weights,
    identity_bound,
    log_bound,
    log_weights,
    max_with_unit,
    ones_weights,
    permuted,
    shift_normalize,
    sqrt_bound,
    summable,
    unit,
)
from gbv.variation import (
    ModulusVector,
    PiecewiseLinearFunction,
    abv_norm,
    bv_norm,
    bv_norm_detail,
    jordan_variation,
    modulus_by_enumeration,
    modulus_of_variation,
    monotone_runs,
    oscillation,
    pl_from_points,
    pl_shift,
    runs_saturate_modulus,
    tent,
    variation_bruteforce,
    variation_greedy,
    variation_upper_bound,
)


def zigzag():
    return pl_from_points([(0, 0), (F(1, 4), 4), (F(1, 2), 1), (F(3, 4), 3), (1, 0)])


def merging_runs_function():
    # runs (4, 3, 4) but the full interval oscillates by 5: the class of
    # inputs where greedy-on-runs is strictly below the true variation
    return pl_from_points([(0, 0), (F(1, 3), 4), (F(2, 3), 1), (1, 5)])


def random_plf(rng, max_b=6):
    B = rng.randint(1, max_b)
    cuts = sorted(rng.sample(range(1, 128), B - 1))
    bps = [0] + [F(c, 128) for c in cuts] + [1]
    vals = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(B + 1)]
    return PiecewiseLinearFunction(tuple(bps), tuple(vals))


def float_twin(f):
    return PiecewiseLinearFunction(tuple(float(t) for t in f.breakpoints),
                                   tuple(float(y) for y in f.values))


# ---------------------------------------------------------------------------
# elementary pieces
# ---------------------------------------------------------------------------

def test_function_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearFunction((0, F(1, 2)), (0, 1))           # must end at 1
    with pytest.raises(ValueError):
        PiecewiseLinearFunction((0, F(1, 2), F(1, 2), 1), (0, 1, 1, 0))
    f = tent()
    assert f(F(1, 4)) == F(1, 2)
    with pytest.raises(ValueError):
        f(2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused_with_its_index(bad):
    with pytest.raises(ValueError, match=r"value at index 1 is not finite"):
        pl_from_points([(0, 0), (0.5, bad), (1, 1)])
    with pytest.raises(ValueError, match=r"breakpoint at index 1 is not finite"):
        PiecewiseLinearFunction((0, bad, 1), (0, 1, 0))


def test_oscillation_examples():
    line = PiecewiseLinearFunction((0, 1), (0, 1))
    assert oscillation(line, (0, 1)) == 1
    assert oscillation(line, (F(1, 3), F(1, 3))) == 0
    assert oscillation(tent(), (F(1, 4), F(3, 4))) == 0


def test_monotone_runs_examples():
    line = PiecewiseLinearFunction((0, 1), (0, 1))
    assert monotone_runs(line) == (1,)
    assert monotone_runs(tent()) == (1, 1)
    assert monotone_runs(zigzag()) == (4, 3, 2, 3)
    const = PiecewiseLinearFunction((0, 1), (5, 5))
    assert monotone_runs(const) == ()
    plateau = pl_from_points([(0, 0), (F(1, 4), 2), (F(1, 2), 2), (1, 1)])
    assert monotone_runs(plateau) == (2, 1)


def test_jordan_examples():
    assert jordan_variation(tent()) == 2
    assert jordan_variation(zigzag()) == 12
    assert sum(monotone_runs(zigzag())) == jordan_variation(zigzag())


# ---------------------------------------------------------------------------
# modulus of variation
# ---------------------------------------------------------------------------

def test_modulus_zigzag_frozen():
    # v(2) = 8 via the touching pair [0, 1/4], [1/4, 1]; enumeration agrees
    v = modulus_of_variation(zigzag())
    assert v.values == (0, 4, 8, 10, 12)
    assert modulus_by_enumeration(zigzag()).values == v.values


def test_modulus_tent_and_monotone():
    assert modulus_of_variation(tent()).values == (0, 1, 2)
    mono = pl_from_points([(0, 0), (F(1, 2), 1), (1, 3)])
    assert modulus_of_variation(mono).values == (0, 3, 3)


def test_modulus_validation_catches_bad_vectors():
    with pytest.raises(ValueError):
        ModulusVector((0, 1, 3))          # convex increments
    with pytest.raises(ValueError):
        ModulusVector((1, 2))             # must start at 0


def test_modulus_dp_equals_enumeration_randomized():
    rng = random.Random(11)
    for _ in range(60):
        f = random_plf(rng, max_b=6)
        v = modulus_of_variation(f)
        assert v.values == modulus_by_enumeration(f).values
        assert v.values[-1] == jordan_variation(f)


def fraction_modulus_dp(f, n_max):
    """The modulus DP on the values themselves, as it ran before it moved to
    integer numerators: the reference for values and entry types."""
    y = f.values
    A = [0] * (n_max + 1)
    U = [None] * (n_max + 1)
    D = [None] * (n_max + 1)
    for i in range(len(y)):
        yi = y[i]
        for j in range(n_max + 1):
            if j:
                close_up = U[j - 1] + yi
                close_down = D[j - 1] - yi
                if close_up > A[j]:
                    A[j] = close_up
                if close_down > A[j]:
                    A[j] = close_down
            open_up = A[j] - yi
            open_down = A[j] + yi
            if U[j] is None or open_up > U[j]:
                U[j] = open_up
            if D[j] is None or open_down > D[j]:
                D[j] = open_down
    return tuple(A)


def test_integer_modulus_dp_matches_the_fraction_dp_in_value_and_type():
    bps = (0, F(1, 3), F(2, 3), 1)
    # the int 0 stays where no Fraction takes part; a Fraction of any
    # value where one does
    f = PiecewiseLinearFunction(bps, (0, F(3, 2), -1, 2))
    got = modulus_of_variation(f).values
    assert got == (0, 3, F(11, 2), 7)
    assert [type(v) for v in got] == [int, int, F, F]
    assert typed(got) == typed(fraction_modulus_dp(f, 3))
    for values in ((5, 5, 5, 5), (F(5, 2),) * 4, (0.5, 0.5, 0.5, 0.5)):
        got = modulus_of_variation(PiecewiseLinearFunction(bps, values)).values
        assert got == (0, 0, 0, 0) and all(type(v) is int for v in got), values
    rng = random.Random(61)
    kinds = (lambda: rng.randint(-9, 9),
             lambda: F(rng.randint(-24, 24), rng.randint(1, 6)),
             lambda: rng.choice((rng.randint(-4, 4), F(rng.randint(-8, 8), 2),
                                 F(rng.randint(-4, 4)))),
             lambda: F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 7)),
             lambda: rng.randint(-6144, 6144) / 1024,
             lambda: rng.choice((rng.randint(-3, 3), F(rng.randint(-6, 6), 4), 0.25, -0.0)))
    for _ in range(300):
        B = rng.randint(1, 9)
        kind = rng.choice(kinds)
        f = PiecewiseLinearFunction(tuple(F(k, B) for k in range(B + 1)),
                                    tuple(kind() for _ in range(B + 1)))
        for n_max in (B, rng.randint(0, B)):
            got = modulus_of_variation(f, n_max).values
            assert typed(got) == typed(fraction_modulus_dp(f, n_max)), (f, n_max)


def summed_per_family_modulus(f, n_max):
    """The enumeration that sums every family anew, as the table walk
    replaced it: the reference for values and entry types."""
    from gbv.variation import _index_families

    best = [0] * (n_max + 1)
    for fam in _index_families(f.segments + 1, n_max):
        total = 0
        for (i, j) in fam:
            total += abs(f.values[j] - f.values[i])
        k = len(fam)
        if total > best[k]:
            best[k] = total
    for k in range(1, n_max + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return tuple(best)


def subtracted_per_family_profiles(values, max_count):
    """The profiles with each oscillation subtracted per family: the reference
    for ``_oscillation_profiles`` read from the table."""
    from gbv.variation import _index_families

    profiles = []
    for fam in _index_families(len(values), max_count):
        ltr = tuple(v for v in (abs(values[j] - values[i]) for i, j in fam) if v != 0)
        if not ltr:
            continue
        profiles.append((ltr, tuple(sorted(ltr, reverse=True))))
    return tuple(profiles)


def subtracted_sorted_rows(values, max_count, exact):
    """Each maximal family's oscillations subtracted per family, sorted
    nonincreasing and zero-padded to max_count: as integer numerators over
    the lcm of the value denominators with ``exact``, as floats otherwise.
    The reference for ``_sorted_profile_matrix``."""
    from gbv.variation import _maximal_index_families

    scale = math.lcm(*(v.denominator for v in values)) if exact else None
    rows = []
    for fam in _maximal_index_families(len(values), max_count):
        osc = [abs(values[j] - values[i]) for i, j in fam]
        row = [int(v * scale) if exact else float(v) for v in osc]
        rows.append(sorted(row, reverse=True) + [0 if exact else 0.0] * (max_count - len(row)))
    return rows


def typed(x):
    """Value and type of every entry, floats by their bits (-0.0 apart)."""
    if isinstance(x, tuple):
        return tuple(typed(v) for v in x)
    return type(x), x.hex() if isinstance(x, float) else x


_ints = st.integers(-12, 12)
_fractions = st.fractions(-12, 12, max_denominator=7)
_floats = st.one_of(st.floats(-1e300, 1e300, allow_nan=False),
                    st.sampled_from([-0.0, 0.0, 1e-300, -5e-324, 1e300, 0.1, 0.2, 0.3]))
VALUE_KINDS = {"int": _ints, "fraction": _fractions, "mixed": st.one_of(_ints, _fractions),
               "float": _floats, "float-mixed": st.one_of(_floats, _ints, _fractions)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_walk_and_profiles_match_the_per_family_sums(data):
    from gbv.variation import _oscillation_profiles, _sorted_profile_matrix

    kind = data.draw(st.sampled_from(sorted(VALUE_KINDS)), label="kind")
    B = data.draw(st.integers(1, 9), label="B")
    values = tuple(data.draw(st.lists(VALUE_KINDS[kind], min_size=B + 1, max_size=B + 1),
                             label="values"))
    f = PiecewiseLinearFunction(tuple([0] + [F(k, B) for k in range(1, B)] + [1]), values)
    n_max = data.draw(st.integers(0, B), label="n_max")
    got = modulus_by_enumeration(f, n_max).values
    assert typed(got) == typed(summed_per_family_modulus(f, n_max))
    max_count = data.draw(st.integers(1, B), label="max_count")
    types = tuple(map(type, values))
    got = _oscillation_profiles(values, max_count, types)
    assert typed(got) == typed(subtracted_per_family_profiles(values, max_count))
    # float rows for a float f, and for an exact f under a float phi
    for exact in (False, True) if f.is_exact() else (False,):
        got = _sorted_profile_matrix(values, max_count, types, exact).tolist()
        want = subtracted_sorted_rows(values, max_count, exact)
        assert [typed(tuple(row)) for row in got] == [typed(tuple(row)) for row in want], exact


def test_table_walk_edge_cases():
    from gbv.variation import _oscillation_profiles

    for values in ((3, 3, 3), (F(1, 2), F(1, 2)), (0.5, 0.5, 0.5), (-0.0, 0.0)):
        f = PiecewiseLinearFunction(tuple(F(k, len(values) - 1) for k in range(len(values))),
                                    values)
        got = modulus_by_enumeration(f).values
        assert got == (0,) * len(values) and all(type(v) is int for v in got), values
        assert modulus_by_enumeration(f, 0).values == (0,)
        assert _oscillation_profiles(values, f.segments, tuple(map(type, values))) == ()
    assert modulus_by_enumeration(zigzag(), 0).values == (0,)
    # mixed int/Fraction: an entry is a Fraction exactly when the first family
    # to reach it has a Fraction oscillation, so equal values can differ in type
    bps = (0, F(1, 3), F(2, 3), 1)
    for values, types in (((0, 2, 0, F(2)), [int, int, int, F]),
                          ((F(2), 0, 2, 0), [int, F, F, F]),
                          ((0, 3, F(5, 2), F(1, 2)), [int, int, F, F])):
        f = PiecewiseLinearFunction(bps, values)
        got = modulus_by_enumeration(f).values
        assert [type(v) for v in got] == types, values
        assert typed(got) == typed(summed_per_family_modulus(f, 3))
    assert modulus_by_enumeration(PiecewiseLinearFunction(bps, (0, 2, 0, F(2)))).values \
        == (0, 2, 4, 6)


def test_table_walk_visits_every_family(monkeypatch):
    # each family adds one key to its parent's total, so the walk reads as
    # many keys as there are families: it prunes nothing
    from gbv import variation as V

    reads = []

    class CountedRow(list):
        def __getitem__(self, j):
            reads.append(j)
            return list.__getitem__(self, j)

    table = V._oscillation_table

    def counted_table(values):
        osc, keys, scale = table(values)
        return osc, [CountedRow(row) for row in keys], scale

    monkeypatch.setattr(V, "_oscillation_table", counted_table)
    for f in (zigzag(), merging_runs_function(), float_twin(zigzag()),
              PiecewiseLinearFunction(tuple(F(k, 7) for k in range(8)), (0,) * 8)):
        for n_max in range(f.segments + 1):
            reads.clear()
            modulus_by_enumeration(f, n_max)
            assert len(reads) == len(V._index_families(f.segments + 1, n_max)), (f, n_max)


def test_modulus_prefix_query():
    v = modulus_of_variation(zigzag(), 2)
    assert v.values == (0, 4, 8)
    with pytest.raises(ValueError):
        modulus_of_variation(zigzag(), 9)


# ---------------------------------------------------------------------------
# variation: greedy / brute force / upper bound
# ---------------------------------------------------------------------------

def test_variation_zigzag_against_known_values():
    A4 = summable(WatermanWeights([F(1), F(1, 2), F(1, 3), F(1, 4)], form="table"))
    assert variation_greedy(zigzag(), A4) == 7
    assert variation_bruteforce(zigzag(), A4) == 7
    assert variation_upper_bound(zigzag(), A4) == F(43, 6)
    assert variation_bruteforce(zigzag(), counting()) == 12
    assert variation_bruteforce(zigzag(), unit()) == 4


def test_variation_tent_density():
    phi = density(identity_bound())
    assert variation_greedy(tent(), phi) == 1
    assert variation_bruteforce(tent(), phi) == 1


def test_greedy_is_not_exact_on_merging_runs():
    f = merging_runs_function()
    assert monotone_runs(f) == (4, 3, 4)
    assert modulus_of_variation(f).values == (0, 5, 8, 11)
    assert not runs_saturate_modulus(f)
    A = summable(WatermanWeights([F(1), F(1, 100), F(1, 100)], form="table"))
    greedy = variation_greedy(f, A)
    brute = variation_bruteforce(f, A)
    upper = variation_upper_bound(f, A)
    assert greedy == F(407, 100)
    assert brute == 5                       # the single interval [0, 1] wins
    assert upper == F(253, 50)
    assert greedy < brute < upper
    # density: brute = max_k v(k)/g(k) and the upper bound is tight
    phi = density(identity_bound())
    assert variation_greedy(f, phi) == 4
    assert variation_bruteforce(f, phi) == 5
    assert variation_upper_bound(f, phi) == 5


def test_greedy_brute_upper_sandwich_on_saturated_profiles():
    rng = random.Random(23)
    for _ in range(40):
        B = rng.randint(2, 6)
        amps = sorted((F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(B)),
                      reverse=True)
        sign = rng.choice((1, -1))
        vals = [F(rng.randint(-5, 5))]
        for a in amps:
            vals.append(vals[-1] + sign * a)
            sign = -sign
        cuts = sorted(rng.sample(range(1, 64), B - 1))
        f = PiecewiseLinearFunction(tuple([0] + [F(c, 64) for c in cuts] + [1]),
                                    tuple(vals))
        assert runs_saturate_modulus(f)
        phi = summable(harmonic_weights(8))
        g = variation_greedy(f, phi)
        assert g == variation_bruteforce(f, phi) == variation_upper_bound(f, phi)


def test_vectorized_brute_matches_exact_path():
    rng = random.Random(29)
    for _ in range(25):
        f = random_plf(rng, max_b=5)
        ff = float_twin(f)
        for phi in (unit(), counting(), summable(harmonic_weights(8)),
                    density(sqrt_bound())):
            exact = float(variation_bruteforce(f, phi))
            fast = variation_bruteforce(ff, phi)
            assert fast == pytest.approx(exact, rel=1e-12)


def test_permutation_invariance_of_bruteforce():
    rng = random.Random(31)
    for _ in range(15):
        f = random_plf(rng, max_b=6)
        phi = summable(harmonic_weights(8))
        perm = tuple(rng.sample(range(1, 9), 8))
        assert variation_bruteforce(f, phi) == variation_bruteforce(f, permuted(phi, perm))


def test_greedy_warns_off_guarantee():
    with pytest.warns(UserWarning):
        variation_greedy(tent(), max_with_unit(unit()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        variation_greedy(tent(), counting())     # all-ones weights: guaranteed
        variation_greedy(tent(), unit())         # the sorted hat is the sup


def test_bruteforce_size_refusal():
    bps = tuple(F(i, 13) for i in range(14))
    f = PiecewiseLinearFunction(bps, tuple((-1) ** i for i in range(14)))
    with pytest.raises(SizeRefusal):
        variation_bruteforce(f, counting())


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_bv_norm_examples():
    const = PiecewiseLinearFunction((0, 1), (F(-7, 2), F(-7, 2)))
    assert bv_norm(const, counting()) == F(7, 2)
    line = PiecewiseLinearFunction((0, 1), (0, 1))
    assert bv_norm(line, counting()) == 1
    shifted = pl_shift(tent(), 5)
    A2 = summable(WatermanWeights([F(1), F(1, 2)], form="table"))
    assert bv_norm(shifted, A2) == F(13, 2)


def test_abv_norm_ones_is_jordan():
    rng = random.Random(37)
    for _ in range(20):
        f = random_plf(rng)
        assert abv_norm(f, ones_weights(max(1, f.segments))) \
            == abs(f.values[0]) + jordan_variation(f)


def test_bv_norm_detail_flags():
    detail = bv_norm_detail(zigzag(), summable(harmonic_weights(4)))
    assert detail.method == "brute" and detail.exact
    g = bv_norm_detail(merging_runs_function(), summable(harmonic_weights(3)),
                       method="greedy")
    assert not g.exact                       # runs do not saturate the modulus
    # alternating with nonincreasing amplitudes: the runs saturate the modulus
    f = pl_from_points([(0, 0), (F(1, 4), 4), (F(1, 2), 1), (F(3, 4), 3), (1, 2)])
    for phi in (unit(), shift_normalize(unit())):
        g = bv_norm_detail(f, phi, method="greedy")
        assert g.exact and g.variation == variation_bruteforce(f, phi)


def test_sorted_family_evaluation_dominates_unsorted():
    # over every enumerated family, the hat-norm of the sorted oscillation
    # vector dominates the left-to-right one for prefix-monotone variants
    from gbv.variation import _oscillation_profiles
    from gbv.submeasure import hat_norm

    rng = random.Random(47)
    for _ in range(10):
        f = random_plf(rng, max_b=5)
        profiles = _oscillation_profiles(f.values, f.segments, tuple(map(type, f.values)))
        for phi in (summable(harmonic_weights(8)), density(sqrt_bound())):
            for ltr, srt in profiles:
                assert hat_norm(phi, srt) >= hat_norm(phi, ltr)


def test_shifted_over_permuted_is_not_order_certain():
    # The dyadic shift is not order-free, so a permutation beneath it must not
    # be unwrapped: the sorted hat is not the supremum over orderings here.
    from gbv.variation import _index_families

    weights = WatermanWeights([F(1), F(1, 2), F(1, 3), F(1, 4)], form="table")
    phi = shift_normalize(permuted(summable(weights), (1, 2, 4, 3)))
    f = PiecewiseLinearFunction((0, F(1, 4), F(1, 2), F(3, 4), 1), (0, 4, 1, 5, 0))
    y = f.values
    sup = max(phi.hat(order)
              for fam in _index_families(len(y), f.segments)
              for order in itertools.permutations([abs(y[j] - y[i]) for i, j in fam]))
    assert sup == F(317, 24)
    detail = bv_norm_detail(f, phi, "brute")
    assert detail.variation == F(211, 16) and not detail.exact
    fast = variation_bruteforce(float_twin(f), phi)
    assert fast == 13.1875 and fast <= sup


def test_profile_cache_keeps_the_exact_rail_after_a_float_twin():
    f = PiecewiseLinearFunction((0, F(1, 2), F(3, 4), 1), (0, F(3, 2), F(-1, 4), 2))
    phi = summable(harmonic_weights(5))
    assert variation_bruteforce(float_twin(f), phi) == 3.625
    exact = variation_bruteforce(f, phi)
    assert type(exact) is F and exact == F(29, 8)


def test_profile_cache_keeps_int_and_fraction_twins_apart():
    from gbv.variation import _oscillation_profiles, _sorted_profile_matrix

    ints = PiecewiseLinearFunction((0, F(1, 2), 1), (0, 2, 0))
    fracs = PiecewiseLinearFunction((0, F(1, 2), 1), (0, F(2), 0))
    for order in ((ints, fracs), (fracs, ints)):
        _oscillation_profiles.cache_clear()
        _sorted_profile_matrix.cache_clear()
        for f in order:
            got = variation_bruteforce(f, unit())
            assert got == 2 and type(got) is type(f.values[1]), (order, f)


def wrapper_stacks():
    """Every leaf variant under every stack of at most two wrappers."""
    leaves = (summable(harmonic_weights(8)), density(sqrt_bound()), unit(), counting())
    wrappers = (shift_normalize, max_with_unit,
                lambda phi: permuted(phi, (2, 1, 4, 3, 6, 5, 8, 7)))
    for leaf in leaves:
        for depth in (0, 1, 2):
            for stack in itertools.product(wrappers, repeat=depth):
                phi = leaf
                for wrap in stack:
                    phi = wrap(phi)
                yield phi


def test_ordering_facts_hold_on_every_wrapper_stack():
    rng = random.Random(53)
    vectors = [[F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
               for _ in range(6)]
    funcs = [random_plf(rng, max_b=5) for _ in range(4)]
    for phi in wrapper_stacks():
        psi = phi.rearrangement_base()
        for chi in (phi, psi):
            if chi.sorted_hat_is_sup:
                for x in vectors:
                    top = chi.hat(sorted(x, reverse=True))
                    assert all(chi.hat(p) <= top for p in itertools.permutations(x)), (chi, x)
        for f in funcs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                greedy = variation_greedy(f, phi)
                upper = variation_upper_bound(f, phi)
            said = " ".join(str(w.message) for w in caught)
            assert ("greedy" in said) != phi.sorted_hat_is_sup, phi
            assert ("upper bound" in said) != phi.sorted_hat_is_sup, phi
            if not psi.sorted_hat_is_sup:
                continue
            # the float rail is vectorized exactly here
            exact = variation_bruteforce(f, phi)
            fast = variation_bruteforce(float_twin(f), phi)
            assert abs(fast - float(exact)) <= 1e-9 * max(1.0, float(exact)), (phi, f)
            if phi.sorted_hat_is_sup:
                assert greedy <= exact <= upper, (phi, f)


def test_maximal_families_are_the_inclusion_maximal_ones():
    from gbv.variation import _index_families, _maximal_index_families

    def joinable(fam, num_points):
        # a nondegenerate interval fits before, between or after the intervals
        ends = [0] + [j for _, j in fam]
        starts = [i for i, _ in fam] + [num_points - 1]
        return any(a < b for a, b in zip(ends, starts))

    for num_points in range(2, 9):
        for count in range(1, num_points):
            every = _index_families(num_points, count)
            expect = tuple(fam for fam in every
                           if len(fam) == count or not joinable(fam, num_points))
            assert _maximal_index_families(num_points, count) == expect, (num_points, count)
    assert len(_maximal_index_families(10, 9)) == 2 ** 8
    assert len(_index_families(10, 9)) == 4180


def test_left_to_right_path_enumerates_every_family():
    # Off the sorted path an inserted interval can lower the hat: the best
    # family here, ((1, 2), (2, 3), (3, 4)), has a left-to-right hat of
    # 189/16, and once (0, 1) joins it neither order reaches that.
    phi = shift_normalize(permuted(summable(harmonic_weights(6)), (2, 1, 4, 3, 6, 5)))
    assert not phi.rearrangement_base().sorted_hat_is_sup
    f = PiecewiseLinearFunction((0, F(1, 4), F(1, 2), F(3, 4), 1), (F(2, 3), 1, -3, F(5, 2), 0))
    assert phi.hat((4, F(11, 2), F(5, 2))) == F(189, 16)
    assert phi.hat((F(1, 3), 4, F(11, 2), F(5, 2))) == F(805, 96)
    assert phi.hat((F(11, 2), 4, F(5, 2), F(1, 3))) == F(833, 72)
    assert variation_bruteforce(f, phi) == F(189, 16)


def full_enumeration(f, phi, max_count):
    """The brute force over every family, not only the maximal ones: the
    exact rail takes the first largest sorted hat in enumeration order, the
    float rail the largest row of the zero-padded float matrix."""
    from gbv.variation import _index_families

    psi = phi.rearrangement_base()
    if phi.horizon is not None:
        max_count = min(max_count, phi.horizon)
    y = f.values
    rows = []
    for fam in _index_families(len(y), max_count):
        srt = tuple(sorted((v for v in (abs(y[j] - y[i]) for i, j in fam) if v != 0),
                           reverse=True))
        if srt:
            rows.append(srt)
    if f.is_exact() and phi.is_exact():
        best = 0
        for srt in rows:
            val = psi.hat(srt)
            if val > best:
                best = val
        return best
    if not rows:
        return 0.0
    M = np.zeros((len(rows), max(len(r) for r in rows)))
    for r, srt in enumerate(rows):
        M[r, :len(srt)] = [float(v) for v in srt]
    return float(psi.truncation_norms(M)[:, -1].max())


def test_maximal_family_brute_force_equals_full_enumeration():
    table = summable(WatermanWeights([1, F(1, 2), F(1, 3), F(1, 5), F(1, 8)], form="table"))
    phis = [phi for phi in itertools.chain(wrapper_stacks(), (table, shift_normalize(table)))
            if phi.rearrangement_base().sorted_hat_is_sup]
    assert len(phis) == 26
    rng = random.Random(59)
    funcs = []
    for B in (1, 3, 4, 6):
        f = random_plf(rng, max_b=B)
        while f.segments != B:
            f = random_plf(rng, max_b=B)
        funcs += [f, PiecewiseLinearFunction(f.breakpoints, tuple(int(v) for v in f.values)),
                  PiecewiseLinearFunction(f.breakpoints, tuple(
                      int(v) if k % 2 else v for k, v in enumerate(f.values)))]
    for phi in phis:
        for f in funcs:
            B = f.segments
            for max_count in sorted({B, max(1, B // 2), 1}):
                got = variation_bruteforce(f, phi, max_count)
                ref = full_enumeration(f, phi, max_count)
                assert type(got) is type(ref) and got == ref, (phi, f, max_count)
                ff = float_twin(f)
                got = variation_bruteforce(ff, phi, max_count)
                ref = full_enumeration(ff, phi, max_count)
                assert type(got) is float and got == ref, (phi, ff, max_count)
    # the horizon caps max_count below B on the 6-segment functions
    assert table.horizon == 5 and max(f.segments for f in funcs) == 6


def per_family_bruteforce(f, phi, max_count):
    """The exact brute force as a loop over the maximal families' sorted
    profiles, one ``hat`` per family, the first largest winning: the
    reference for the integer scoring."""
    from gbv.variation import _maximal_index_families

    psi = phi.rearrangement_base()
    if phi.horizon is not None:
        max_count = min(max_count, phi.horizon)
    y = f.values
    best = 0
    for fam in _maximal_index_families(len(y), max_count):
        srt = tuple(sorted((v for v in (abs(y[j] - y[i]) for i, j in fam) if v != 0),
                           reverse=True))
        if srt:
            val = psi.hat(srt)
            if val > best:
                best = val
    return best


def test_integer_scoring_matches_the_per_family_hat_in_value_and_type():
    from gbv.variation import _sorted_profile_matrix

    table = summable(WatermanWeights([1, F(1, 2), F(1, 3), F(1, 5), F(1, 8), F(1, 9),
                                      F(1, 11), F(1, 12)], form="table"))
    phis = [table, summable(harmonic_weights(12)), summable(log_weights(12)),
            summable(ones_weights(12)), density(density_from_table([1, 2, 3, 4, 4, 4, 4, 4])),
            density(sqrt_bound()), density(log_bound()), unit(), counting(),
            shift_normalize(table), shift_normalize(density(sqrt_bound())),
            permuted(summable(harmonic_weights(8)), (2, 1, 4, 3, 6, 5, 8, 7))]
    rng = random.Random(67)
    kinds = {"int": lambda: rng.randint(-9, 9),
             "fraction": lambda: F(rng.randint(-24, 24), rng.randint(1, 6)),
             # equal oscillations as an int and as a Fraction
             "mixed": lambda: rng.choice((rng.randint(-4, 4), F(rng.randint(-8, 8), 2),
                                          F(rng.randint(-4, 4)))),
             # many families tie for the top, some through an int, some a Fraction
             "ties": lambda: rng.choice((0, 2, F(2), -2, F(-2))),
             # keys past int64, and keys that fit but whose products do not
             "huge": lambda: F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 7)),
             "wide": lambda: rng.randint(-2 ** 50, 2 ** 50)}
    dtypes = set()
    for kind in sorted(kinds):
        for _ in range(8):
            B = rng.randint(1, 9)
            f = PiecewiseLinearFunction(tuple(F(k, B) for k in range(B + 1)),
                                        tuple(kinds[kind]() for _ in range(B + 1)))
            for phi in phis:
                for max_count in sorted({B, rng.randint(1, B)}):
                    got = variation_bruteforce(f, phi, max_count)
                    want = per_family_bruteforce(f, phi, max_count)
                    assert typed(got) == typed(want), (kind, f, phi, max_count)
            dtypes.add(_sorted_profile_matrix(f.values, B, tuple(map(type, f.values)),
                                              True).dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # the first family of top score, ((0, 1), (1, 2), (2, 3)), sorts to
    # (2, 2, Fraction(2)), and the unit hat keeps the first of equal entries
    f = PiecewiseLinearFunction((0, F(1, 3), F(2, 3), 1), (0, 2, 0, F(2)))
    assert type(variation_bruteforce(f, unit())) is int
    assert type(variation_bruteforce(f, unit(), 1)) is int
    constant = PiecewiseLinearFunction((0, F(1, 2), 1), (F(3, 2),) * 3)
    assert all(type(variation_bruteforce(constant, phi)) is int for phi in phis)
