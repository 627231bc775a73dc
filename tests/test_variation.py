import itertools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import HorizonExceeded, NonFiniteValue, SizeRefusal
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
    power_weights,
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


def fraction_twin(f):
    """f as the variation functionals read it: an int/Fraction mix (bools
    counted as ints) with every value a Fraction, any other f as it is."""
    y = f.values
    if all(isinstance(v, (int, F)) for v in y) and any(isinstance(v, F) for v in y):
        return PiecewiseLinearFunction(f.breakpoints, tuple(map(F, y)))
    return f


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
    """The modulus DP on the values themselves, written out as a loop: the
    reference for values and entry types."""
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


# ---------------------------------------------------------------------------
# the merge of the smallest swing against the DP
# ---------------------------------------------------------------------------

U = 2.0 ** -53

_big = st.integers(-(10 ** 30), 10 ** 30)
# few distinct values make plateaus and equal swings likely
_few = st.sampled_from([-2, 0, 1, 3])
MERGE_KINDS = {
    "int": _ints,
    "int-few": _few,
    "int-past-int64": _big,
    "fraction": _fractions,
    "fraction-integral": _ints.map(F),
    "fraction-few": _few.map(lambda v: F(v, 3)),
    "fraction-past-int64": st.builds(F, _big, st.integers(1, 7)),
    "float-dyadic": st.integers(-6144, 6144).map(lambda k: k / 1024),
    "float-few": _few.map(float),
}
# mixes: int with Fraction (read as its Fraction twin), exact with float
# (the DP's), bools with ints
MIXED_KINDS = {
    "int-fraction": st.one_of(_ints, _fractions),
    "int-integral-fraction": st.one_of(_few, _few.map(F)),
    "exact-float": st.one_of(_ints, _fractions, _few.map(float)),
    "bool-int": st.one_of(st.booleans(), st.integers(-2, 2)),
}


def _function_of(values):
    B = len(values) - 1
    return PiecewiseLinearFunction(tuple([0] + [F(k, B) for k in range(1, B)] + [1]),
                                   tuple(values))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_equals_the_dp_in_value_and_type(data):
    from gbv.variation import _modulus_dp

    kind = data.draw(st.sampled_from(sorted(MERGE_KINDS)), label="kind")
    B = data.draw(st.integers(1, 14), label="B")
    f = _function_of(data.draw(st.lists(MERGE_KINDS[kind], min_size=B + 1, max_size=B + 1),
                               label="values"))
    for n_max in (B, data.draw(st.integers(0, B), label="n_max")):
        got = typed(modulus_of_variation(f, n_max).values)
        assert got == typed(_modulus_dp(f, n_max).values)
        assert got == typed(fraction_modulus_dp(f, n_max))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_float_mixes_run_the_dp(data):
    from gbv.variation import _modulus_dp

    B = data.draw(st.integers(1, 10), label="B")
    values = data.draw(st.lists(MIXED_KINDS["exact-float"], min_size=B + 1, max_size=B + 1),
                       label="values")
    # at least one float and one exact value
    i = data.draw(st.integers(0, B), label="float at")
    values[i] = data.draw(_few.map(float), label="float")
    values[i - 1] = data.draw(st.one_of(_ints, _fractions), label="exact")
    f = _function_of(values)
    assert f._value_keys is None
    n_max = data.draw(st.integers(0, B), label="n_max")
    assert typed(modulus_of_variation(f, n_max).values) == typed(_modulus_dp(f, n_max).values)
    assert typed(modulus_of_variation(f, n_max).values) == typed(fraction_modulus_dp(f, n_max))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=2, max_size=15),
       st.data())
def test_float_merge_is_within_the_rounding_of_the_dp(values, data):
    """The DP's float v(n) is the largest, over the paths of at most n
    intervals, of a float that a chain of 2n roundings computes: each
    opening subtracts a value and each closing adds one, and
    x -> fl(x + c) is monotone, so the DP's maximum is the largest rounded
    path.  Every partial sum of a path lies within J + Y of 0 (J the exact
    Jordan variation, Y = max |y|), and an addition or subtraction errs by
    at most u = 2^-53 of its result (gradual underflow makes small results
    exact), so each path is off its exact total by at most
    2n u (J + Y) (1 + 2n u), and so is the DP off v(n).  The merge rounds
    the exact v(n) once, within u J.  Hence
    |merge - DP| <= (2n + 2) u (J + Y) for n <= 14."""
    from gbv.variation import _modulus_dp

    f = _function_of(values)
    n_max = data.draw(st.integers(0, f.segments), label="n_max")
    J = sum(abs(F(b) - F(a)) for a, b in zip(values, values[1:]))
    Y = max(abs(F(v)) for v in values)
    got, want = modulus_of_variation(f, n_max).values, _modulus_dp(f, n_max).values
    assert [type(v) for v in got] == [type(v) for v in want]
    for n, (a, b) in enumerate(zip(got, want)):
        assert abs(F(a) - F(b)) <= (2 * n + 2) * F(U) * (J + Y), (n, a, b)


def test_float_merge_overflows_to_inf_as_float_addition_does():
    f = PiecewiseLinearFunction((0, F(1, 2), 1), (0.0, 1.7e308, 7e307))
    assert typed(modulus_of_variation(f).values) == typed((0, 1.7e308, math.inf))
    with pytest.raises(NonFiniteValue, match=r"^modulus increment 2 is not finite \(inf\)"):
        variation_upper_bound(f, summable(harmonic_weights(8)))
    # each entry is its exact value rounded once, whatever the total
    top = 2.0 ** 1023
    g = PiecewiseLinearFunction((0, F(1, 3), F(2, 3), 1), (0.0, top, top / 2, top))
    assert modulus_of_variation(g).values == (0, top, 1.5 * top, math.inf)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_merge_equals_the_dp_at_300_segments(kind):
    from gbv.variation import _modulus_dp

    rng = random.Random(300)
    draw = {"int": lambda: rng.randint(-50, 50),
            "fraction": lambda: F(rng.randint(-50, 50), rng.randint(1, 9)),
            "float": lambda: rng.randint(-4096, 4096) / 64}[kind]
    f = _function_of([draw() for _ in range(301)])
    assert typed(modulus_of_variation(f).values) == typed(_modulus_dp(f).values)


def test_exact_merge_at_ten_thousand_segments():
    # the DP takes about 25 s here: a return to O(B^2) shows as a slow test
    rng = random.Random(10 ** 4)
    f = _function_of([F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 12))
                      for _ in range(10 ** 4 + 1)])
    v = modulus_of_variation(f)
    assert len(v) == 10 ** 4 + 1 and v[-1] == jordan_variation(f)
    assert all(type(x) is F for x in v.values[1:])
    assert ModulusVector(v.values) == v               # validated on the values too
    assert v[1] == max(f.values) - min(f.values)
    # an int/Fraction mix is merged too, as its Fraction twin
    mixed = _function_of([0] + list(f.values[1:-1]) + [rng.randint(-10 ** 6, 10 ** 6)])
    w = modulus_of_variation(mixed)
    assert typed(w.values) == typed(modulus_of_variation(fraction_twin(mixed)).values)
    assert w[-1] == jordan_variation(mixed) and type(w[-1]) is F


def test_integer_keys_of_single_type_values():
    from gbv._util import integer_keys
    from gbv.variation import _key_number

    for values in ((3, -1, 0), (F(1, 2), F(-2, 3), F(5)), (0.5, -0.75, 3.0, 1e-300)):
        keys, den, fractions = integer_keys(values)
        assert all(F(k, den) == F(v) for k, v in zip(keys, values))
        floats = isinstance(values[0], float)
        assert fractions == (None if floats else [isinstance(v, F) for v in values])
        fraction = _function_of(values)._value_keys[2]
        assert fraction is (None if floats else isinstance(values[0], F))
        assert typed(tuple(_key_number(k, den, fraction) for k in keys)) == typed(values)
    # exact mixes and subclasses: integer keys and a Fraction flag per value
    for values in ((1, F(1, 2)), (True, 1), (F(1), True, -2), (False,) * 70 + (F(5, 6),) * 70):
        keys, den, fractions = integer_keys(values)
        assert all(type(k) is int and F(k, den) == v for k, v in zip(keys, values))
        assert fractions == [isinstance(v, F) for v in values]
    # exact with float has no rail
    for values in ((1, 0.5), (F(1), 0.0)):
        assert integer_keys(values) is None
    # a float key past the float range maps to a signed inf
    keys, den, _ = integer_keys((1.7e308, -1.7e308))
    assert [_key_number(k, den, None) for k in (2 * keys[0], 2 * keys[1], keys[0])] == \
        [math.inf, -math.inf, 1.7e308]

def test_modulus_vector_from_keys_runs_the_same_checks():
    with pytest.raises(ValueError, match=r"must start at v\[0\] = 0"):
        ModulusVector._from_keys([1, 2], 1, False)
    with pytest.raises(ValueError, match=r"nondecreasing \(n=2\)"):
        ModulusVector._from_keys([0, 2, 1], 1, False)
    with pytest.raises(ValueError, match=r"increments must be nonincreasing \(n=2\)"):
        ModulusVector._from_keys([0, 1, 3], 1, False)


def loop_monotone_runs(f):
    """The runs summed segment by segment, as ``monotone_runs`` summed
    every rail before it read exact values as keys: the reference."""
    runs, current, sign = [], 0, 0
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


def loop_run_breakpoints(f):
    """The run spans compared value by value: the reference."""
    spans, sign = [], 0
    for i in range(f.segments):
        a, b = f.values[i], f.values[i + 1]
        s = (b > a) - (b < a)
        if s and s == sign:
            spans[-1][1] = i + 1
        elif s:
            spans.append([i, i + 1])
            sign = s
    return spans


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_runs_read_off_keys_equal_the_segment_loop(data):
    from gbv.variation import _run_breakpoints

    kinds = {**MERGE_KINDS, **MIXED_KINDS}
    kind = data.draw(st.sampled_from(sorted(kinds)), label="kind")
    B = data.draw(st.integers(1, 12), label="B")
    f = _function_of(data.draw(st.lists(kinds[kind], min_size=B + 1, max_size=B + 1),
                               label="values"))
    assert typed(monotone_runs(f)) == typed(loop_monotone_runs(fraction_twin(f)))
    assert _run_breakpoints(f) == loop_run_breakpoints(f)


def test_runs_of_mixes_are_the_runs_of_their_fraction_twin():
    bps = (0, F(1, 4), F(1, 2), F(3, 4), 1)
    # one Fraction anywhere, on a flat too, makes every run a Fraction
    for values, types in (((0, F(1), 1, 2, 0), [F, F]),
                          ((0, 1, F(1), 2, 0), [F, F]),
                          ((F(0), 0, 1, 2, F(2)), [F]),
                          ((True, False, 3, 3, F(3)), [F, F]),
                          ((True, False, 3, 3, 3), [int, int]),
                          ((0, 1, 1, 1, 0), [int, int])):
        f = PiecewiseLinearFunction(bps, values)
        got = monotone_runs(f)
        assert [type(v) for v in got] == types, values
        assert typed(got) == typed(loop_monotone_runs(fraction_twin(f)))


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
    assert typed(got) == typed(summed_per_family_modulus(fraction_twin(f), n_max))
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
    # mixed int/Fraction: every entry but v(0) is a Fraction, as on the twin,
    # whichever family reaches it first
    bps = (0, F(1, 3), F(2, 3), 1)
    for values in ((0, 2, 0, F(2)), (F(2), 0, 2, 0), (0, 3, F(5, 2), F(1, 2))):
        f = PiecewiseLinearFunction(bps, values)
        got = modulus_by_enumeration(f).values
        assert [type(v) for v in got] == [int, F, F, F], values
        assert typed(got) == typed(summed_per_family_modulus(fraction_twin(f), 3))
    assert modulus_by_enumeration(PiecewiseLinearFunction(bps, (0, 2, 0, F(2)))).values \
        == (0, 2, 4, 6)


def test_table_walk_visits_every_family():
    # nothing is pruned: the levels of the family tree hold one entry per
    # family of _index_families, in its order, and following the parent
    # links and cells back from an entry rebuilds its family
    from gbv import variation as V

    for B in range(1, 8):
        points = B + 1
        for n_max in range(B + 2):
            families = V._index_families(points, n_max)
            levels = V._family_tree(points, n_max)[0]
            rebuilt = [[()]]
            for parent, cell in levels:
                assert not parent.flags.writeable and not cell.flags.writeable
                assert len(parent) == len(cell)
                rebuilt.append([rebuilt[-1][p] + (divmod(c, points),)
                                for p, c in zip(parent.tolist(), cell.tolist())])
            for k, level in enumerate(rebuilt[1:], 1):
                assert level == [fam for fam in families if len(fam) == k]
            assert sum(map(len, rebuilt[1:])) == len(families), (B, n_max)


def test_maximal_rows_are_the_maximal_families_in_order():
    # the maximal rows, read off the levels and sorted, are the cells of the
    # families of _maximal_index_families left to right, zero-padded, in its
    # order, up to the 12 segments the brute force allows
    from gbv import variation as V

    for points in range(1, 14):
        for n_max in range(points + 1):
            maximal = V._family_tree(points, n_max)[1]
            want = [[i * points + j for i, j in fam] + [0] * (n_max - len(fam))
                    for fam in V._maximal_index_families(points, n_max)]
            assert not maximal.flags.writeable
            assert maximal.shape == (len(want), n_max), (points, n_max)
            assert maximal.tolist() == want, (points, n_max)


def table_grid(values, exact, terms=1):
    """The flat grid as ``_oscillation_table`` gives it, under the dtype
    rule the grid builder keeps: the integer keys on int64 while top key *
    terms is below INT64_BOUND and as Python ints otherwise, float64 when
    every value is a float, Python objects otherwise.  The reference for
    ``_oscillation_grid``."""
    from gbv._util import INT64_BOUND
    from gbv.variation import _oscillation_table

    osc, keys = _oscillation_table(values)
    if exact:
        top = max(map(max, keys))
        return np.array(keys, np.int64 if top * terms < INT64_BOUND else object).ravel()
    return np.array(osc, float if all(type(v) is float for v in values) else object).ravel()


def test_object_grids_match_the_per_family_references():
    # the grid keeps the values, types and dtypes of the table on every
    # rail, and the gathers over it match the per-family references: Python
    # objects for keys past int64 and for int/float mixes, int64 keys under
    # a large common offset, inf without a warning for floats past the
    # range, and B = 1 has a single level of one family
    from gbv.variation import _oscillation_grid, _sorted_profile_matrix

    big = 10 ** 19
    near = 2 ** 60
    cases = [
        # Fraction numerators past int64 over the lcm 21
        (F(big, 3), F(-big, 7), F(2 * big + 1, 3), 0, F(big, 21)),
        # keys that fit one by one but not as a sum of n_max of them
        (0, near, -near, near + 1, 0),
        # numerators past int64 with a small spread: the keys fit
        (2 ** 70, 2 ** 70 + 5, 2 ** 70 - 3, 2 ** 70 + 1),
        (F(2 ** 70, 3), F(2 ** 70 + 2, 3), F(2 ** 70 - 1, 3)),
        # an int/float mix whose winning families are all-int
        (0, 3, 1.5, 0),
        (F(3, 2), 0, 1.5, 4, 0.25),
        # float differences past the float range are inf
        (1.7e308, -1.7e308, 7e307, 0.0),
        (F(1, 2), 3), (0.5, 2.0), (0.5, 2), (0, 1.5), (7, 7),
    ]
    dtypes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in cases:
            B = len(values) - 1
            exact = all(isinstance(v, (int, F)) for v in values)
            for terms in range(1, B + 1):
                grid, scale = _oscillation_grid(values, exact, terms)
                want = table_grid(values, exact, terms)
                assert grid.dtype == want.dtype, (values, terms)
                assert typed(tuple(grid.tolist())) == typed(tuple(want.tolist())), values
                assert scale == (math.lcm(*(v.denominator for v in values)) if exact else None)
            dtypes.append(_oscillation_grid(values, exact)[0].dtype)
            f = PiecewiseLinearFunction(tuple(F(k, B) for k in range(B + 1)), values)
            for n_max in range(B + 1):
                got = modulus_by_enumeration(f, n_max).values
                assert typed(got) == typed(summed_per_family_modulus(f, n_max)), (values, n_max)
            types = tuple(map(type, values))
            for max_count in range(1, B + 1):
                for rows_exact in (False, True) if exact else (False,):
                    M = _sorted_profile_matrix(values, max_count, types, rows_exact)
                    assert M.flags.c_contiguous
                    assert M.dtype == (dtypes[-1] if rows_exact else np.float64), values
                    want = subtracted_sorted_rows(values, max_count, rows_exact)
                    assert [typed(tuple(row)) for row in M.tolist()] \
                        == [typed(tuple(row)) for row in want], (values, max_count, rows_exact)
    assert dtypes[:4] == [object, np.int64, np.int64, np.int64]
    assert dtypes[4:] == [object, object, np.float64, np.int64, np.float64, object, object,
                          np.int64]
    # the first family to reach 3 and 6 is all-int; the three-interval
    # maximum 6.0 is reached first through the float oscillation 1.5
    got = modulus_by_enumeration(PiecewiseLinearFunction((0, F(1, 3), F(2, 3), 1),
                                                         (0, 3, 1.5, 0))).values
    assert typed(got) == ((int, 0), (int, 3), (int, 6), (float, (6.0).hex()))
    M = _sorted_profile_matrix(cases[0], 4, tuple(map(type, cases[0])), True)
    assert M.dtype == object and max(map(max, M.tolist())) > 2 ** 63
    # exact values scored as floats round each exact oscillation once:
    # 1/3 - 1/10 is 0.23333333333333334, where the float values give
    # 0.3333333333333333 - 0.1 = 0.2333333333333333
    assert _sorted_profile_matrix((F(1, 3), F(1, 10)), 1, (F, F), False).tolist() \
        == [[0.23333333333333334]]
    assert _oscillation_grid((1 / 3, 0.1), False)[0].tolist() == [0.0, 0.2333333333333333,
                                                                  0.0, 0.0]


def test_float_variation_past_the_float_range_is_a_named_error_without_a_warning():
    # every oscillation is finite; sums of two of them are not
    f = PiecewiseLinearFunction((0, F(1, 2), 1), (0, 1.7e308, 7e307))
    phi = summable(harmonic_weights(32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue,
                           match=r"^the variation overflows the float range \(inf\)$"):
            variation_bruteforce(f, phi)
        with pytest.raises(NonFiniteValue, match=r"^modulus increment 2 is not finite \(inf\)"):
            variation_upper_bound(f, phi)
        with pytest.raises(NonFiniteValue,
                           match=r"^the variation overflows the float range \(inf\)$"):
            variation_greedy(f, phi)
        assert variation_bruteforce(f, phi, 1) == 1.7e308
        assert modulus_by_enumeration(f).values == (0, 1.7e308, math.inf)


def test_exact_oscillation_past_the_float_range_under_float_weights_is_named():
    # the values fit a float, the oscillation 2 * 10^308 does not
    big = 10 ** 308
    f = PiecewiseLinearFunction((0, F(1, 2), 1), (big, -big, 0))
    for phi in (summable(power_weights(0.7, 16)),
                shift_normalize(summable(power_weights(0.7, 16)))):
        with pytest.raises(NonFiniteValue, match=r"^the oscillation from breakpoint 1 to "
                                                 r"breakpoint 2 overflows a float"):
            variation_bruteforce(f, phi)
        # the greedy names the run, the upper bound the modulus increment
        with pytest.raises(NonFiniteValue, match=r"^the monotone run from breakpoint 1 to "
                                                 r"breakpoint 2 overflows a float"):
            variation_greedy(f, phi)
        with pytest.raises(NonFiniteValue, match=r"^modulus increment 1 overflows a float"):
            variation_upper_bound(f, phi)


def test_estimates_name_the_run_or_increment_past_the_float_range():
    from gbv.variation import _run_breakpoints

    # the overflowing run is the second of three and sorts first; a flat
    # segment lies inside it
    big = 10 ** 308
    f = PiecewiseLinearFunction((0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1),
                                (0, 1, 0, 0, -2 * big, 0))
    assert _run_breakpoints(f) == [[0, 1], [1, 4], [4, 5]]
    phi = summable(power_weights(0.7, 16))
    with pytest.raises(NonFiniteValue, match=r"^the monotone run from breakpoint 2 to "
                                             r"breakpoint 5 overflows a float \(int too large"):
        variation_greedy(f, phi)
    with pytest.raises(NonFiniteValue, match=r"^modulus increment 1 overflows a float"):
        variation_upper_bound(f, phi)
    # a float run that is itself inf is named as not finite
    g = PiecewiseLinearFunction((0, F(1, 2), 1), (1.7e308, -1.7e308, 0.0))
    with pytest.raises(NonFiniteValue, match=r"^the monotone run from breakpoint 1 to "
                                             r"breakpoint 2 is not finite \(inf\)$"):
        variation_greedy(g, phi)
    # the exact weights of the harmonic hat take the huge run as it is
    assert variation_greedy(f, summable(harmonic_weights(16))) == 2 * big + 1 + big + F(1, 3)


# exact values at the scales where float twins sit near the ends of the range
TWIN_SCALES = (1, F(2) ** 900, F(1, 2 ** 900), F(10) ** 300)


def twin_functionals(rng):
    """(name, functional) for the variation functionals under every variant
    of ``selftest._variant_pool``, max-with-unit included."""
    from gbv.selftest import _variant_pool

    phis = [phi for phi, _ in _variant_pool(rng)]
    phis.append(max_with_unit(phis[2]))
    out = [("modulus", lambda f: modulus_of_variation(f).values),
           ("runs", monotone_runs), ("jordan", jordan_variation)]
    for phi in phis:
        out += [(f"brute {phi!r}", lambda f, phi=phi: variation_bruteforce(f, phi)),
                (f"greedy {phi!r}", lambda f, phi=phi: variation_greedy(f, phi)),
                (f"upper {phi!r}", lambda f, phi=phi: variation_upper_bound(f, phi))]
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=2, max_size=6),
       st.sampled_from(TWIN_SCALES), st.integers(0, 2 ** 32))
def test_float_twins_agree_with_the_exact_value_or_refuse(values, scale, seed):
    f = _function_of([v * scale for v in values])
    ff = float_twin(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # greedy and upper under no guarantee
        for name, fn in twin_functionals(random.Random(seed)):
            exact = fn(f)
            try:
                got = fn(ff)
            except NonFiniteValue:
                continue
            pairs = list(zip(exact, got)) if isinstance(exact, tuple) else [(exact, got)]
            assert len(pairs) == (len(exact) if isinstance(exact, tuple) else 1), name
            for e, g in pairs:
                assert math.isfinite(g), (name, g)
                assert abs(F(g) - e) <= F(1, 10 ** 9) * abs(e), (name, e, g)


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
            # greedy and upper score on the rearrangement base, as the brute force does
            assert ("greedy" in said) != psi.sorted_hat_is_sup, phi
            assert ("upper bound" in said) != psi.sorted_hat_is_sup, phi
            if not psi.sorted_hat_is_sup:
                continue
            # the float rail is vectorized exactly here
            exact = variation_bruteforce(f, phi)
            fast = variation_bruteforce(float_twin(f), phi)
            assert abs(fast - float(exact)) <= 1e-9 * max(1.0, float(exact)), (phi, f)
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
                    want = per_family_bruteforce(fraction_twin(f), phi, max_count)
                    assert typed(got) == typed(want), (kind, f, phi, max_count)
            dtypes.add(_sorted_profile_matrix(f.values, B, tuple(map(type, f.values)),
                                              True).dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # one Fraction value makes every oscillation a Fraction, as on the twin
    f = PiecewiseLinearFunction((0, F(1, 3), F(2, 3), 1), (0, 2, 0, F(2)))
    assert type(variation_bruteforce(f, unit())) is F
    assert type(variation_bruteforce(f, unit(), 1)) is F
    constant = PiecewiseLinearFunction((0, F(1, 2), 1), (F(3, 2),) * 3)
    assert all(type(variation_bruteforce(constant, phi)) is int for phi in phis)


# ---------------------------------------------------------------------------
# the exact finish on integer keys against the Fraction code it replaced
# ---------------------------------------------------------------------------


def fraction_bruteforce(f, phi, max_count=None):
    """The brute force as it ran before the all-Fraction finish on the top
    score: the winner's oscillations are read back and its ``hat`` gives
    the value and type.  The reference."""
    from gbv._util import INT64_BOUND, is_finite
    from gbv.variation import _family_tree, _oscillation_profiles, _sorted_profile_matrix

    B = f.segments
    if max_count is None:
        max_count = B
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
        with np.errstate(over="ignore"):
            best = float(psi.truncation_norms(M)[:, -1].max())
        if not is_finite(best):
            raise NonFiniteValue(f"the variation overflows the float range ({best!r})")
        return best
    top = int(M[:, 0].max())
    if not top:
        return 0
    forms, _ = psi.sorted_forms(max_count)
    dtype = np.int64 if top * max(map(max, forms)) * max_count < INT64_BOUND else object
    scores = (M.astype(dtype, copy=False) @ np.array(forms, dtype).T).max(axis=1)
    y, n = f.values, len(f.values)
    row = _family_tree(n, max_count)[1][int(np.argmax(scores))]
    osc = [abs(y[j] - y[i]) for i, j in (divmod(int(c), n) for c in row)]
    return psi.hat(tuple(sorted([v for v in osc if v], reverse=True)))


def base_hat(phi, x):
    """The hat of x under phi's rearrangement base, after phi's own length
    check where the base is another variant: the reference scoring of greedy
    and upper."""
    psi = phi.rearrangement_base()
    if psi is not phi:
        phi._check_length(len(x))
    return psi.hat(x)


def fraction_greedy(f, phi):
    """The greedy variation on the runs summed segment by segment: the
    reference."""
    from gbv._util import is_finite
    from gbv.submeasure import as_float_array
    from gbv.variation import _run_breakpoints

    if not phi.rearrangement_base().sorted_hat_is_sup:
        warnings.warn(f"greedy variation has no ordering guarantee for {phi!r}; "
                      "value is a heuristic", stacklevel=2)
    runs = sorted(loop_monotone_runs(f), reverse=True)
    try:
        value = base_hat(phi, runs)
    except NonFiniteValue:
        spans = sorted(zip(loop_monotone_runs(f), _run_breakpoints(f)),
                       key=lambda p: p[0], reverse=True)
        for run, (i, j) in spans:
            name = f"the monotone run from breakpoint {i + 1} to breakpoint {j + 1}"
            if not is_finite(run):
                raise NonFiniteValue(f"{name} is not finite ({run!r})")
            as_float_array([run], name)
        raise
    if not is_finite(value):
        raise NonFiniteValue(f"the variation overflows the float range ({value!r})")
    return value


def fraction_upper_bound(f, phi):
    """The upper bound on the increments of the modulus as values: the
    reference."""
    from gbv._util import is_finite
    from gbv.submeasure import as_float_array

    if not phi.rearrangement_base().sorted_hat_is_sup:
        warnings.warn(f"upper bound has no domination guarantee for {phi!r}", stacklevel=2)
    d = modulus_of_variation(f).increments()
    for n, v in enumerate(d, 1):
        if not is_finite(v):
            raise NonFiniteValue(f"modulus increment {n} is not finite ({v!r}): the modulus "
                                 "overflows the float range")
    try:
        return base_hat(phi, d)
    except NonFiniteValue:
        as_float_array(d, "modulus increment {}")
        raise


def fraction_runs_saturate_modulus(f):
    """Saturation checked on the modulus as values and the summed runs: the
    reference."""
    from gbv._util import rail_slack

    v = modulus_of_variation(f)
    runs = sorted(loop_monotone_runs(f), reverse=True)
    slack = rail_slack(f.is_exact(), v.values[-1])
    total = 0
    for k in range(1, len(v)):
        if k <= len(runs):
            total += runs[k - 1]
        if abs(v[k] - total) > slack:
            return False
    return True


def run_outcome(call, *args):
    """``("ok", type, repr)`` or ``("error", type, message)`` of a call, and
    the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            v = call(*args)
            got = ("ok", type(v), v.hex() if isinstance(v, float) else repr(v))
        except Exception as exc:  # noqa: BLE001 - the refusal is what is compared
            got = ("error", type(exc), str(exc))
    return got, [str(w.message) for w in caught]


def key_finish_phis():
    """Every variant of ``selftest._variant_pool``, summables over int,
    Fraction and mixed weight tables, a table shorter than most run counts,
    float weights and max-with-unit."""
    from gbv.selftest import _variant_pool

    phis = [phi for phi, _ in _variant_pool(random.Random(27))]
    phis += [summable([5, 3, 3, 2, 1, 1, 1, 1, 1, 1]),
             summable([F(1, k) for k in range(1, 11)]),
             summable([2, F(3, 2), 1, F(1, 2), F(1, 2), F(1, 3), F(1, 4), F(1, 4), F(1, 5),
                       F(1, 6)]),
             summable([1, F(1, 2), F(1, 3)]),
             summable(power_weights(0.7, 16)),
             shift_normalize(counting()),
             max_with_unit(summable(harmonic_weights(8)))]
    return phis


KEY_FINISH_PHIS = key_finish_phis()
KEY_FINISH_KINDS = {**MERGE_KINDS, **MIXED_KINDS, "float": _floats,
                    "constant": st.just(F(7, 3)), "constant-int": st.just(-2)}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_key_finish_equals_the_fraction_code_in_value_and_type(data):
    kind = data.draw(st.sampled_from(sorted(KEY_FINISH_KINDS)), label="kind")
    phi = data.draw(st.sampled_from(KEY_FINISH_PHIS), label="phi")
    # max-with-unit's hat is the oracle's: keep its enumeration small
    top = 4 if phi.rearrangement_base() is phi and not phi.sorted_hat_is_sup else 7
    B = data.draw(st.integers(1, top), label="B")
    f = _function_of(data.draw(st.lists(KEY_FINISH_KINDS[kind], min_size=B + 1,
                                        max_size=B + 1), label="values"))
    # an int/Fraction mix against the reference run on its Fraction twin
    twin = fraction_twin(f)
    for new, old in ((variation_bruteforce, fraction_bruteforce),
                     (variation_greedy, fraction_greedy),
                     (variation_upper_bound, fraction_upper_bound)):
        assert run_outcome(new, f, phi) == run_outcome(old, twin, phi), (new.__name__, f, phi)
    assert runs_saturate_modulus(f) is fraction_runs_saturate_modulus(twin)


def test_key_finish_on_constants_huge_keys_horizons_and_max_with_unit():
    bps = (0, F(1, 4), F(1, 2), F(3, 4), 1)
    zig = (F(1, 3), F(13, 3), F(4, 3), F(10, 3), 0)
    huge = tuple(F(v, 7) for v in (10 ** 30, -(10 ** 30), 3 * 10 ** 29, -(10 ** 29), 10 ** 30))
    cases = {"constant": (F(7, 3),) * 5, "integral": tuple(map(F, (0, 4, 1, 3, 0))),
             "zigzag": zig, "huge": huge}
    for name, values in cases.items():
        f = PiecewiseLinearFunction(bps, values)
        for phi in KEY_FINISH_PHIS:
            for new, old in ((variation_bruteforce, fraction_bruteforce),
                             (variation_greedy, fraction_greedy),
                             (variation_upper_bound, fraction_upper_bound)):
                got = run_outcome(new, f, phi)
                assert got == run_outcome(old, f, phi), (name, new.__name__, phi)
                # the key finish gives one Fraction, or the int 0
                if got[0][0] == "ok" and phi.is_exact() and \
                        phi.rearrangement_base().sorted_hat_is_sup:
                    want = ("ok", int) if name == "constant" else ("ok", F)
                    assert got[0][:2] == want, (name, new.__name__, phi)
        assert runs_saturate_modulus(f) is fraction_runs_saturate_modulus(f)
    # three weights under four runs: the same refusal from greedy and upper
    short = summable([1, F(1, 2), F(1, 3)])
    f = PiecewiseLinearFunction(bps, zig)
    for new, old in ((variation_greedy, fraction_greedy),
                     (variation_upper_bound, fraction_upper_bound)):
        got = run_outcome(new, f, short)
        assert got[0][:2] == ("error", HorizonExceeded) and got == run_outcome(old, f, short)
    # max-with-unit keeps the values' arithmetic, and warns
    capped = max_with_unit(counting())
    got = run_outcome(variation_greedy, f, capped)
    assert got == run_outcome(fraction_greedy, f, capped)
    assert "no ordering guarantee" in got[1][0] and got[0][:2] == ("ok", F)


def family_typed_enumeration(f, n_max=None):
    """The enumeration with every exact entry typed by its first winning
    family, read back along the parent links: the reference."""
    from gbv._util import all_exact
    from gbv.variation import _family_tree, _oscillation_grid

    B = f.segments
    if n_max is None:
        n_max = B
    y = f.values
    grid, scale = _oscillation_grid(y, all_exact(y), max(n_max, 1))
    best, won = [0] * (n_max + 1), [None] * (n_max + 1)
    total = np.zeros(1, grid.dtype)
    levels = _family_tree(B + 1, n_max)[0] if n_max > 0 else ()
    with np.errstate(over="ignore"):
        for k, (parent, cell) in enumerate(levels, 1):
            total = total[parent] + grid[cell]
            at = int(np.argmax(total))
            if total.item(at) > 0:
                best[k], won[k] = total.item(at), at
    if scale is not None:
        for k in range(1, n_max + 1):
            family, at = [], won[k]
            for parent, cell in reversed(levels[:k] if at is not None else ()):
                family.append(divmod(int(cell[at]), B + 1))
                at = int(parent[at])
            frac = any(isinstance(y[i], F) or isinstance(y[j], F) for i, j in family)
            best[k] = F(best[k], scale) if frac else best[k] // scale
    for k in range(1, n_max + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return tuple(best)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_enumeration_types_single_type_values_as_the_family_readback_does(data):
    kind = data.draw(st.sampled_from(sorted(KEY_FINISH_KINDS)), label="kind")
    B = data.draw(st.integers(1, 8), label="B")
    f = _function_of(data.draw(st.lists(KEY_FINISH_KINDS[kind], min_size=B + 1,
                                        max_size=B + 1), label="values"))
    # an int/Fraction mix reads as its Fraction twin, a function of one type
    twin = fraction_twin(f)
    for n_max in (B, data.draw(st.integers(0, B), label="n_max")):
        got = typed(modulus_by_enumeration(f, n_max).values)
        assert got == typed(family_typed_enumeration(twin, n_max)), (f, n_max)


# ---------------------------------------------------------------------------
# one type per function: an int/Fraction mix reads as its Fraction twin
# ---------------------------------------------------------------------------


def contract_phis():
    """Every variant of ``selftest._variant_pool``, and max-with-unit."""
    from gbv.selftest import _variant_pool

    return ([phi for phi, _ in _variant_pool(random.Random(30))],
            [max_with_unit(summable(harmonic_weights(8))), max_with_unit(counting())])


CONTRACT_PHIS, CONTRACT_CAPPED = contract_phis()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_fraction_mixes_equal_their_fraction_twin_in_value_and_type(data):
    from gbv.variation import _modulus_dp

    B = data.draw(st.integers(1, 9), label="B")
    values = data.draw(st.lists(st.one_of(st.booleans(), _ints, _fractions, _few.map(F)),
                                min_size=B + 1, max_size=B + 1), label="values")
    # at least one Fraction and one int or bool
    i = data.draw(st.integers(0, B), label="fraction at")
    values[i] = data.draw(st.one_of(_fractions, _few.map(F)), label="fraction")
    values[i - 1] = data.draw(st.one_of(st.booleans(), _ints, _few), label="int")
    f = _function_of(values)
    twin = PiecewiseLinearFunction(f.breakpoints, tuple(map(F, values)))
    assert typed(jordan_variation(f)) == typed(jordan_variation(twin))
    assert typed(monotone_runs(f)) == typed(monotone_runs(twin))
    for n_max in (B, data.draw(st.integers(0, B), label="n_max")):
        for modulus in (modulus_of_variation, _modulus_dp, modulus_by_enumeration):
            got = typed(modulus(f, n_max).values)
            assert got == typed(modulus(twin, n_max).values), (modulus.__name__, n_max)
    assert runs_saturate_modulus(f) is runs_saturate_modulus(twin)
    phis = CONTRACT_PHIS + (CONTRACT_CAPPED if B <= 4 else [])
    for phi in phis:
        for call in (variation_bruteforce, variation_greedy, variation_upper_bound):
            assert run_outcome(call, f, phi) == run_outcome(call, twin, phi), (call, phi)
        # the result's repr shows the type of its value and variation
        for method in ("brute", "greedy"):
            assert run_outcome(bv_norm_detail, f, phi, method) == \
                run_outcome(bv_norm_detail, twin, phi, method), (method, phi)


def test_a_constant_mix_has_the_norm_of_its_fraction_twin():
    f = PiecewiseLinearFunction((0, 1), (2, F(2)))
    for phi in CONTRACT_PHIS:
        got = bv_norm(f, phi)
        assert type(got) is F and got == 2, phi
    assert typed(modulus_of_variation(f).values) == ((int, 0), (int, 0))
    assert typed(jordan_variation(f)) == (F, 0)


# ---------------------------------------------------------------------------
# one merge per function: the modulus and the sorted runs are cached on it
# ---------------------------------------------------------------------------


def count_merges(monkeypatch):
    """Calls of the merge and of the DP, by name, from now on."""
    from gbv import variation as V

    calls = []
    for name in ("_merge_smallest_swing", "_modulus_dp"):
        def counted(*args, real=getattr(V, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(V, name, counted)
    return calls


MERGE_COUNT_VALUES = {
    "exact": ["0", "3/2", "-1", "7/3", "2", "-5/4", "1", "0", "9/2", "-2", "1/3"],
    "float": ["0.0", "1.5", "-1.0", "2.25", "2.0", "-1.25", "1.0", "0.0", "4.5", "-2.0", "0.375"],
    # a float CSV with a 0,0 first line: an int/float mix, which runs the DP
    "mix": ["0", "1.5", "-1.0", "2.25", "2.0", "-1.25", "1.0", "0.0", "4.5", "-2.0", "0.375"],
}


@pytest.mark.parametrize("kind", sorted(MERGE_COUNT_VALUES))
def test_each_function_merges_once(kind, tmp_path, monkeypatch, capsys):
    import json

    from gbv.cli import main
    from gbv.io import load_function_csv

    values = MERGE_COUNT_VALUES[kind]
    B = len(values) - 1
    csv = tmp_path / "f.csv"
    csv.write_text("".join(f"{k}/{B},{y}\n" for k, y in enumerate(values)))
    desc = tmp_path / "phi.json"
    desc.write_text(json.dumps({"type": "density", "form": "power", "param": "1/2"}))
    want = ["_modulus_dp" if kind == "mix" else "_merge_smallest_swing"]
    calls = count_merges(monkeypatch)
    for method in ("all", "greedy", "upper"):
        calls.clear()
        argv = ["variation", "--function", str(csv), "--submeasure", str(desc),
                "--method", method] + (["--exact"] if kind == "exact" else [])
        assert main(argv) == 0, capsys.readouterr().err
        assert calls == want, method
    capsys.readouterr()
    calls.clear()
    f = load_function_csv(csv)
    phis = [summable(harmonic_weights(16)), density(sqrt_bound()), unit(), counting(),
            shift_normalize(summable(harmonic_weights(16)))]
    for phi in phis:
        variation_upper_bound(f, phi)
    variation_greedy(f, phis[0])
    runs_saturate_modulus(f)
    for n in range(B + 1):
        modulus_of_variation(f, n)
    for method in ("brute", "greedy"):
        bv_norm_detail(f, phis[1], method)
    assert calls == want
    # no caller can change what every estimator reads
    cached = [f._modulus.values, f._increments, f._runs]
    if kind == "exact":
        cached += [f._modulus_keys, f._increment_keys, f._run_keys]
    assert all(type(c) is tuple for c in cached)


CACHE_KINDS = {"exact": st.one_of(_ints, _fractions), "float": _floats,
               "int-float": st.one_of(_ints, _few.map(float))}
CACHE_PHIS = [summable(harmonic_weights(64)), density(sqrt_bound()), unit(), counting(),
              shift_normalize(summable(harmonic_weights(64))),
              summable(power_weights(0.7, 64)),
              permuted(summable(harmonic_weights(64)), tuple(range(64, 0, -1)))]


def every_estimator(B):
    """(name, call) for each estimator that reads the cache."""
    calls = [(f"modulus {n}", lambda f, n=n: modulus_of_variation(f, n)) for n in range(B + 1)]
    for phi in CACHE_PHIS:
        calls += [(f"greedy {phi!r}", lambda f, phi=phi: variation_greedy(f, phi)),
                  (f"upper {phi!r}", lambda f, phi=phi: variation_upper_bound(f, phi))]
    return calls + [("saturate", runs_saturate_modulus)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_results_equal_a_fresh_copy(data):
    kind = data.draw(st.sampled_from(sorted(CACHE_KINDS)), label="kind")
    B = data.draw(st.integers(1, 40), label="B")
    values = data.draw(st.lists(CACHE_KINDS[kind], min_size=B + 1, max_size=B + 1),
                       label="values")
    f = _function_of(values)
    calls = every_estimator(B)
    for _ in range(2):
        for name, call in calls:
            # a copy with nothing cached on it
            assert run_outcome(call, f) == run_outcome(call, _function_of(values)), name


def test_float_range_refusals_are_raised_on_every_call():
    inc = PiecewiseLinearFunction((0, F(1, 2), 1), (0.0, 1.7e308, 7e307))
    big = 10 ** 308
    run = PiecewiseLinearFunction((0, F(1, 2), 1), (big, -big, 0))
    harmonic, power = summable(harmonic_weights(8)), summable(power_weights(0.7, 16))
    cases = [(variation_upper_bound, inc, harmonic,
              r"^modulus increment 2 is not finite \(inf\)"),
             (variation_greedy, inc, harmonic,
              r"^the variation overflows the float range \(inf\)"),
             (variation_greedy, run, power,
              r"^the monotone run from breakpoint 1 to breakpoint 2 overflows a float"),
             (variation_upper_bound, run, power, r"^modulus increment 1 overflows a float")]
    for call, f, phi, message in cases:
        for _ in range(3):
            with pytest.raises(NonFiniteValue, match=message):
                call(f, phi)


PERMUTED_BASES = {"harmonic": summable(harmonic_weights(8)), "sqrt": density(sqrt_bound())}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permuted_variants_bracket_the_brute_force(data):
    """greedy <= brute <= upper under a permutation: all three score on the
    rearrangement base."""
    base = data.draw(st.sampled_from(sorted(PERMUTED_BASES)), label="base")
    phi = permuted(PERMUTED_BASES[base], data.draw(st.permutations(range(1, 9)), label="perm"))
    exact = data.draw(st.booleans(), label="exact")
    B = data.draw(st.integers(1, 8), label="B")
    draw = _fractions if exact else st.integers(-6144, 6144).map(lambda k: k / 1024)
    f = _function_of(data.draw(st.lists(draw, min_size=B + 1, max_size=B + 1),
                               label="values"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        greedy, upper = variation_greedy(f, phi), variation_upper_bound(f, phi)
    brute = variation_bruteforce(f, phi)
    slack = 0 if exact else 1e-12 * max(1.0, abs(upper))
    assert greedy <= brute + slack and brute <= upper + slack, (greedy, brute, upper)
