"""The hats stated on integer keys against the per-entry loops they replaced.

``reference_hat`` is the hat of every keyed variant one entry at a time, in
the entries' own arithmetic: the exact loops of the weighted sum, shift,
density, counting and unit hats (and the placement of the permutation
wrapper).  Value and type must agree with ``hat``, which takes exact entries
through ``Submeasure._key_hat``.
"""

import math
import random
import re
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import HorizonExceeded, NonFiniteValue, exact_div
from gbv.selftest import _variant_pool
from gbv.submeasure import (
    CountingSubmeasure,
    DensitySubmeasure,
    PermutedSubmeasure,
    ShiftedSubmeasure,
    SummableSubmeasure,
    UnitSubmeasure,
    WatermanWeights,
    counting,
    density,
    density_from_table,
    harmonic_weights,
    identity_bound,
    log_bound,
    log_weights,
    ones_weights,
    permuted,
    shift_normalize,
    sqrt_bound,
    summable,
    unit,
)
from gbv.variation import (
    PiecewiseLinearFunction,
    jordan_variation,
    variation_greedy,
    variation_upper_bound,
)


def reference_hat(phi, x):
    """The hat of x under phi, one entry at a time."""
    x = tuple(x)
    if isinstance(phi, ShiftedSubmeasure):
        extra = 0
        for i, v in enumerate(x, start=1):
            if v:
                extra += F(1, 2 ** i) * abs(v)
        return reference_hat(phi.base, x) + extra
    if isinstance(phi, PermutedSubmeasure):
        if not x:
            return 0
        y = [0] * max(phi.perm[:len(x)])
        for i, v in enumerate(x):
            y[phi.perm[i] - 1] = v
        return reference_hat(phi.base, y)
    if isinstance(phi, SummableSubmeasure):
        total = 0
        for i, v in enumerate(x, start=1):
            if v:
                total += phi.weights.value_at(i) * abs(v)
        return total
    if isinstance(phi, DensitySubmeasure):
        best = prefix = 0
        for n, v in enumerate(x, start=1):
            prefix = prefix + abs(v)
            val = exact_div(prefix, phi.bound.g(n))
            if val > best:
                best = val
        return best
    if isinstance(phi, UnitSubmeasure):
        return max((abs(v) for v in x), default=0)
    assert isinstance(phi, CountingSubmeasure), phi
    total = 0
    for v in x:
        total += abs(v)
    return total


MIXED_TABLE = [3, F(5, 2), 2, 2, F(3, 2), True, 1, F(2, 3), F(1, 2), F(1, 2),
               F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 7), F(1, 8)]
INT_TABLE = [5, 5, 4, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1]
FRACTION_TABLE = [F(27, 2), F(27, 4), F(189, 40), F(567, 200), F(3969, 2000), F(3969, 4000),
                  F(3969, 8000), F(3969, 16000), F(3969, 32000), F(3969, 64000), F(1, 20),
                  F(1, 21), F(1, 22), F(1, 23), F(1, 24), F(1, 25)]
PERM = tuple(random.Random(29).sample(range(1, 17), 16))


def keyed_variants():
    """Every keyed leaf, each shifted and permuted, and deeper stacks; the
    last two have a horizon of 12, below the longest entries."""
    leaves = [summable(WatermanWeights(MIXED_TABLE)), summable(WatermanWeights(INT_TABLE)),
              summable(WatermanWeights(FRACTION_TABLE)), summable(harmonic_weights(4)),
              summable(log_weights(4)), summable(ones_weights(4)),
              density(identity_bound()), density(sqrt_bound()), density(log_bound()),
              unit(), counting()]
    out = leaves + [shift_normalize(phi) for phi in leaves]
    out += [permuted(phi, PERM) for phi in leaves]
    out += [shift_normalize(shift_normalize(leaves[0])),
            permuted(shift_normalize(leaves[6]), PERM),
            summable(WatermanWeights(MIXED_TABLE[:12])),
            shift_normalize(density(density_from_table([min(n, 5) for n in range(1, 13)])))]
    return out


VARIANTS = keyed_variants()
exact_entries = st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7),
                                   st.booleans(), st.sampled_from([0, F(0)])), max_size=16)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(VARIANTS))), exact_entries)
def test_key_hats_equal_the_per_entry_loops_in_value_and_type(i, x):
    phi = VARIANTS[i]
    if phi.horizon is not None and len(x) > phi.horizon:
        with pytest.raises(HorizonExceeded, match=re.escape(
                f"sequence length {len(x)} exceeds horizon {phi.horizon} of {phi!r}")):
            phi.hat(x)
        return
    got, want = phi.hat(x), reference_hat(phi, x)
    assert got == want and type(got) is type(want), (phi, x, got, want)


def test_key_hats_on_zeros_and_the_empty_vector():
    for phi in VARIANTS:
        for x in ((), (0,), (F(0),), (0, F(0)), (F(0), 0), (False, 0, F(0)), (True,)):
            got, want = phi.hat(x), reference_hat(phi, x)
            assert got == want and type(got) is type(want), (phi, x, got, want)


def _zigzag(segments: int) -> PiecewiseLinearFunction:
    return PiecewiseLinearFunction(
        tuple([0] + [F(k, segments) for k in range(1, segments)] + [1]),
        tuple(F(k % 2 * (k + 3), 2) for k in range(segments + 1)))


def test_horizon_message_is_kept_through_greedy_and_upper():
    f = _zigzag(20)                 # 20 runs, all Fraction values
    ff = PiecewiseLinearFunction(tuple(map(float, f.breakpoints)), tuple(map(float, f.values)))
    table = summable(WatermanWeights(MIXED_TABLE[:12]))
    dens = density(density_from_table([min(n, 5) for n in range(1, 13)]))
    for phi in (table, shift_normalize(table), dens, shift_normalize(dens),
                permuted(counting(), tuple(range(12, 0, -1)))):
        message = re.escape(f"sequence length 20 exceeds horizon 12 of {phi!r}")
        for fn in (variation_greedy, variation_upper_bound):
            for g in (f, ff):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    with pytest.raises(HorizonExceeded, match=message):
                        fn(g, phi)


def _old_jordan(f):
    total = 0
    for i in range(f.segments):
        total += abs(f.values[i + 1] - f.values[i])
    return total


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-30, 30), st.fractions(-9, 9, max_denominator=7),
                          st.booleans()), min_size=2, max_size=12))
def test_jordan_variation_on_keys_equals_the_loop(values):
    f = PiecewiseLinearFunction(
        tuple([0] + [F(k, len(values) - 1) for k in range(1, len(values) - 1)] + [1]),
        tuple(values))
    got, want = jordan_variation(f), _old_jordan(f)
    assert got == want and type(got) is type(want), (values, got, want)


def test_jordan_variation_of_fixed_cases():
    for values in ((0, 0), (F(0), 0), (True, False, True), (1, F(1, 2), 1),
                   (F(1), F(1)), (0.5, 1, F(1, 3)), (0.25, -1.5)):
        f = PiecewiseLinearFunction(
            tuple([0] + [F(k, len(values) - 1) for k in range(1, len(values) - 1)] + [1]),
            values)
        got, want = jordan_variation(f), _old_jordan(f)
        assert got == want and type(got) is type(want), (values, got, want)


# exact values at the scales where float twins sit near the ends of the range
HAT_TWIN_SCALES = (1, F(2) ** 900, F(1, 2 ** 900), F(10) ** 300)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), max_size=8),
       st.sampled_from(HAT_TWIN_SCALES), st.integers(0, 2 ** 32))
def test_hat_float_twins_agree_with_the_exact_value_or_refuse(values, scale, seed):
    x = [v * scale for v in values]
    for phi, _ in _variant_pool(random.Random(seed)):
        exact = phi.hat(x)
        try:
            got = phi.hat([float(v) for v in x])
        except NonFiniteValue:
            continue
        assert math.isfinite(got), (phi, x, got)
        assert abs(F(got) - exact) <= F(1, 10 ** 9) * abs(exact), (phi, x, exact, got)
