"""The hull scan of ``DensitySubmeasure.tail_norms`` against the quadratic scan.

The reference below is the direct reading of the definition, one numpy pass
per cut: the tail at cut c is max over m >= c of (P[m] - P[c - 1]) / g(m),
with P the prefix sums of |x|.  The hull scan must agree with it within 2
ulps on every entry.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv.submeasure import (
    DensityBound,
    density,
    identity_bound,
    log_bound,
    power_bound,
    shift_normalize,
    sqrt_bound,
)


def quadratic_tail_norms(bound, x):
    """Tail norms under density ``bound`` by one pass per cut, O(n^2)."""
    ax = np.abs(np.asarray(x, dtype=float))
    n = len(ax)
    if n == 0:
        return np.empty(0)
    g = bound.g_array(n)
    prefix = np.cumsum(ax)
    out = np.empty(n)
    out[0] = (prefix / g).max()
    for cut in range(2, n + 1):
        out[cut - 1] = ((prefix[cut - 1:] - prefix[cut - 2]) / g[cut - 1:]).max()
    return out


def assert_within_ulps(got, want, ulps=2):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    gap = np.abs(got - want)
    assert (gap <= ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))).all(), \
        (got, want)


def _table(first, jumps):
    # n/g(n) stays nondecreasing: a jump v -> w at n is admissible iff
    # w - v <= v // (n - 1); the table is made to grow once at n = 2 if
    # no jump was drawn
    g = [first]
    for n, jump in enumerate(jumps, start=2):
        v = g[-1]
        g.append(v + min(jump, v // (n - 1)))
    if g[-1] == g[0]:
        g = [first] + [first + 1] * len(jumps)
    return DensityBound("table", table=g)


ENTRIES = st.one_of(
    st.just(0.0),
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def bounds(draw, n):
    kind = draw(st.sampled_from(["sqrt", "log", "identity", "cube-root", "table"]))
    if kind != "table":
        return {"sqrt": sqrt_bound(), "log": log_bound(), "identity": identity_bound(),
                "cube-root": power_bound(F(1, 3))}[kind]
    # mostly zero jumps: long plateaus of g
    jumps = draw(st.lists(st.one_of(st.just(0), st.just(0), st.integers(0, 4)),
                          min_size=max(n, 2) - 1, max_size=max(n, 2) - 1))
    return _table(draw(st.integers(1, 3)), jumps)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hull_scan_matches_the_quadratic_scan(data):
    x = data.draw(st.lists(ENTRIES, max_size=120))
    bound = data.draw(bounds(len(x)))
    arr = np.array(x, dtype=float)
    assert_within_ulps(density(bound).tail_norms(arr), quadratic_tail_norms(bound, arr))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_shift_over_density_adds_the_dyadic_tail_to_the_hull_scan(data):
    x = data.draw(st.lists(ENTRIES, max_size=60))
    bound = data.draw(bounds(len(x)))
    arr = np.array(x, dtype=float)
    dyadic = np.ldexp(1.0, -np.arange(1, len(arr) + 1)) * np.abs(arr)
    want = quadratic_tail_norms(bound, arr) + np.cumsum(dyadic[::-1])[::-1]
    assert_within_ulps(shift_normalize(density(bound)).tail_norms(arr), want)


@pytest.mark.parametrize("x", [[], [0.0], [2.5], [0.0, 0.0], [1.0, -3.0], [-3.0, 1.0]],
                         ids=["len0", "zero", "len1", "zeros", "up", "down"])
@pytest.mark.parametrize("bound", [sqrt_bound(), log_bound(), identity_bound(),
                                   DensityBound("table", table=[1, 2])],
                         ids=["sqrt", "log", "identity", "table"])
def test_short_sequences(x, bound):
    got = density(bound).tail_norms(np.array(x, dtype=float))
    np.testing.assert_array_equal(got, quadratic_tail_norms(bound, x))


def test_long_plateaus_of_g_and_of_the_prefix_sums():
    # g is flat over runs of up to 1024 indices (log) or over the last 2500
    # (a table may jump at n only by g // (n - 1)); x has long runs of zeros
    rng = np.random.default_rng(5)
    x = rng.random(3000) * (rng.random(3000) < 0.05)
    x[1000:2000] = 0.0
    plateaus = DensityBound("table", table=list(range(1, 501)) + [500] * 2500)
    for bound in (log_bound(), plateaus):
        assert_within_ulps(density(bound).tail_norms(x), quadratic_tail_norms(bound, x))


@pytest.mark.parametrize("shape", ["random", "decreasing", "sparse"])
def test_long_sequences_under_the_sqrt_bound(shape):
    rng = np.random.default_rng(11)
    n = 6000
    x = {"random": rng.random(n),
         "decreasing": 1.0 / np.sqrt(np.arange(1, n + 1)),
         "sparse": rng.exponential(size=n) ** 3 * (rng.random(n) < 0.1)}[shape]
    bound = sqrt_bound()
    assert_within_ulps(density(bound).tail_norms(x), quadratic_tail_norms(bound, x))


def test_a_prefix_past_the_float_range_reads_as_the_quadratic_scan_does():
    # inf where the cut's offset is finite, NaN past the overflow
    x = np.array([1e308, 1e308, 1.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        got = density(sqrt_bound()).tail_norms(x)
        want = quadratic_tail_norms(sqrt_bound(), x)
    np.testing.assert_array_equal(got, want)
    assert np.isinf(got[:2]).all() and np.isnan(got[2:]).all()
