"""The exact integer scans against the scalar loops they replace.

Each reference below is the loop the library ran before its scan moved onto
integer numpy arrays: g one index at a time, the first maximum of a ratio by
cross-multiplication, the partial-sum ratios of ``preceq_m`` as Fractions,
and the Fraction bisection of ``PiecewiseLinearFunction.__call__``.  The
scans must give the same values, of the same types, at the same indices, and
take the loop where int64 would not hold the products.
"""

import math
from bisect import bisect_right
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbv
from gbv._util import INT64_BOUND, SHORT_SCAN, ceil_power, exact_div, first_max_ratio
from gbv.constructions import density_witness_monotone
from gbv.orders import preceq_density, preceq_m_summable
from gbv.submeasure import (
    POWER_DENOMINATOR_CAP,
    DensityBound,
    density,
    harmonic_weights,
    identity_bound,
    log_bound,
    power_bound,
    sqrt_bound,
    weights_from_values,
)
from gbv.variation import PiecewiseLinearFunction

# ---------------------------------------------------------------------------
# references: the scalar loops
# ---------------------------------------------------------------------------


def loop_first_max(num, den):
    """First index of the largest num[i]/den[i], and that ratio's (p, q)."""
    best, p, q = 0, 0, 1
    for i, (a, b) in enumerate(zip(num, den)):
        if a * q > p * b:
            best, p, q = i, a, b
    return best, p, q


def loop_preceq_density(g, h, horizon, cap):
    """(max g/h as a Fraction, its first n, the first n with g/h >= cap)."""
    c = F(cap)
    num, den, best_n, crossing = 0, 1, 0, None
    for n in range(1, horizon + 1):
        gn, hn = g.g(n), h.g(n)
        if gn * den > num * hn:
            num, den, best_n = gn, hn, n
        if crossing is None and gn * c.denominator >= c.numerator * hn:
            crossing = n
    return F(num, den), best_n, crossing


def loop_density_hat(bound, x):
    """max_n (|x_1| + ... + |x_n|) / g(n), the int 0 when x is all zeros."""
    best, prefix = 0, 0
    for n, v in enumerate(x, start=1):
        prefix += abs(v)
        val = exact_div(prefix, bound.g(n))
        if val > best:
            best = val
    return best


def loop_density_set_value(bound, C):
    C = sorted(set(C))
    num, den = 0, 1
    for rank, n in enumerate(C, start=1):
        gn = bound.g(n)
        if rank * den > num * gn:
            num, den = rank, gn
    return F(num, den) if C else 0


def loop_preceq_m(a, b):
    asum = bsum = 0
    best, best_n = 0, 0
    for n in range(1, len(a) + 1):
        asum += a[n - 1]
        bsum += b[n - 1]
        r = exact_div(bsum, asum)
        if r > best:
            best, best_n = r, n
    return best, best_n


def bisect_call(f, t):
    bp, y = f.breakpoints, f.values
    if t < 0 or t > 1:
        raise ValueError(f"argument {t} outside [0, 1]")
    i = bisect_right(bp, t) - 1
    if i >= len(bp) - 1:
        return y[-1]
    frac = exact_div(t - bp[i], bp[i + 1] - bp[i])
    return y[i] + (y[i + 1] - y[i]) * frac


def same(a, b):
    return a == b and type(a) is type(b)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

CLOSED_FORMS = [identity_bound(), sqrt_bound(), log_bound(), power_bound(F(1, 3)),
                power_bound(F(2, 3)), power_bound(F(3, 4)), power_bound(F(5, 7)),
                power_bound(F(7, 12))]


@st.composite
def tables(draw):
    """A valid density table: g(n + 1) in [g(n), g(n) (n + 1) / n], so
    n/g(n) is nondecreasing, and growing from g(1) to g(N)."""
    n = draw(st.integers(2, 200))
    g1 = draw(st.integers(1, 50))
    g = [g1]
    for m in range(1, n):
        g.append(draw(st.integers(g[-1], g[-1] * (m + 1) // m)))
    if g[-1] == g[0]:
        g = [g1 * m for m in range(1, n + 1)]
    return DensityBound("table", table=g)


bounds = st.one_of(st.sampled_from(CLOSED_FORMS), tables())


def test_g_ints_at_squares_and_powers_of_two():
    # the float root and the float exponent at their edges, up to 2^20
    top = 1 << 20
    g = sqrt_bound().g_ints(top)
    for k in range(1, 1025):
        for n in (k * k - 1, k * k, k * k + 1):
            if 1 <= n <= top:
                assert g[n - 1] == math.isqrt(n - 1) + 1, n
    g = log_bound().g_ints(top)
    for e in range(21):
        for n in ((1 << e) - 1, 1 << e, (1 << e) + 1):
            if 1 <= n <= top:
                assert g[n - 1] == n.bit_length(), n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLOSED_FORMS), st.integers(1, 3000), st.integers(1, 3000))
def test_g_ints_of_closed_forms_is_g(bound, first, second):
    # a fresh bound per form, then a second length that may grow the cache
    bound = DensityBound(bound.form, bound.param)
    for length in (first, second):
        got = bound.g_ints(length)
        assert got.dtype == np.int64 and len(got) == length
        assert got.tolist() == [bound.g(n) for n in range(1, length + 1)]
        assert not got.flags.writeable
        assert bound.g_array(length).tolist() == [float(bound.g(n))
                                                  for n in range(1, length + 1)]


def test_g_ints_of_power_a_over_b_is_ceil_of_the_root():
    for p in (F(1, 2), F(1, 3), F(2, 5), F(9, 10), F(3, 7)):
        got = power_bound(p).g_ints(500).tolist()
        for n, v in enumerate(got, start=1):
            # v - 1 < n^p <= v, checked on integers
            assert (v - 1) ** p.denominator < n ** p.numerator <= v ** p.denominator, (p, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, POWER_DENOMINATOR_CAP).flatmap(
           lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
       st.lists(st.integers(1, 1 << 20), max_size=50))
def test_g_ints_of_power_a_over_b_is_ceil_power_up_to_2_to_the_20(ab, picks):
    # the float root's ceiling, with ceil_power where the root is near an
    # integer: exact powers k^b (root k^a) and their neighbours among them
    p = F(*ab)
    top = 1 << 20
    g = power_bound(p).g_ints(top)
    assert g.tolist()[:2000] == [ceil_power(n, p) for n in range(1, 2001)]
    near = [k ** p.denominator + d for k in range(1, 1025) for d in (-1, 0, 1)]
    for n in picks + [n for n in near if 1 <= n <= top] + [top]:
        assert g[n - 1] == ceil_power(n, p), (p, n)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_g_ints_of_tables_is_the_table(bound):
    n = len(bound.table)
    assert bound.g_ints(n).tolist() == list(bound.table)
    assert bound.g_ints(n).dtype == np.int64
    with pytest.raises(ValueError, match=f"density table ends at {n}, asked for {n + 1}"):
        bound.g_ints(n + 1)


def test_g_ints_of_a_table_past_int64_holds_python_ints():
    table = [m << 57 for m in range(1, 81)]          # 80 * 2^57 > 2^62
    bound = DensityBound("table", table=table)
    assert bound.g_ints(80).dtype == object
    assert bound.g_ints(80).tolist() == table
    assert bound.g_array(80).tolist() == [float(v) for v in table]


# ---------------------------------------------------------------------------
# the first-max kernel
# ---------------------------------------------------------------------------

def _kernel_case(num, den):
    """The kernel on num/den as lists, as object arrays, as int64 arrays
    where every entry fits, and with a ``range`` numerator where num is one."""
    num, den = list(num), list(den)
    want, p, q = loop_first_max(num, den)
    forms = [(num, den), (np.array(num, dtype=object), np.array(den, dtype=object))]
    if max(num + den) < 1 << 63:
        forms.append((np.array(num, dtype=np.int64), np.array(den, dtype=np.int64)))
    step = max(num[1] - num[0], 1) if len(num) > 1 else 1
    span = range(num[0], num[0] + step * len(num), step)
    if num == list(span):
        forms.append((span, den))
    for a, b in forms:
        i = first_max_ratio(a, b)
        assert i == want, (type(a), num, den)
        assert num[i] * q == p * den[i]


lengths = st.one_of(st.integers(1, 80), st.sampled_from([SHORT_SCAN - 1, SHORT_SCAN]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_is_the_first_max_of_the_loop(data):
    # scales 2^40 and 2^70: products past INT64_BOUND, entries past int64
    n = data.draw(lengths)
    scale = data.draw(st.sampled_from([10, 1000, 1 << 30, 1 << 40, 1 << 70]))
    den = data.draw(st.lists(st.integers(1, scale), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        start, step = data.draw(st.integers(0, scale)), data.draw(st.integers(1, 5))
        num = list(range(start, start + n * step, step))
    else:
        num = data.draw(st.lists(st.integers(0, scale), min_size=n, max_size=n))
    _kernel_case(num, den)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_on_ratios_the_floats_cannot_tell_apart(data):
    # (p + d) t / (q t) with p near 2^53: the float of the numerator drops
    # the last bits of d, so the float ratios tie where the exact ones do not
    p = data.draw(st.integers(1 << 53, 1 << 54))
    q = data.draw(st.integers(4, 16))
    n = data.draw(st.integers(1, 2 * SHORT_SCAN))
    num, den = [], []
    for _ in range(n):
        t = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(-3, 3))
        num.append((p + d) * t)
        den.append(q * t)
    _kernel_case(num, den)


def test_kernel_on_all_ties_zeros_and_late_maxima():
    _kernel_case([3] * 100, [7] * 100)
    _kernel_case([3 * k for k in range(1, 101)], [7 * k for k in range(1, 101)])
    _kernel_case([0] * 100, list(range(1, 101)))
    _kernel_case([1] * 99 + [2], [1] * 100)
    big = (1 << 31) - 1
    # the float argmax is index 0, the exact one the last index
    _kernel_case([big - 1] * 99 + [big], [big] * 99 + [big + 1])
    # an exact tie whose later float ratio is the larger: 3N rounds up
    # where N does not, so the float argmax is index 1 and the answer 0
    N = next(N for N in range((1 << 54) + 1, (1 << 54) + 100)
             if float(3 * N) / 24 > float(N) / 8)
    pad = SHORT_SCAN - 2
    assert first_max_ratio(np.array([N, 3 * N] + [0] * pad), np.array([8, 24] + [1] * pad)) == 0
    # products at and past INT64_BOUND, on either side of SHORT_SCAN
    for n in (SHORT_SCAN - 1, SHORT_SCAN, SHORT_SCAN + 1):
        _kernel_case([1 << 31] * (n - 1) + [(1 << 31) + 1], [1 << 31] * n)
        _kernel_case(range(1, n + 1), [INT64_BOUND // n + 1] * (n - 1) + [INT64_BOUND // n])
        _kernel_case([(1 << 70) + k for k in range(n)], [(1 << 70) + 2 * k for k in range(n)])


# ---------------------------------------------------------------------------
# preceq_density, density_witness_monotone, hat and set_value
# ---------------------------------------------------------------------------

caps = st.one_of(st.integers(1, 40), st.fractions(F(1, 10), F(40), max_denominator=50),
                 st.floats(0.1, 40.0))


@settings(max_examples=150, deadline=None)
@given(bounds, bounds, st.integers(SHORT_SCAN, 200), caps)
def test_preceq_density_is_the_loop(g, h, horizon, cap):
    top = min(b.horizon or horizon for b in (g, h))
    horizon = min(horizon, top)
    report = preceq_density(g, h, horizon, cap)
    best, best_n, crossing = loop_preceq_density(g, h, horizon, cap)
    assert same(report.bound_estimate, best)
    assert report.details["argmax"] == best_n
    if crossing is None:
        assert report.witness is None
    else:
        assert report.details["witness_certificate"].details["n"] == crossing


def test_preceq_density_at_horizon_0_is_the_zero_fraction():
    report = preceq_density(sqrt_bound(), log_bound(), 0)
    assert same(report.bound_estimate, F(0)) and report.details["argmax"] == 0


@pytest.mark.parametrize("shift", [57, 50])
def test_preceq_density_on_tables_past_int64_takes_the_loop(shift):
    # shift 57: entries past INT64_BOUND; shift 50: entries fit, g * h does not
    big = DensityBound("table", table=[m << shift for m in range(1, 101)])
    for g, h in ((big, sqrt_bound()), (sqrt_bound(), big), (big, big)):
        for cap in (2, F(1, 3), 0.1, 1e20):
            report = preceq_density(g, h, 100, cap)
            best, best_n, crossing = loop_preceq_density(g, h, 100, cap)
            assert same(report.bound_estimate, best)
            assert report.details["argmax"] == best_n
            assert (report.witness is None) == (crossing is None)
    cert = density_witness_monotone(big, sqrt_bound(), 100)
    _, s_num, s_den = loop_first_max(list(range(1, 101)), list(big.table))
    assert same(cert.details["s"], F(s_num, s_den)) and cert.all_passed


def test_preceq_density_crossing_with_caps_whose_products_pass_int64():
    # 0.1 is 3602879701896397 / 2^55: g * cap_den passes int64 at 30000
    for cap in (0.1, 1.7, F(10 ** 20 + 1, 10 ** 20)):
        report = preceq_density(identity_bound(), sqrt_bound(), 30000, cap)
        best, best_n, crossing = loop_preceq_density(identity_bound(), sqrt_bound(), 30000, cap)
        assert same(report.bound_estimate, best) and report.details["argmax"] == best_n
        assert report.details["witness_certificate"].details["n"] == crossing


@settings(max_examples=60, deadline=None)
@given(bounds, bounds, st.integers(1, 200))
def test_density_witness_monotone_s_is_the_loop(g, h, n):
    n = min(n, g.horizon or n, h.horizon or n)
    cert = density_witness_monotone(g, h, n)
    _, s_num, s_den = loop_first_max(list(range(1, n + 1)), [g.g(m) for m in range(1, n + 1)])
    assert same(cert.details["s"], F(s_num, s_den))
    assert cert.all_passed


def test_density_witness_past_a_table_names_the_first_missing_index():
    bound = DensityBound("table", table=list(range(1, 101)))
    with pytest.raises(ValueError, match="density table ends at 100, asked for 101"):
        density_witness_monotone(bound, sqrt_bound(), 150)


exact_entries = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                          st.fractions(-1000, 1000, max_denominator=60))


@settings(max_examples=40, deadline=None)
@given(bounds, st.lists(exact_entries, min_size=SHORT_SCAN, max_size=120))
def test_density_hat_on_long_exact_input_is_the_loop(bound, x):
    x = x[:bound.horizon or len(x)]
    assert same(density(bound).hat(x), loop_density_hat(bound, x))


def test_density_hat_of_zeros_and_of_entries_past_int64():
    phi = density(sqrt_bound())
    assert same(phi.hat([0] * 100), 0)
    for x in ([10 ** 20] * 100, [F(1, 3 ** 40)] * 100, [1] * 99 + [10 ** 30]):
        assert same(phi.hat(x), loop_density_hat(sqrt_bound(), x))


@settings(max_examples=100, deadline=None)
@given(bounds, st.data())
def test_density_set_value_on_long_sets_is_the_loop(bound, data):
    top = bound.horizon or 400
    C = data.draw(st.one_of(
        st.lists(st.integers(1, top), min_size=SHORT_SCAN, max_size=300),
        st.builds(lambda a, b: range(min(a, b), max(a, b) + 1),
                  st.integers(1, top), st.integers(1, top))))
    assert same(density(bound).set_value(C), loop_density_set_value(bound, C))
    if bound.horizon is None:
        # members far past MAX_HORIZON cost g per member, not a profile
        for C in (list(range(1, 64)) + [10 ** 12], range(10 ** 12, 10 ** 12 + 64),
                  list(range(1, 64)) + [10 ** 7], list(range(1, 65)) + [10 ** 18]):
            assert same(density(bound).set_value(C), loop_density_set_value(bound, C))


@pytest.mark.parametrize("bound", CLOSED_FORMS + [power_bound(F(7, 9))], ids=repr)
def test_sparse_sets_read_g_per_member_without_growing_the_profile(bound):
    bound = DensityBound(bound.form, bound.param)            # an empty cache
    phi = density(bound)
    for C in (list(range(1, 64)) + [10 ** 6], list(range(1, 128)) + [10 ** 6 - 1, 10 ** 6]):
        assert same(phi.set_value(C), loop_density_set_value(bound, C))
        assert bound.g_at(C) == [bound.g(n) for n in C]
        assert bound._g_ints is None
    # a dense set gathers, and a sparse set within the cached profile reads it
    dense = list(range(1, 64)) + [500]
    assert same(phi.set_value(dense), loop_density_set_value(bound, dense))
    cached = len(bound._g_ints)
    assert 500 <= cached < 10 ** 6
    sparse = list(range(1, 64)) + [cached]
    assert bound.g_at(sparse).tolist() == [bound.g(n) for n in sparse]
    assert same(phi.set_value(sparse), loop_density_set_value(bound, sparse))
    assert len(bound._g_ints) == cached

def test_density_set_value_past_int64_takes_the_loop():
    big = DensityBound("table", table=[m << 57 for m in range(1, 101)])
    for C in (range(1, 101), range(20, 90), list(range(1, 101, 1))):
        assert same(density(big).set_value(C), loop_density_set_value(big, C))


# ---------------------------------------------------------------------------
# preceq_m_summable
# ---------------------------------------------------------------------------

def _preceq_m_case(a, b):
    report = preceq_m_summable(weights_from_values(a), weights_from_values(b), cap=10 ** 9)
    best, best_n = loop_preceq_m(a, b)
    assert same(report.bound_estimate, best), (report.bound_estimate, best)
    assert report.details["argmax"] == best_n


@pytest.mark.parametrize("c", [1, 2, 5])
@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_preceq_m_harmonic_against_c_over_n_plus_shift(c, shift):
    # shift 0 is proportional: every ratio ties with the first
    _preceq_m_case([F(1, n) for n in range(1, 2049)], [F(c, n + shift) for n in range(1, 2049)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_preceq_m_is_the_loop(data):
    n = data.draw(st.integers(1, 120))
    a = sorted(data.draw(st.lists(st.fractions(F(1, 40), 50, max_denominator=40),
                                  min_size=n, max_size=n)), reverse=True)
    kind = data.draw(st.sampled_from(["proportional", "near-proportional",
                                      "tie-then-diverge", "free", "ints"]))
    c = data.draw(st.fractions(F(1, 10), 10, max_denominator=10))
    if kind == "proportional":
        b = [c * v for v in a]
    elif kind == "near-proportional":
        # ratios apart by about 1e-18: the floats cannot order them
        a = [F(1, i) for i in range(1, n + 1)]
        e = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        b = [c * v * (1 + F(d, 10 ** 18)) for v, d in zip(a, e)]
    elif kind == "tie-then-diverge":
        k = data.draw(st.integers(1, n))
        b = [c * v for v in a[:k]] + [c * a[k - 1]] * (n - k)
    elif kind == "ints":
        a = sorted(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), reverse=True)
        b = sorted(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), reverse=True)
    else:
        b = sorted(data.draw(st.lists(st.fractions(F(1, 40), 50, max_denominator=40),
                                      min_size=n, max_size=n)), reverse=True)
    _preceq_m_case(a, b)


def test_preceq_m_with_weights_past_the_float_range_takes_the_loop():
    # float() of 10^400 overflows, of 10^-400 is 0: the screen's bound is void
    ones = [1] * 100
    _preceq_m_case([10 ** 400] + ones[1:], ones)
    _preceq_m_case(ones, [10 ** 400] + ones[1:])
    tiny = F(1, 10 ** 400)
    _preceq_m_case(ones[:99] + [tiny], [F(1, 2)] * 100)
    _preceq_m_case([F(1, 2)] * 100, ones[:99] + [tiny])
    # normal weights whose ratios pass the float range either way
    _preceq_m_case([F(1, 10 ** 200)] * 100, [10 ** 200] * 50 + [1] * 50)
    _preceq_m_case([10 ** 200] * 50 + [10 ** 199] * 50, [F(1, 10 ** 200)] * 100)
    # normal weights whose float partial sums pass the float range
    _preceq_m_case([10 ** 307] * 100, [10 ** 307] * 50 + [10 ** 306] * 50)
    harmonic = harmonic_weights(100)
    big = weights_from_values([10 ** 400] * 100)
    assert preceq_m_summable(harmonic, big).details["argmax"] == 100


# ---------------------------------------------------------------------------
# PiecewiseLinearFunction.__call__
# ---------------------------------------------------------------------------

FUNCTIONS = [
    PiecewiseLinearFunction((0, F(1, 3), F(1, 2), 1), (0, 2, -1, 5)),
    PiecewiseLinearFunction((0, F(1, 3), F(1, 2), 1), (F(1, 2), 2, F(-7, 3), 5)),
    PiecewiseLinearFunction((0, F(1, 3), F(1, 2), 1), (0.5, 2, -1.25, 5)),
    PiecewiseLinearFunction((0, 1), (3, 4)),
    PiecewiseLinearFunction((0, 0.25, 1), (1, 0, 1)),
    PiecewiseLinearFunction(tuple([0] + [F(1, 2 ** k) for k in range(40, 0, -1)] + [1]),
                            tuple(range(42))),
]

points = st.one_of(st.integers(0, 1), st.booleans(),
                   st.fractions(0, 1, max_denominator=10 ** 15),
                   st.sampled_from([F(1, 3), F(1, 6), F(1, 2 ** 40), F(3, 2 ** 41)]),
                   st.floats(0, 1))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUNCTIONS), points)
def test_call_has_the_value_and_type_of_the_bisection(f, t):
    assert same(f(t), bisect_call(f, t)), (f, t)


def test_call_at_the_ends_keeps_the_types():
    f = FUNCTIONS[0]
    assert same(f(0), F(0)) and same(f(1), 5) and same(f(F(1)), 5)
    assert same(f(F(1, 3)), F(2)) and same(f(0.0), 0.0) and same(f(False), F(0))


@pytest.mark.parametrize("t", [-1, F(-1, 3), 2, F(4, 3), 1.5, -0.0001])
def test_call_out_of_range_names_the_argument(t):
    with pytest.raises(ValueError, match=rf"^argument {t} outside \[0, 1\]$"):
        FUNCTIONS[1](t)



def test_only_util_names_the_int64_bound():
    # one helper, _util.int_dtype, chooses int64 or Python ints for every
    # integer kernel, so no other module of the library names its bound
    src = Path(gbv.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if "INT64_BOUND" in p.read_text()) == \
        ["_util.py"]
