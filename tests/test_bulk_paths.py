"""Each bulk path of the exact rail against the per-entry route it replaced.

The numerator kernel, the hats built on it, the table-token parser, the
Fraction-table check of ``WatermanWeights`` and the zig-zag's canonical
oscillations must give what the per-entry references below give: the same
values of the same types, and the same refusal at the same index with the
same message.  Inputs mix ints and Fractions, with runs of one object, runs
of equal but distinct objects, negatives and zeros.
"""

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import SHORT_SCAN, exact_div, integer_keys, parse_number
from gbv.constructions import zigzag_from_sequence
from gbv.io import _parse_token
from gbv.submeasure import (WatermanWeights, counting, density, harmonic_weights,
                            identity_bound, shift_normalize, sqrt_bound, summable, unit)

# ---------------------------------------------------------------------------
# references: the per-entry loops
# ---------------------------------------------------------------------------


def ref_over_common_denominator(values):
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def ref_counting_hat(x):
    total = 0
    for v in x:
        total += abs(v)
    return total


def ref_density_hat(bound, x):
    best, prefix = 0, 0
    for n, v in enumerate(x, start=1):
        prefix += abs(v)
        val = exact_div(prefix, bound.g(n))
        if val > best:
            best = val
    return best


def ref_shifted_hat(base, x):
    """The shifted hat with its dyadic part added term by term."""
    extra = 0
    for i, v in enumerate(x, start=1):
        if v:
            extra += F(1, 2 ** i) * abs(v)
    return base.hat(x) + extra


def ref_weights_refusal(values):
    for i, v in enumerate(values):
        if not v > 0:
            return f"weights must be strictly positive (index {i + 1})"
        if i and v > values[i - 1]:
            return f"weights must be nonincreasing (index {i + 1})"
    return None


def same(a, b):
    """Equal in value and type (and sign of a float zero)."""
    return type(a) is type(b) and repr(a) == repr(b)


def outcome(call, *args):
    """``("ok", type, repr)`` or ``("error", type, message)`` of a call."""
    try:
        v = call(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is what is compared
        return ("error", type(exc), str(exc))
    return ("ok", type(v), repr(v))


# ---------------------------------------------------------------------------
# inputs: runs of one object and runs of equal but distinct objects
# ---------------------------------------------------------------------------

values = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.sampled_from([0, 1, -1]),
                   st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 12))


def _copy(v):
    """An equal value that is a distinct object (small ints are cached)."""
    return F(v.numerator, v.denominator) if isinstance(v, F) else int(str(v))


@st.composite
def exact_lists(draw, max_size=300):
    runs = draw(st.lists(st.tuples(values, st.integers(1, 80), st.booleans()), max_size=12))
    out = []
    for v, count, shared in runs:
        out += [v] * count if shared else [_copy(v) for _ in range(count)]
    return out[:max_size]


# ---------------------------------------------------------------------------
# the numerator kernel and the hats on it
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(exact_lists())
def test_kernel_is_the_per_entry_reference(x):
    nums, den, fractions = integer_keys(x)
    want_nums, want_den = ref_over_common_denominator(x)
    assert (nums, den) == (want_nums, want_den)
    assert all(type(n) is int for n in nums) and type(den) is int
    assert fractions == [isinstance(v, F) for v in x]
    assert integer_keys(tuple(x)) == (want_nums, want_den, fractions)


def test_kernel_on_flat_runs_zeros_and_ints():
    h = F(7, 113)
    for x in ([h] * 5000, [0] * 100 + [h] * 100 + [0] * 50, [F(-3, 4)] * SHORT_SCAN,
              list(range(-50, 50)), [True, 2, F(1, 2)] * 30, [], [F(1, 2)],
              [True] * 70 + [F(-1, 3)] * 70 + [False] * 64, [True, False] * 40):
        nums, den, fractions = integer_keys(x)
        assert (nums, den) == ref_over_common_denominator(x)
        assert all(type(n) is int for n in nums)
        assert fractions == [isinstance(v, F) for v in x]


@settings(max_examples=200, deadline=None)
@given(exact_lists())
def test_counting_hat_is_the_loop(x):
    assert same(counting().hat(x), ref_counting_hat(x))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([identity_bound(), sqrt_bound()]), exact_lists(max_size=200))
def test_density_hat_on_runs_is_the_loop(bound, x):
    assert same(density(bound).hat(x), ref_density_hat(bound, x))


def test_hats_of_bools_and_empty_vectors_keep_their_types():
    for x in ([], [True, False, 3], [F(4, 2)] * 70, [2] * 70):
        assert same(counting().hat(x), ref_counting_hat(x))
        assert same(density(identity_bound()).hat(x), ref_density_hat(identity_bound(), x))


SHIFT_BASES = (counting(), unit(), summable(harmonic_weights(400)), density(sqrt_bound()))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SHIFT_BASES), exact_lists(max_size=200))
def test_shifted_hat_on_numerators_is_the_loop(base, x):
    assert same(shift_normalize(base).hat(x), ref_shifted_hat(base, x))


def test_shifted_hat_of_bools_zeros_floats_and_empty_vectors_keeps_its_types():
    for x in ([], [0] * 5, [F(0)] * 3, [True, False, 3], [False] * 4, [F(4, 2)] * 70, [2] * 70,
              [0, F(-3, 4), 0, 5], [0.5, F(1, 3), 2], [0.0, -0.0], [10 ** 40, F(1, 10 ** 30)]):
        for base in SHIFT_BASES:
            assert same(shift_normalize(base).hat(x), ref_shifted_hat(base, x)), (base, x)


# ---------------------------------------------------------------------------
# the table-token parser
# ---------------------------------------------------------------------------

LISTED_TOKENS = ["+3/7", "3/+7", "3/-7", " 3/7", "3 /7", "1_000/7", "٣/7", "1/0",
                 "3/007", "1.5/2", "-3/7", "-0/5", "0/0", "-5/0", "3/7/8", "/7", "3/",
                 "-/7", "+-3/7", "3/7 ", "３/7", "²/7", "3/²", "12", "-12", "1.5", "1e3", "nan",
                 "inf", "", "abc", "1" * 5000 + "/7", "7/" + "1" * 5000]


@pytest.mark.parametrize("token", LISTED_TOKENS,
                         ids=[t if len(t) < 20 else f"{t[:4]}..{len(t)}" for t in LISTED_TOKENS])
def test_listed_tokens_parse_as_parse_number(token):
    assert outcome(_parse_token, token) == outcome(parse_number, token)


tokens = st.one_of(
    st.tuples(st.sampled_from(["", "+", "-", " "]), st.integers(0, 10 ** 40),
              st.sampled_from(["/", " /", "/ ", "//"]), st.sampled_from(["", "+", "-", "0"]),
              st.integers(0, 10 ** 40)).map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}{t[4]}"),
    st.text(alphabet="0123456789+-/_. e٣²", max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(tokens)
def test_table_token_parser_is_parse_number(token):
    assert outcome(_parse_token, token) == outcome(parse_number, token)


# ---------------------------------------------------------------------------
# the Fraction-table check of WatermanWeights
# ---------------------------------------------------------------------------


@st.composite
def fraction_tables(draw):
    """Mostly nonincreasing positive Fractions, with a few entries moved up,
    down to zero or below it."""
    steps = draw(st.lists(st.fractions(0, 5, max_denominator=30), min_size=1, max_size=80))
    table, v = [], F(draw(st.integers(1, 400)), draw(st.integers(1, 30)))
    for step in steps:
        table.append(v)
        v -= step / 100
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(table) - 1))
        v = table[i]
        table[i] = draw(st.sampled_from([v + F(1, 7), F(0), -v, v * 2,
                                         F(v.numerator, max(1, v.denominator - 1))]))
    return table


@settings(max_examples=400, deadline=None)
@given(fraction_tables())
def test_fraction_table_refusal_is_the_loops(table):
    want = ref_weights_refusal(table)
    if want is None:
        assert WatermanWeights(table).values == tuple(table)
    else:
        with pytest.raises(ValueError) as got:
            WatermanWeights(table)
        assert str(got.value) == want


def test_fraction_table_refusals_at_the_edges():
    for table, want in (([F(0)], "strictly positive (index 1)"),
                        ([F(1, 2), F(1, 2), F(2, 3)], "nonincreasing (index 3)"),
                        ([F(1, 3), F(1, 2)], "nonincreasing (index 2)"),
                        ([F(3, 2), F(2, 1)], "nonincreasing (index 2)"),
                        ([F(1, 2), F(1, 3), F(0)], "strictly positive (index 3)"),
                        ([F(1, 2), F(-1, 3), F(-1, 2)], "strictly positive (index 2)")):
        with pytest.raises(ValueError, match=re.escape(want)):
            WatermanWeights(table)


# ---------------------------------------------------------------------------
# the zig-zag's canonical oscillations
# ---------------------------------------------------------------------------

magnitudes = st.one_of(st.integers(0, 10 ** 6), st.fractions(0, 10 ** 3, max_denominator=50),
                       st.floats(0, 1e6))


@st.composite
def monotone_sequences(draw):
    rail = draw(st.sampled_from(["exact", "float", "mixed"]))
    mags = draw(st.lists(magnitudes, min_size=1, max_size=40))
    if rail == "exact":
        mags = [v for v in mags if not isinstance(v, float)] or [1]
    elif rail == "float":
        mags = [float(v) for v in mags]
    mags = sorted(mags, reverse=True)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(mags), max_size=len(mags)))
    return [s * v for s, v in zip(signs, mags)]


@settings(max_examples=300, deadline=None)
@given(monotone_sequences())
def test_zigzag_oscillations_are_f_at_the_endpoints(x):
    f, cert = zigzag_from_sequence(x)
    family = [(F(1, 2), 1)] + [(F(1, 2 ** (k + 1)), F(1, 2 ** k)) for k in range(1, len(x))]
    for (s, t), check in zip(family, cert.checks):
        assert same(check.lhs, abs(f(t) - f(s)))


def test_zigzag_on_the_exact_rail_reports_fractions():
    _, cert = zigzag_from_sequence([999564, 3, 2])
    assert [c.lhs for c in cert.checks] == [F(999564), F(3), F(2)]
    assert all(type(c.lhs) is F for c in cert.checks)
