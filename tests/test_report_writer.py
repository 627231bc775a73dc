"""Property tests of the report writer and of sequence CSV I/O.

The writer must equal, byte for byte, the two-pass route it replaced:
``json_ready`` (kept below as the reference) followed by
``json.dumps(indent=2, sort_keys=True, allow_nan=False)``.
"""

import json
import math
import re
import sys
import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbv._util import (NonFiniteValue, _float12, _floats12, _fraction_str, _fractions_str, _write,
                       format_number, report_json)
from gbv.io import load_sequence, save_sequence

# ---------------------------------------------------------------------------
# reference: the route the writer replaced
# ---------------------------------------------------------------------------


def _ref_format_number(value, exact=False):
    if isinstance(value, Fraction):
        if exact:
            return f"{value.numerator}/{value.denominator}"
        value = float(value)
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        raise NonFiniteValue(f"refusing to serialize a non-finite number ({value!r})")
    return f"{value:.12g}"


def _ref_json_ready(value, exact=False):
    if isinstance(value, Fraction):
        return _ref_format_number(value, exact=exact) if exact else float(value)
    if isinstance(value, float):
        return float(_ref_format_number(value))
    if isinstance(value, dict):
        return {k: _ref_json_ready(v, exact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ref_json_ready(v, exact) for v in value]
    return value


def reference_report(head, result, exact):
    report = dict(head, result=_ref_json_ready(result, exact=exact))
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)       # subnormals and -0.0 too
floats = st.one_of(
    finite,
    st.integers(-2 ** 62, 2 ** 62).map(float),                  # integer values
    st.floats(1e12, 1e16),                                      # .12g and repr differ here
    st.floats(0, 1e-300),                                       # down to the subnormals
    st.sampled_from([0.0, -0.0, 5e-324, 1e-308, 2.2250738585072014e-308, 1e16,
                     999999999999.5, 1.7976931348623157e308]),
)
fractions = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 300, 10 ** 300), st.integers(1, 10 ** 20)),
)
scalars = st.one_of(floats, st.integers(), st.integers(-10 ** 40, 10 ** 40), st.booleans(),
                    st.none(), st.text(), fractions)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(floats, max_size=12),                          # the bulk float path
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(finite, children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
    )


payloads = st.recursive(scalars, _containers, max_leaves=30)
configs = st.dictionaries(st.text(max_size=10),
                          st.one_of(st.text(), st.integers(), st.booleans(), finite),
                          max_size=6)


@st.composite
def heads(draw):
    return {"tool": "gbv", "version": "0.1.0", "command": draw(st.text(max_size=10)),
            "config": draw(configs)}


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(heads(), payloads, st.booleans())
def test_writer_equals_the_two_pass_route(head, result, exact):
    assert report_json(head, result, exact=exact) == reference_report(head, result, exact)


@settings(max_examples=200, deadline=None)
@given(st.lists(floats, min_size=1, max_size=30), st.booleans())
def test_float_lists_equal_the_two_pass_route(values, exact):
    head = {"config": {"cap": values[0]}}
    result = {"series": values, "mixed": [1, *values, "x"]}
    assert report_json(head, result, exact) == reference_report(head, result, exact)


@settings(max_examples=100, deadline=None)
@given(payloads, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 5),
       st.booleans())
def test_non_finite_floats_are_refused(result, bad, where, exact):
    shapes = [bad, [bad], [1.5, bad], {"k": [0.25, bad, 3]}, [result, {"deep": [bad]}],
              (2.0, bad)]
    with pytest.raises(NonFiniteValue, match="refusing to serialize a non-finite number"):
        report_json({}, shapes[where], exact=exact)


# floats where ``.12g`` needs fixing: integer values and values that round to
# one at 12 digits, exponents near the 1e-4 and 1e11..1e16 edges, subnormals
near_edges = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-40, 40)).map(
        lambda t: t[0] + t[1] * 1e-13),                         # 2.0000000000001 and kin
    st.floats(0.9e-4, 1.1e-4), st.floats(-1.1e-4, -0.9e-4),
    st.floats(0.9e11, 1.1e12), st.floats(1e12, 1e16),
    st.floats(0, 1e-300), st.floats(1e-310, 1e-290),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.0001, 9.99999999999995e-05,
                     99999999999.99998, 1e11, 999999999999.5, 1.7976931348623157e308]),
)
_list_floats = st.one_of(finite, near_edges, st.floats(-1e3, 1e3))
float_lists = st.lists(_list_floats, max_size=300)


@settings(max_examples=300, deadline=None)
@given(float_lists, st.sampled_from([",\n  ", ", "]))
def test_bulk_float_writer_equals_the_per_item_writer(values, sep):
    assert _floats12(values, sep) == sep.join(map(_float12, values))


@settings(max_examples=100, deadline=None)
@given(float_lists, st.integers(0, 200), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.integers(0, 200))
def test_bulk_float_writer_refuses_non_finite_floats_without_a_warning(values, at, bad, at2):
    values = list(values)
    values.insert(at % (len(values) + 1), bad)
    values.insert(at2 % (len(values) + 1), -bad)
    first = next(v for v in values if not math.isfinite(v))
    with pytest.raises(NonFiniteValue) as want:
        _float12(first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as got:
            _floats12(values, ", ")
    assert str(got.value) == str(want.value)


@st.composite
def fraction_lists(draw):
    """Fractions in runs of one object and runs of equal but distinct ones."""
    runs = draw(st.lists(st.tuples(st.fractions(-10 ** 9, 10 ** 9, max_denominator=10 ** 15),
                                   st.integers(1, 60), st.booleans()), max_size=10))
    out = []
    for v, count, shared in runs:
        out += [v] * count if shared else [Fraction(v.numerator, v.denominator)
                                           for _ in range(count)]
    return out


@settings(max_examples=300, deadline=None)
@given(fraction_lists(), st.sampled_from([",\n  ", ", "]))
def test_bulk_fraction_writer_equals_the_per_item_writer(values, sep):
    assert _fractions_str(values, sep) == sep.join(
        _write(v, "", _float12, _fraction_str) for v in values)


@settings(max_examples=100, deadline=None)
@given(fraction_lists())
def test_exact_report_of_a_fraction_list_is_the_reference(values):
    result = {"sequence": values, "mixed": values + [1, 0.5]}
    assert report_json({}, result, exact=True) == reference_report({}, result, exact=True)


def test_config_is_echoed_unrounded_and_result_rounded():
    text = report_json({"config": {"cap": 0.1234567890123456}},
                       {"cap": 0.1234567890123456, "third": Fraction(1, 3)})
    report = json.loads(text)
    assert report["config"]["cap"] == 0.1234567890123456
    assert report["result"]["cap"] == 0.123456789012
    assert report["result"]["third"] == 1 / 3                 # full precision


def test_unknown_types_take_the_json_route():
    np = pytest.importorskip("numpy")
    result = {"x": np.float64(1 / 3), "xs": [np.float64(2.5), 1e13]}
    assert report_json({"config": {"v": np.float64(0.1)}}, result) == \
        reference_report({"config": {"v": np.float64(0.1)}}, result, False)
    with pytest.raises(TypeError, match="not JSON serializable"):
        report_json({}, {"n": np.int64(3)})
    with pytest.raises(TypeError, match="not JSON serializable"):
        report_json({}, {"s": {1, 2}})


def test_fraction_beyond_the_float_range_is_refused():
    huge = Fraction(10 ** 400, 3)
    with pytest.raises(NonFiniteValue, match="too large for a float"):
        report_json({}, {"v": huge})
    with pytest.raises(NonFiniteValue, match="too large for a float"):
        format_number(huge)
    assert json.loads(report_json({}, {"v": huge}, exact=True))["result"]["v"] == \
        f"{10 ** 400}/3"
    assert format_number(huge, exact=True) == f"{10 ** 400}/3"


def test_numbers_past_the_int_digit_limit_are_written_in_full():
    # 2^15000 has 4516 digits, past the interpreter's int-to-str limit,
    # which stays as it is; decimal writes the digits without it
    from decimal import Decimal

    big = Fraction(2 ** 15000, 3)
    digits = str(Decimal(big.numerator))
    assert len(digits) == 4516 and sys.get_int_max_str_digits() in (0, 4300)
    report = json.loads(report_json({}, {"v": big, "vs": [big, big, Fraction(1, 3)]},
                                    exact=True))["result"]
    assert report == {"v": f"{digits}/3", "vs": [f"{digits}/3"] * 2 + ["1/3"]}
    assert format_number(big, exact=True) == f"{digits}/3"
    assert format_number(-big.numerator) == f"-{digits}"
    assert report_json({}, {"n": -big.numerator}).endswith(f'"n": -{digits}\n  }}\n}}\n')


# ---------------------------------------------------------------------------
# sequence CSV I/O
# ---------------------------------------------------------------------------

# ints beyond the float range too: they are finite, and must load as ints
entries = st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                             st.integers(-10 ** 400, 10 ** 400), st.fractions(), finite),
                   min_size=1, max_size=30)
decorations = st.lists(st.sampled_from(["", "   ", "# a comment", "#", "  # indented"]),
                       max_size=30)


def _decorate(lines, extra, positions):
    """The lines with the extra (blank or comment) lines inserted."""
    out = list(lines)
    for text, pos in zip(extra, positions):
        out.insert(pos % (len(out) + 1), text)
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entries, decorations, st.lists(st.integers(0, 100), max_size=30))
def test_sequence_round_trip(values, extra, positions):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/x.csv"
        save_sequence(path, values)
        with open(path) as fh:
            lines = fh.read().split("\n")[:-1]
        assert len(lines) == len(values)
        with open(path, "w") as fh:
            fh.write("\n".join(_decorate(lines, extra, positions)) + "\n")
        got = load_sequence(path).entries
    assert [type(v) for v in got] == [type(v) for v in values]
    assert [repr(v) for v in got] == [repr(v) for v in values]   # keeps -0.0


@settings(max_examples=100, deadline=None)
@given(entries, decorations, st.lists(st.integers(0, 100), max_size=30),
       st.integers(0, 100), st.sampled_from(["nan", "inf", "-inf", "NaN", " -Infinity "]))
def test_non_finite_sequence_line_is_named(values, extra, positions, at, bad):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/x.csv"
        save_sequence(path, values)
        with open(path) as fh:
            lines = _decorate(fh.read().split("\n")[:-1], extra, positions)
        at %= len(lines) + 1
        lines.insert(at, bad)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        entry = sum(1 for line in lines[:at] if line.strip() and not line.strip().startswith("#"))
        with pytest.raises(NonFiniteValue,
                           match=re.escape(f"{path}:{at + 1}: entry {entry + 1} is not finite")):
            load_sequence(path)
