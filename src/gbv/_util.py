"""Shared numeric helpers.

The library computes every quantity on two rails: exact rational arithmetic
(``int`` / ``fractions.Fraction``) whenever the inputs are exact, and float
arithmetic otherwise.  Python's numeric tower does most of the work; the
helpers here cover the spots where it does not (integer division, exact
integer roots, and the exact first maximum of a vector of ratios) plus number
parsing/formatting for the wire formats.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import is_, is_not, sub

import numpy as np

EXACT_TYPES = (int, Fraction)

# The integer numpy kernels (the oracle's certification scan, the scoring of
# the exact brute force, the first-max kernel and others) run on int64 while
# every number they form stays below this bound, and on Python ints
# otherwise.  ``int_dtype`` alone reads it.
INT64_BOUND = 1 << 62

#: exact scans of fewer ratios than this take the scalar loop, where numpy's
#: cost per call outweighs the work
SHORT_SCAN = 64

#: largest horizon a descriptor or a CLI ``--horizon`` may ask for: a
#: closed-form descriptor materializes that many weights, and the order
#: checkers and constructions scan that far
MAX_HORIZON = 1 << 20


class HorizonExceeded(ValueError):
    """An index fell beyond the finite horizon of a tabulated object."""


class SizeRefusal(ValueError):
    """An exponential-cost oracle was asked for more than its hard cap."""


class HypothesisViolation(ValueError):
    """A constructive generator was handed inputs outside its hypotheses."""


class DescriptorError(ValueError):
    """A descriptor file or dict is malformed; message names the field."""


class NonFiniteValue(ValueError):
    """A NaN or an infinity where data enters; message names where."""


def all_exact(values) -> bool:
    """Whether every value is an int or a Fraction (subclasses included):
    False at once when the first value is not, else read off the set of
    the types of the rest."""
    it = iter(values)
    return (isinstance(next(it, 0), EXACT_TYPES)
            and all(issubclass(t, EXACT_TYPES) for t in set(map(type, it))))


def all_of_type(values, cls) -> bool:
    """Whether every value is of type ``cls`` (subclasses excluded), read
    in C up to the first that is not."""
    return all(map(is_, map(type, values), repeat(cls)))


def is_finite(value) -> bool:
    """False only for a float NaN or infinity; exact numbers are finite."""
    return not isinstance(value, float) or math.isfinite(value)


def rail_slack(exact: bool, scale):
    """Comparison slack: the int 0 on the exact rail (a float 0.0 would pull
    exact operands onto floats), else 1e-9 relative to max(1, |scale|)."""
    return 0 if exact else 1e-9 * max(1.0, abs(float(scale)))


def exact_div(num, den):
    """Division that stays rational when both operands are rational.

    ``int / int`` in Python is float division, which silently leaves the
    exact rail; route through Fraction instead.  Mixed exact/float operands
    fall back to float division.
    """
    if isinstance(num, EXACT_TYPES) and isinstance(den, EXACT_TYPES):
        return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) else Fraction(num) / Fraction(den)
    return num / den


def first_max_ratio(num, den) -> int:
    """Index of the first maximum of num[i] / den[i], exactly, for nonempty
    integer sequences of one length (lists, ranges, int64 or object arrays)
    with num >= 0 and den > 0.  This is the one place that chooses how.

    ``SHORT_SCAN`` or more ratios run on int64 when ``int_dtype`` puts
    max(num) * max(den) there.  The float ratios only pick where to
    start: their argmax i gives p/q = num[i]/den[i].  Then, while some j has
    num[j] * q > p * den[j], p/q moves to the one of those with the largest
    float ratio; each move raises p/q strictly, so the loop ends, and it
    ends at the maximum.  The first j with num[j] * q == p * den[j] is
    returned.  Every product is at most max(num) * max(den), so each int64
    comparison is exact.  Any other input runs the scalar loop on Python
    ints, which cross-multiplies with a strict ``>``; the two paths return
    the same index.
    """
    if len(num) >= SHORT_SCAN:
        a, b = _int64_array(num), _int64_array(den)
        if (a is not None and b is not None
                and int_dtype(int(a.max()) * int(b.max())) is np.int64):
            i = int(np.argmax(a / b))
            p, q = int(a[i]), int(b[i])
            while len(above := np.flatnonzero(a * q > p * b)):
                i = int(above[np.argmax(a[above] / b[above])])
                p, q = int(a[i]), int(b[i])
            return int(np.flatnonzero(a * q == p * b)[0])
    if isinstance(num, np.ndarray):
        num = num.tolist()
    if isinstance(den, np.ndarray):
        den = den.tolist()
    i, p, q = 0, num[0], den[0]
    for j, (n, d) in enumerate(zip(num, den)):
        if n * q > p * d:
            i, p, q = j, n, d
    return i


def _int64_array(values):
    """Integer values as an int64 array (a range without a walk in Python, a
    list by ``np.fromiter``, faster than ``np.asarray`` on Python ints), or
    None when one of them does not fit."""
    try:
        if type(values) is range:
            return np.arange(values.start, values.stop, values.step, dtype=np.int64)
        if isinstance(values, np.ndarray):
            return values.astype(np.int64, copy=False)
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return None


def integer_keys(values):
    """``(keys, den, fractions)`` for exact values (ints and Fractions, mixed
    or not, subclasses included) or floats (of type ``float``), else None:
    the one reader of the exact rail's integer keys.  keys[i] / den ==
    values[i] exactly, den the lcm of the denominators (``as_integer_ratio``;
    a float's is dyadic), so sums and differences of keys are exact.
    ``fractions[i]`` says whether values[i] is a Fraction, which is what
    ``key_value`` types a result by; floats have None there.

    All-``int`` values (subclasses excluded) are their own keys over 1.  A
    list of ``SHORT_SCAN`` or more other values that ``_identical_runs``
    splits into runs is read once per run, types included, each run's key
    and flag repeated over it; any other list is read entry by entry.  The
    run reads pay: with this one and the run path of ``_fractions_str`` both
    turned off, ``horizon`` ``exact_ops_per_s`` fell from a median of 119.3
    to 103.5 ops/s (x0.87, 10 of 10 alternating pairs; ``BENCH_28.json``).
    """
    n = len(values)
    if all_of_type(values, int):
        return list(values), 1, [False] * n
    runs = _identical_runs(values) if n >= SHORT_SCAN else None
    heads = runs[0] if runs else values
    types = set(map(type, heads))
    if types == {float}:
        fractions = None
    elif types == {Fraction}:
        fractions = [True] * n
    elif all(issubclass(t, EXACT_TYPES) for t in types):
        fractions = list(map(isinstance, heads, repeat(Fraction)))
        if runs:
            fractions = list(chain.from_iterable(map(repeat, fractions, runs[1])))
    else:
        return None
    ratios = [v.as_integer_ratio() for v in heads]
    den = math.lcm(*[d for _, d in ratios])
    keys = [k * (den // d) for k, d in ratios]
    if runs:
        keys = list(chain.from_iterable(map(repeat, keys, runs[1])))
    return keys, den, fractions


def exact_keys(values):
    """``integer_keys`` of exact values, else None.  A sequence whose first
    value is not an int or a Fraction is refused on that type alone, so a
    float sequence pays for no dyadic key."""
    if values and not isinstance(values[0], EXACT_TYPES):
        return None
    return integer_keys(values)


def key_value(key: int, den: int, fraction: bool):
    """The number key / den typed as Fraction arithmetic types it:
    ``Fraction(key, den)`` when a Fraction took part in it, which the caller
    says, and otherwise the int key // den (den, the lcm of the value
    denominators, then divides key)."""
    return Fraction(key, den) if fraction else key // den


def int_dtype(largest: int):
    """The dtype of an integer numpy kernel whose every number stays below
    ``largest`` in absolute value: int64 while ``largest`` is below
    ``INT64_BOUND``, else the object dtype, on which numpy runs Python's
    ints."""
    return np.int64 if largest < INT64_BOUND else object


def _identical_runs(values):
    """``(heads, counts)``: the object of each run of identical objects in a
    list and the run's length, or None when the runs are more than half as
    many as the values.  The run starts are found by identity, in C."""
    n = len(values)
    starts = list(compress(range(n), chain((True,), map(is_not, values[1:], values))))
    if 2 * len(starts) > n:
        return None
    return list(map(values.__getitem__, starts)), list(map(sub, chain(starts[1:], (n,)), starts))


def subset_sums(items) -> list:
    """sums[mask] = sum of items[j] over the bits j of mask, for every mask:
    each item doubles the list, the new half adding it to the old."""
    sums = [0]
    for v in items:
        sums += [s + v for s in sums]
    return sums


def iroot_floor(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0, k >= 1.

    Integer Newton steps r -> ((k-1) r + n // r**(k-1)) // k.  By AM-GM a
    step from any r > 0 lands at or above the floor of the root, and from
    above the root each step decreases until it reaches the floor.  The
    seed is 1 + floor(2**(log2(n)/k)), from the float log of n (which takes
    ints of any size), so that the descent is a step or two; only its speed
    rests on the float, never the result."""
    if n < 0 or k < 1:
        raise ValueError("iroot_floor needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)

    def step(r):
        return ((k - 1) * r + n // r ** (k - 1)) // k

    e = math.log2(n) / k
    whole = int(e)
    r = step(((int(2 ** (e - whole) * (1 << 52)) << whole) >> 52) + 1)
    while (s := step(r)) < r:
        r = s
    return r


def ceil_power(n: int, p: Fraction) -> int:
    """Exact ceil(n**p) for integer n >= 1 and rational p = a/b > 0."""
    a, b = p.numerator, p.denominator
    m = n ** a
    r = iroot_floor(m, b)
    return r if r ** b == m else r + 1


def parse_number(text: str):
    """Parse a decimal or 'p/q' token into int, Fraction, or float."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def format_number(value, exact: bool = False) -> str:
    """Render a number for a CSV series: ``%.12g``, or p/q in exact mode."""
    if isinstance(value, Fraction):
        if exact:
            return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
        value = _fraction_to_float(value)
    if isinstance(value, int):
        return _int_str(value)
    if not math.isfinite(value):  # reports never carry NaN or infinities
        raise NonFiniteValue(f"refusing to serialize a non-finite number ({value!r})")
    return f"{value:.12g}"


def _fraction_to_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise NonFiniteValue(
            "refusing to serialize a number too large for a float (about 2**"
            f"{value.numerator.bit_length() - value.denominator.bit_length()})") from None


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def report_json(head: dict, result, exact: bool = False) -> str:
    """The report ``head`` plus ``"result": result`` as JSON text.

    The text is ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)``
    byte for byte, written in one pass.  Values in ``head`` are written as
    given.  Numbers in ``result`` are report numbers: a float at 12
    significant digits (the repr of the float those digits denote), a
    Fraction as a "p/q" string under ``exact`` and otherwise as the nearest
    float, at full precision.  NaN and infinities raise NonFiniteValue.  An
    int past the interpreter's digit limit for int-to-str conversion, which
    json refuses, is written in full (``_int_str``), alone or in a Fraction.
    A list of floats under ``result`` is written in bulk (``_floats12``), and
    so is a list of Fractions under ``exact`` (``_fractions_str``, one string
    per run of identical objects).
    """
    fields = [(k, _write(v, "  ", _float_repr, _no_fraction)) for k, v in head.items()]
    fields.append(("result", _write(result, "  ", _float12,
                                    _fraction_str if exact else _fraction_repr)))
    fields.sort()
    return "{\n  " + ",\n  ".join(f"{_json_str(k)}: {v}" for k, v in fields) + "\n}\n"


def _write(v, pad: str, fl, fr) -> str:
    """JSON text of ``v`` at indent ``pad``; ``fl`` and ``fr`` write floats
    and Fractions."""
    t = type(v)
    if t is float:
        return fl(v)
    if t is str:
        return _json_str(v)
    if t is int:
        return _int_str(v)
    if t is Fraction:
        return fr(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = pad + "  "
        sep = f",\n{inner}"
        types = set(map(type, v))
        if fl is _float12 and types == {float}:
            body = _floats12(v, sep)
        elif fr is _fraction_str and types == {Fraction}:
            body = _fractions_str(v, sep)
        else:
            body = sep.join([_write(x, inner, fl, fr) for x in v])
        return f"[\n{inner}{body}\n{pad}]"
    if t is dict:
        if not v:
            return "{}"
        inner = pad + "  "
        items = [f"{_key(k)}: {_write(x, inner, fl, fr)}" for k, x in sorted(v.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    # subclasses and foreign types, as the json module treats them
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        return fr(v)
    if isinstance(v, float):
        return fl(float(v))
    if isinstance(v, (list, tuple)):
        return _write(list(v), pad, fl, fr)
    if isinstance(v, dict):
        return _write(dict(v), pad, fl, fr)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as json writes it; keys are never report numbers."""
    if isinstance(k, str):
        return _json_str(k)
    if k is None or isinstance(k, bool):
        return '"null"' if k is None else f'"{str(k).lower()}"'
    if isinstance(k, float):
        return f'"{_float_repr(k)}"'
    if isinstance(k, int):
        return f'"{int.__repr__(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _refuse(v):
    raise NonFiniteValue(f"refusing to serialize a non-finite number ({v!r})")


def _float_repr(v: float) -> str:
    """A float as json writes it."""
    return float.__repr__(v) if math.isfinite(v) else _refuse(v)


def _float12(v: float) -> str:
    """A report float: the repr of the float its 12 significant digits denote."""
    s = f"{v:.12g}"
    return s if "." in s and "e" not in s else _fix12(s)


def _floats12(values, sep: str) -> str:
    """``sep.join`` of ``_float12`` over a list of floats, formatted by one
    ``%`` after a screen in numpy: ``.12g`` already writes the report float
    of a magnitude past 1e-300 unless the float lies within a relative 1e-11
    of an integer (every one past 5e10 does), and only the floats outside
    that screen go through ``_float12``.  The screen pays: with every float
    sent through ``_float12`` instead, ``horizon`` ``float_ops_per_s`` fell
    x0.877 (0 of 5 alternating pairs faster), the certify ops took
    x1.30-1.40 and ``construct.separating`` x1.24 (``BENCH_30.json``)."""
    a = np.abs(np.array(values))
    with np.errstate(invalid="ignore"):         # inf - inf; refused by _float12
        plain = (a >= 1e-300) & (np.abs(a - np.rint(a)) > 1e-11 * a)
    formats, values = ["%.12g"] * len(values), list(values)
    for i in np.flatnonzero(~plain).tolist():
        formats[i], values[i] = "%s", _float12(values[i])
    return sep.join(formats) % tuple(values)


def _fix12(s: str) -> str:
    """A ``.12g`` string that is not already a float repr: ``.12g`` drops the
    ``.0`` of an integer, writes exponents 12..15 that repr writes in full, and
    keeps digits a subnormal does not have."""
    if "e" in s:
        e = int(s[s.index("e") + 1:])
        return repr(float(s)) if 12 <= e <= 15 or e <= -308 else s
    if s[-1] in "fn":  # inf, -inf, nan
        _refuse(float(s))
    return s + ".0"


def _int_str(n: int) -> str:
    """The decimal digits of an int, also past the interpreter's digit limit
    for int-to-str conversion, which ``decimal`` does not have; the limit
    itself stays as it is."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(Decimal(n))


def _fraction_str(v: Fraction) -> str:
    try:
        return f'"{v.numerator}/{v.denominator}"'
    except ValueError:                  # past the digit limit: see _int_str
        return f'"{_int_str(v.numerator)}/{_int_str(v.denominator)}"'


def _fractions_str(values, sep: str) -> str:
    """``sep.join`` of ``_fraction_str`` over a list of Fractions, each run
    of identical objects (``_identical_runs``) formatted once."""
    runs = _identical_runs(values)
    if runs is None:
        return sep.join(map(_fraction_str, values))
    heads, counts = runs
    return sep.join(chain.from_iterable(map(repeat, map(_fraction_str, heads), counts)))


def _fraction_repr(v: Fraction) -> str:
    return float.__repr__(_fraction_to_float(v))


def _no_fraction(v):
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
