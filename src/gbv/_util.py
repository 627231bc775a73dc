"""Shared numeric helpers.

The library computes every quantity on two rails: exact rational arithmetic
(``int`` / ``fractions.Fraction``) whenever the inputs are exact, and float
arithmetic otherwise.  Python's numeric tower does most of the work; the
helpers here cover the two spots where it does not (integer division and
exact integer roots) plus number parsing/formatting for the wire formats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

EXACT_TYPES = (int, Fraction)

# The integer numpy kernels (the oracle's certification scan, the scoring of
# the exact brute force) run on int64 while every number they form stays
# below this bound, and on object arrays of Python ints otherwise.
INT64_BOUND = 1 << 62

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
    return all(isinstance(v, EXACT_TYPES) for v in values)


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


def over_common_denominator(values) -> tuple:
    """``(nums, den)``: exact values as integer numerators over den, the lcm
    of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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
            return f"{value.numerator}/{value.denominator}"
        value = _fraction_to_float(value)
    if isinstance(value, int):
        return str(value)
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
    float, at full precision.  NaN and infinities raise NonFiniteValue.
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
        return int.__repr__(v)
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
        if fl is _float12 and set(map(type, v)) == {float}:
            body = _floats12(v, sep)
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
        return int.__repr__(v)
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
    ``%`` and checked in bulk: only a list holding an integer value, an
    exponent or a non-finite value is looked at number by number."""
    body = sep.join(["%.12g"] * len(values)) % tuple(values)
    if body.count(".") == len(values) and "e" not in body:
        return body
    return sep.join([s if "." in s and "e" not in s else _fix12(s) for s in body.split(sep)])


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


def _fraction_str(v: Fraction) -> str:
    return f'"{v.numerator}/{v.denominator}"'


def _fraction_repr(v: Fraction) -> str:
    return float.__repr__(_fraction_to_float(v))


def _no_fraction(v):
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
