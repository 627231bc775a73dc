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

#: Positive infinity sentinel for set functions that blow up.  Distinct from
#: silent float overflow: exact code paths never produce it by accident.
INF = math.inf

EXACT_TYPES = (int, Fraction)


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


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES)


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


def iroot_floor(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot_floor needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    # Newton correction: float seeds can be off by a few ulps.
    while r > 0 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
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
    """Render a number for reports: 12 significant digits, or p/q in exact mode."""
    if isinstance(value, Fraction):
        if exact:
            return f"{value.numerator}/{value.denominator}"
        value = float(value)
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):  # reports never carry NaN or infinities
        raise NonFiniteValue(f"refusing to serialize a non-finite number ({value!r})")
    return f"{value:.12g}"


def json_ready(value, exact: bool = False):
    """Recursively convert report payloads into JSON-serializable values."""
    if isinstance(value, Fraction):
        return format_number(value, exact=exact) if exact else float(value)
    if isinstance(value, float):
        return float(format_number(value))
    if isinstance(value, dict):
        return {k: json_ready(v, exact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v, exact) for v in value]
    return value
