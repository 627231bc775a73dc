"""Wire formats: submeasure descriptors, sequence and function files, reports.

Submeasure descriptor (JSON object, exact field names):

    {"type": "summable" | "density" | "unit" | "counting",
     "form": "harmonic" | "power" | "log" | "table",
     "param": number,                  # power exponent
     "table": [..],                    # explicit values ("p/q" strings allowed)
     "wrap": ["shifted" | "max_unit" | {"permuted": [..]}],
     "horizon": N}

``wrap`` entries apply in list order around the base.  ``horizon`` is the
materialization length for closed-form weights (default 4096, at most
``MAX_HORIZON`` = 2^20).

Sequences travel as CSV with one value per line ("p/q" tokens allowed) or as
a descriptor {"form": "power" | "alt" | "table", "param": p, "length": L,
"scale": c, "table": [..]}; functions as CSV lines "t,y" with t strictly
increasing from 0 to 1.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

from ._util import (MAX_HORIZON, DescriptorError, NonFiniteValue, SizeRefusal, is_finite,
                    parse_number)
from .submeasure import (
    DensityBound,
    SequencePrefix,
    Submeasure,
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    log_weights,
    max_with_unit,
    permuted,
    power_weights,
    shift_normalize,
    summable,
    unit,
)
from .variation import PiecewiseLinearFunction

DEFAULT_DESCRIPTOR_HORIZON = 4096


def submeasure_from_descriptor(desc: dict) -> Submeasure:
    if not isinstance(desc, dict):
        raise DescriptorError("submeasure descriptor must be a JSON object")
    kind = desc.get("type")
    horizon = desc.get("horizon", DEFAULT_DESCRIPTOR_HORIZON)
    if not isinstance(horizon, int) or horizon < 1:
        raise DescriptorError(f"field 'horizon': need a positive integer, got {horizon!r}")
    if horizon > MAX_HORIZON:
        raise SizeRefusal(f"field 'horizon': {horizon} is past the cap {MAX_HORIZON}")
    if kind == "unit":
        phi = unit()
    elif kind == "counting":
        phi = counting()
    elif kind == "summable":
        phi = summable(_weights_from_descriptor(desc, horizon))
    elif kind == "density":
        phi = density(_bound_from_descriptor(desc))
    else:
        raise DescriptorError(f"field 'type': expected summable/density/unit/counting, got {kind!r}")
    wraps = desc.get("wrap", [])
    if not isinstance(wraps, list):
        raise DescriptorError(f"field 'wrap': need a list of wrappers, got {wraps!r}")
    for i, wrap in enumerate(wraps):
        if wrap == "shifted":
            phi = shift_normalize(phi)
        elif wrap == "max_unit":
            phi = max_with_unit(phi)
        elif isinstance(wrap, dict) and "permuted" in wrap:
            perm = wrap["permuted"]
            if not isinstance(perm, list) or not all(type(p) is int for p in perm):
                raise DescriptorError(
                    f"field 'wrap[{i}].permuted': need a list of integers, got {perm!r}")
            phi = permuted(phi, perm)
        else:
            raise DescriptorError(f"field 'wrap[{i}]': unknown wrapper {wrap!r}")
    return phi


def _weights_from_descriptor(desc: dict, horizon: int) -> WatermanWeights:
    form = desc.get("form")
    if form == "harmonic":
        return harmonic_weights(horizon)
    if form == "power":
        p = desc.get("param")
        if not isinstance(p, (int, float)) or p <= 0:
            raise DescriptorError(f"field 'param': need a positive number, got {p!r}")
        try:
            p = float(p)
        except OverflowError as exc:
            raise DescriptorError(f"field 'param': too large for a float exponent ({exc})") from exc
        return power_weights(p, horizon)
    if form == "log":
        return log_weights(horizon)
    if form == "table":
        table = desc.get("table")
        if not isinstance(table, list) or not table:
            raise DescriptorError("field 'table': need a nonempty list of values")
        values = [_parse_entry(v, f"table[{i}]") for i, v in enumerate(table)]
        return WatermanWeights(values, form="table",
                               declared_divergent=bool(desc.get("declared_divergent", False)))
    raise DescriptorError(f"field 'form': expected harmonic/power/log/table, got {form!r}")


def _bound_from_descriptor(desc: dict) -> DensityBound:
    form = desc.get("form")
    if form == "power":
        p = desc.get("param")
        if p is None:
            raise DescriptorError("field 'param': required for the power density form")
        try:
            return DensityBound("power", p)
        except ZeroDivisionError:
            raise DescriptorError(f"field 'param': zero denominator in {p!r}") from None
    if form == "log":
        return DensityBound("log")
    if form == "table":
        table = desc.get("table")
        if not isinstance(table, list) or not table:
            raise DescriptorError("field 'table': need a nonempty list of integers")
        return DensityBound("table", table=table)
    raise DescriptorError(f"field 'form': expected power/log/table for density, got {form!r}")


def _parse_entry(v, where: str):
    if isinstance(v, str):
        try:
            v = parse_number(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DescriptorError(f"field '{where}': {exc}") from exc
    elif isinstance(v, int):
        return v
    elif not isinstance(v, float):
        raise DescriptorError(f"field '{where}': expected a number or 'p/q' string, got {v!r}")
    if not is_finite(v):
        raise NonFiniteValue(f"field '{where}' is not finite ({v!r})")
    return v


def load_submeasure(path) -> Submeasure:
    with open(path) as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DescriptorError(f"{path}: not valid JSON ({exc})") from exc
    return _in_file(path, submeasure_from_descriptor, desc)


def _in_file(path, build, desc):
    """build(desc), with the file named in a non-finite-value error."""
    try:
        return build(desc)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def sequence_from_descriptor(desc: dict) -> SequencePrefix:
    if not isinstance(desc, dict):
        raise DescriptorError("sequence descriptor must be a JSON object")
    form = desc.get("form")
    scale = _parse_entry(desc.get("scale", 1), "scale")
    if form == "table":
        table = desc.get("table")
        if not isinstance(table, list):
            raise DescriptorError("field 'table': need a list of values")
        entries = [scale * _parse_entry(v, f"table[{i}]") for i, v in enumerate(table)]
    else:
        length = desc.get("length")
        if not isinstance(length, int) or length < 1:
            raise DescriptorError(f"field 'length': need a positive integer, got {length!r}")
        p = desc.get("param", 1)
        if not isinstance(p, (int, float, str)):
            raise DescriptorError(f"field 'param': need a number, got {p!r}")
        try:
            if form == "power":
                entries = [scale * float(i) ** (-float(p)) for i in range(1, length + 1)]
            elif form == "alt":
                entries = [(-1) ** (i + 1) * scale * float(i) ** (-float(p))
                           for i in range(1, length + 1)]
            else:
                raise DescriptorError(f"field 'form': expected power/alt/table, got {form!r}")
        except OverflowError as exc:
            raise NonFiniteValue(f"sequence descriptor: an entry overflows ({exc})") from exc
    for i, v in enumerate(entries, start=1):
        if not is_finite(v):
            raise NonFiniteValue(f"sequence entry {i} is not finite ({v!r})")
    return SequencePrefix(tuple(entries))


def load_sequence(path) -> SequencePrefix:
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return _in_file(path, sequence_from_descriptor, json.load(fh))
    with open(path) as fh:
        lines = fh.read().split("\n")
    tokens = [t for t in map(str.strip, lines) if t and t[0] != "#"]
    # One pass over the whole file; a token with a "." is a float, as
    # parse_number finds after int() fails.  On any error or non-finite
    # entry, _scan_sequence names the line.
    try:
        entries = [float(t) if "." in t and "/" not in t else parse_number(t) for t in tokens]
        clean = all(map(math.isfinite, entries))
    except (ValueError, ZeroDivisionError, OverflowError):
        clean = False
    if not clean:
        entries = _scan_sequence(path, lines)
    if not entries:
        raise DescriptorError(f"{path}: no values found")
    return SequencePrefix(tuple(entries))


def _scan_sequence(path, lines) -> list:
    """The entries of a sequence CSV, line by line; an error names path:lineno."""
    entries = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = parse_number(line)
        except (ValueError, ZeroDivisionError) as exc:
            raise DescriptorError(f"{path}:{lineno}: {exc}") from exc
        if not is_finite(v):
            raise NonFiniteValue(
                f"{path}:{lineno}: entry {len(entries) + 1} is not finite ({v!r})")
        entries.append(v)
    return entries


def save_sequence(path, x) -> None:
    entries = x.entries if isinstance(x, SequencePrefix) else tuple(x)
    _write_lines(path, map(_csv_token, entries))


def _csv_token(v) -> str:
    # type() first: isinstance against the Fraction ABC is slow for a float
    if type(v) is float or not isinstance(v, Fraction):
        return repr(v)
    return f"{v.numerator}/{v.denominator}"


def _write_lines(path, lines) -> None:
    """Write each line with its newline, in one write."""
    text = "\n".join(lines)
    with open(path, "w") as fh:
        fh.write(text + "\n" if text else text)


# ---------------------------------------------------------------------------
# Piecewise-linear functions
# ---------------------------------------------------------------------------


def load_function_csv(path) -> PiecewiseLinearFunction:
    bps, vals = [], []
    with open(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 2:
                raise DescriptorError(f"{path}:{lineno}: expected 't,y', got {row!r}")
            try:
                bps.append(parse_number(row[0]))
                vals.append(parse_number(row[1]))
            except (ValueError, ZeroDivisionError) as exc:
                raise DescriptorError(f"{path}:{lineno}: {exc}") from exc
    try:
        return PiecewiseLinearFunction(tuple(bps), tuple(vals))
    except ValueError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc


def save_function_csv(path, f: PiecewiseLinearFunction) -> None:
    _write_lines(path, [f"{_csv_token(t)},{_csv_token(y)}"
                        for t, y in zip(f.breakpoints, f.values)])
