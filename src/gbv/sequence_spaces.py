"""Finite-horizon membership certificates for the sequence spaces of a submeasure.

For a submeasure phi the four spaces of interest are

* FIN(phi):  sequences of finite hat-norm,
* EXH(phi):  sequences whose tail hat-norm tends to zero,
* mFIN/mEXH: their intersections with the monotone cone (nonincreasing |x|).

Membership is a statement about the infinite tail and is undecidable from any
finite prefix, so nothing here ever claims membership.  A certificate records
the two diagnostic curves that the definitions are about — hat-norms of
initial truncations (nondecreasing, by lower semicontinuity) and hat-norms of
tail cuts (nonincreasing) — together with a "consistent with" verdict derived
from fixed thresholds.  The verdict vocabulary:

* ``bounded-consistent`` / ``growth-detected(rate)`` for the FIN curve,
* ``tail-vanishing-consistent`` / ``tail-stuck(level)`` for the EXH curve.

Growth detection fits a least-squares slope to log(norm) against log(n) over
the last half of the horizon; slopes above ``GROWTH_SLOPE_THRESHOLD`` (0.05)
count as growth.  Tail vanishing requires the final tail to drop below
max(TAIL_ABS_TOL, TAIL_REL_TOL * initial tail), a scale-free criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import NonFiniteValue
from .submeasure import SequencePrefix, Submeasure, as_entries, as_float_array

GROWTH_SLOPE_THRESHOLD = 0.05
TAIL_REL_TOL = 1e-3
TAIL_ABS_TOL = 1e-6

_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class MembershipCertificate:
    kind: str                     # "fin" or "exh"
    norm_by_truncation: tuple     # hat-norms of x * chi_{1..n}, n = 1..N
    tail_by_cut: tuple            # hat-norms of x * chi_{n..N},  n = 1..N
    verdict: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # each step may go the wrong way by the slack, relative past 1;
        # n names the first step that goes further
        t = np.asarray(self.norm_by_truncation)
        bad = np.flatnonzero(t[1:] < t[:-1] - _FLOAT_SLACK * np.maximum(1.0, np.abs(t[:-1])))
        if len(bad):
            raise ValueError(f"truncation norms must be nondecreasing (n={bad[0] + 2})")
        s = np.asarray(self.tail_by_cut)
        bad = np.flatnonzero(s[1:] > s[:-1] + _FLOAT_SLACK * np.maximum(1.0, np.abs(s[:-1])))
        if len(bad):
            raise ValueError(f"tail norms must be nonincreasing (n={bad[0] + 2})")

    def to_payload(self) -> dict:
        return {
            "truncation_norms": list(self.norm_by_truncation),
            "tail_norms": list(self.tail_by_cut),
            "verdict": self.verdict,
            "params": dict(self.params),
        }


def is_monotone(x) -> bool:
    """True when |x_{i+1}| <= |x_i| throughout (the monotone cone).  A float
    array is compared in one numpy pass; other input entry by entry, so
    exact entries are compared exactly."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        a = np.abs(x)
        return bool((a[1:] <= a[:-1]).all())
    entries = as_entries(x)
    return all(abs(entries[i + 1]) <= abs(entries[i]) for i in range(len(entries) - 1))


def sorted_rearrangement(x) -> SequencePrefix:
    """Absolute values sorted nonincreasing: the canonical monotone rearrangement."""
    entries = as_entries(x)
    return SequencePrefix(tuple(sorted((abs(v) for v in entries), reverse=True)))


def characteristic_prefix(C, length: int) -> SequencePrefix:
    """The 0/1 indicator vector of C inside {1..length}."""
    C = set(int(i) for i in C)
    if C and (min(C) < 1 or max(C) > length):
        raise ValueError(f"set elements must lie in 1..{length}")
    return SequencePrefix(tuple(1 if i in C else 0 for i in range(1, length + 1)))


def fin_certificate(phi: Submeasure, x) -> MembershipCertificate:
    """Diagnose boundedness of hat-norms along initial truncations of x.

    The curve itself is always reported; the verdict is ``growth-detected``
    with the fitted log-log rate when the last-half slope exceeds the
    threshold, else ``bounded-consistent`` at the final level.  Never a
    membership claim: a prefix cannot witness FIN(phi).  A NaN or infinite
    entry, or a hat-norm that overflows the float range, raises
    :class:`~gbv._util.NonFiniteValue`.
    """
    norms = _finite_curve(phi.truncation_norms, x, "truncation")
    slope = _loglog_slope(norms)
    final = float(norms[-1]) if len(norms) else 0.0
    params = {"slope": slope, "threshold": GROWTH_SLOPE_THRESHOLD, "level": final}
    if slope > GROWTH_SLOPE_THRESHOLD:
        verdict = "growth-detected"
        params["rate"] = slope
    else:
        verdict = "bounded-consistent"
    return MembershipCertificate("fin", tuple(norms.tolist()), (), verdict, params)


def exh_certificate(phi: Submeasure, x) -> MembershipCertificate:
    """Diagnose vanishing of tail hat-norms of x.  A NaN or infinite entry,
    or a hat-norm that overflows the float range, raises
    :class:`~gbv._util.NonFiniteValue`."""
    tails = _finite_curve(phi.tail_norms, x, "tail")
    initial = float(tails[0]) if len(tails) else 0.0
    final = float(tails[-1]) if len(tails) else 0.0
    threshold = max(TAIL_ABS_TOL, TAIL_REL_TOL * initial)
    params = {"initial": initial, "final": final, "threshold": threshold}
    if final <= threshold:
        verdict = "tail-vanishing-consistent"
    else:
        verdict = "tail-stuck"
        params["level"] = final
    return MembershipCertificate("exh", (), tuple(tails.tolist()), verdict, params)


def _finite_curve(norms_of, x, kind: str) -> np.ndarray:
    """``norms_of`` on x as a float array.  A NaN or infinite entry of x, or
    an overflowed norm, raises NonFiniteValue naming the first one."""
    arr = _finite(as_float_array(x), "entry {} of the sequence")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by cut
        return _finite(norms_of(arr), kind + " norm at cut {}")


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    """arr, refusing a NaN or infinite value with one vectorized check; the
    first one is named by ``name.format(its 1-based index)``."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"{name.format(i + 1)} is not finite ({float(arr[i])!r})")
    return arr


def _loglog_slope(norms: np.ndarray) -> float:
    """Least-squares slope of log(norm) vs log(n) over the last half of the data."""
    n = len(norms)
    if n < 4:
        return 0.0
    start = n // 2
    idx = np.arange(start + 1, n + 1, dtype=float)
    vals = norms[start:]
    mask = vals > 0
    if mask.sum() < 2:
        return 0.0
    lx = np.log(idx[mask])
    ly = np.log(vals[mask])
    lx -= lx.mean()
    denom = float(lx @ lx)
    if denom == 0.0:
        return 0.0
    return float(lx @ (ly - ly.mean())) / denom
