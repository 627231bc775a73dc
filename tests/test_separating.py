"""The separating sequence on growing prefixes against the full-horizon scan.

``separating_sequence`` builds the prefix sums of x and g only as far as its
searches reach, and finds each drop index by a binary search that reads
O(log H) entries.  ``_reference_separating`` below is the earlier version,
which built both over the whole horizon and negated the suffix of x for each
drop index; the outputs must agree bit for bit, errors included.
"""

import contextlib
import hashlib
import io
import itertools
import json
from fractions import Fraction as F

import numpy as np
import pytest

from gbv._util import HorizonExceeded, HypothesisViolation
from gbv.constructions import (
    _certify,
    _check,
    _grown_cumsum,
    _real_increments,
    _tail_mode,
    separating_sequence,
)
from gbv.sequence_spaces import fin_certificate, is_monotone
from gbv.submeasure import (
    DensityBound,
    SequencePrefix,
    density,
    harmonic_weights,
    log_bound,
    log_weights,
    ones_weights,
    power_weights,
    sqrt_bound,
    summable,
)


def _reference_first_index_leq(x, start, bound, H):
    idx = int(np.searchsorted(-x[start - 1:], -bound))
    n = start + idx
    if n > H:
        raise HorizonExceeded("horizon exhausted while locating a drop index")
    return n


def _reference_separating(A, g, i_max, horizon):
    """The full-horizon separating sequence: Sx and g over all of H."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not g.increments_vanishing():
        raise HypothesisViolation(
            "needs g increments nonincreasing and tending to 0 "
            "(underlying real profile for closed forms, exact for tables)")
    H = min(horizon, g.horizon or horizon, A.horizon or horizon)
    x = np.array([float(g.real_increment(n)) for n in range(1, H + 1)]) \
        if g.form == "table" else _real_increments(g, H)
    a = A.float_values(H)
    S = np.cumsum(a * x)
    Sx = np.cumsum(x)
    total = float(S[-1])
    mode, tail_bound = _tail_mode(A, g, H, S)
    details = {"mode": mode, "horizon": H, "tail_bound_beyond_horizon": tail_bound}
    if mode == "divergent":
        cert = fin_certificate(summable(A), x)
        checks = [_check("weighted partial sums of x grow",
                         cert.verdict == "growth-detected", "true", True)]
        return _certify("separating-sequence", SequencePrefix(tuple(x.tolist())),
                        checks, notes=("divergent-branch",),
                        details={**details, "growth": cert.params})
    n1 = int(np.searchsorted(S, total + tail_bound - 0.125, side="right")) + 1
    if n1 > H:
        raise HorizonExceeded("horizon exhausted before n_1")
    n_list = [n1]
    m_list = [_reference_first_index_leq(x, n1 + 1, x[n1 - 1] / 2.0, H)]
    g_arr = g.g_array(H)
    for i in range(1, i_max + 1):
        m_i = m_list[-1]
        target_tail = 2.0 ** -(i + 2) / (i + 2)
        lo = int(np.searchsorted(S, total + tail_bound - target_tail, side="right")) + 1
        lo = max(lo, m_i + 1)
        base = float(Sx[m_i - 2]) if m_i >= 2 else 0.0
        window = np.nonzero(Sx[lo - 1:] - base >= g_arr[lo - 1:] / 2.0)[0]
        if len(window) == 0:
            raise HorizonExceeded(f"horizon exhausted before n_{i + 1}")
        n_next = lo + int(window[0])
        n_list.append(n_next)
        if i < i_max:
            m_list.append(_reference_first_index_leq(x, n_next + 1,
                                                     (i + 1) * x[n_next - 1] / (i + 2), H))
    top = n_list[-1]
    y = x[:top].copy()
    for i in range(1, i_max + 1):
        n_i, m_i = n_list[i - 1], m_list[i - 1]
        y[n_i: m_i - 1] = (i + 1) * x[m_i - 1]
        y[m_i - 1: n_list[i]] = (i + 1) * x[m_i - 1: n_list[i]]
    phi_g = density(g)
    checks = [_check("y is monotone", is_monotone(y), "true", True)]
    for i in range(1, i_max + 1):
        val = float(phi_g.truncation_norms(y[:n_list[i]])[-1])
        checks.append(_check(f"density norm of y up to n_{i + 1} at least ({i + 1})/2",
                             val, ">=", (i + 1) / 2.0))
    cap = float(S[n1 - 1]) + 0.5
    partial = float(np.sum(a[:top] * y))
    checks.append(_check("weighted partial sum of y at most cap", partial, "<=", cap))
    return _certify("separating-sequence", SequencePrefix(tuple(y.tolist())),
                    checks, notes=("convergent-branch",),
                    details={**details, "n_i": n_list, "m_i": m_list, "cap": cap})


def _concave_table(n=5000):
    # increments 4, 3, 2, 1 on blocks of 50, then 0: nonincreasing and
    # reaching 0, so g is concave and n/g(n) nondecreasing
    g, table = 0, []
    for k in range(n):
        g += max(0, 4 - k // 50)
        table.append(g)
    return DensityBound("table", table=table)


BOUNDS = {"sqrt": sqrt_bound, "log": log_bound,
          "power-2/3": lambda: DensityBound("power", F(2, 3)),
          "power-1/3": lambda: DensityBound("power", F(1, 3)),
          "table": _concave_table}
WEIGHTS = {"harmonic": lambda: harmonic_weights(16),
           "power-1.5": lambda: power_weights(1.5, 16),
           "ones": lambda: ones_weights(16),
           "log": lambda: log_weights(16)}


def _outcome(build):
    """The certificate's fields with y as its bits, or the error raised."""
    try:
        cert = build()
    except (HorizonExceeded, HypothesisViolation) as exc:
        return type(exc).__name__, str(exc)
    y = np.array(cert.obj.entries, dtype=float)
    return (y.view(np.int64).tobytes(), cert.kind, cert.checks, cert.all_passed,
            cert.notes, cert.details)


@pytest.mark.parametrize("horizon", [1000, 5000, 10 ** 5, 10 ** 6])
@pytest.mark.parametrize("g_name", sorted(BOUNDS))
def test_separating_matches_the_full_horizon_scan(g_name, horizon):
    for w_name, depth in itertools.product(sorted(WEIGHTS), (1, 2, 3, 4)):
        got = _outcome(lambda: separating_sequence(WEIGHTS[w_name](), BOUNDS[g_name](),
                                                   depth, horizon))
        want = _outcome(lambda: _reference_separating(WEIGHTS[w_name](), BOUNDS[g_name](),
                                                      depth, horizon))
        assert got == want, (w_name, depth)


def test_the_differential_covers_both_branches_and_the_errors():
    seen = set()
    for g_name, w_name in itertools.product(sorted(BOUNDS), sorted(WEIGHTS)):
        for depth in (1, 4):
            out = _outcome(lambda: separating_sequence(WEIGHTS[w_name](), BOUNDS[g_name](),
                                                       depth, 10 ** 5))
            seen.add(out[0] if isinstance(out[0], str) else out[4])
    assert {("convergent-branch",), ("divergent-branch",), "HorizonExceeded"} <= seen


def test_grown_prefix_sums_have_the_bits_of_one_cumsum():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = rng.random(int(rng.integers(1, 3000))) * 10.0 ** rng.integers(-8, 8, 1)
        Sx = np.cumsum(x[:int(rng.integers(1, len(x) + 1))])
        while len(Sx) < len(x):
            Sx = _grown_cumsum(x, Sx, len(Sx) + int(rng.integers(1, 50)))
            assert Sx.tobytes() == np.cumsum(x[:len(Sx)]).tobytes()
        assert _grown_cumsum(x, Sx, len(x)) is Sx


# sha256 of the report and the object file of
#   gbv construct --kind separating --weights harmonic16.json --g sqrt.json
#       --depth 3 --horizon 1000000 --object-out object.csv
# taken with the full-horizon scan; its prefix ends at n = 65 464, so the
# doubling prefixes cross several chunk boundaries
REPORT_SHA256 = "cbc8afb654241f6d923286945b63ce2839162031a692a730c3feb3468db56483"
OBJECT_SHA256 = "a2e5e63b9a3bbda415e015d7b9b417add359684ebc531fa8fa9a194df58c1ce7"


def test_separating_report_at_a_million_is_unchanged(tmp_path, monkeypatch):
    from gbv.cli import main

    (tmp_path / "harmonic16.json").write_text(
        json.dumps({"type": "summable", "form": "harmonic", "horizon": 16}))
    (tmp_path / "sqrt.json").write_text(
        json.dumps({"type": "density", "form": "power", "param": "1/2"}))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["construct", "--kind", "separating", "--weights", "harmonic16.json",
                   "--g", "sqrt.json", "--depth", "3", "--horizon", "1000000",
                   "--object-out", "object.csv"])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256
    assert hashlib.sha256((tmp_path / "object.csv").read_bytes()).hexdigest() == OBJECT_SHA256
