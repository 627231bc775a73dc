"""Constructive witnesses with machine-checkable certificates.

Each generator materializes the finite core of an asymptotic existence
argument: a flat prefix separating two density bounds, an interval set
separating the induced ideals, the alternating zig-zag function whose
variation reproduces a prescribed hat-norm, a block sequence with vanishing
tail under one submeasure and exploding norm under another, and a monotone
sequence separating a density space from every weighted-sum space.

Every certificate re-verifies its claims through the public ``hat_norm`` /
``tail_norm`` / ``variation_bruteforce`` operations, never through the
generator's internal bookkeeping, so a certificate that passes is evidence
about the library's actual arithmetic.  "Smallest index such that" searches
are linear scans under a hard horizon and report failure explicitly; the
underlying theory guarantees existence asymptotically, not inside any fixed
horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import (
    HorizonExceeded,
    HypothesisViolation,
    all_exact,
    exact_div,
    integer_keys,
    rail_slack,
)
from .sequence_spaces import fin_certificate, is_monotone
from .submeasure import (
    DensityBound,
    SequencePrefix,
    Submeasure,
    WatermanWeights,
    as_entries,
    density,
    hat_norm,
    permuted,
    summable,
    tail_norm,
)
from .variation import PiecewiseLinearFunction, variation_bruteforce

DEFAULT_SEPARATION_HORIZON = 10 ** 6


@dataclass(frozen=True)
class CheckRecord:
    name: str
    lhs: object
    relation: str          # "<=", ">=", "==", "true"
    rhs: object
    passed: bool


@dataclass(frozen=True)
class ConstructionCertificate:
    kind: str
    obj: object            # SequencePrefix | frozenset | PiecewiseLinearFunction | None
    checks: tuple
    all_passed: bool
    notes: tuple = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.all_passed != all(c.passed for c in self.checks):
            raise ValueError("all_passed must mirror the conjunction of the checks")


def _check(name: str, lhs, relation: str, rhs, tol=0) -> CheckRecord:
    # tol = 0 must stay an int: adding float 0.0 would silently convert exact
    # operands to floats and corrupt boundary comparisons
    if relation == "<=":
        passed = lhs <= (rhs + tol if tol else rhs)
    elif relation == ">=":
        passed = lhs >= (rhs - tol if tol else rhs)
    elif relation == "==":
        passed = lhs == rhs if tol == 0 else abs(lhs - rhs) <= tol
    elif relation == "true":
        passed = bool(lhs)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return CheckRecord(name, lhs, relation, rhs, bool(passed))


def _certify(kind, obj, checks, notes=(), details=None) -> ConstructionCertificate:
    checks = tuple(checks)
    return ConstructionCertificate(kind, obj, checks,
                                   all(c.passed for c in checks),
                                   tuple(notes), details or {})


# ---------------------------------------------------------------------------
# Density-bound separations
# ---------------------------------------------------------------------------


def density_witness_monotone(g: DensityBound, h: DensityBound, n: int) -> ConstructionCertificate:
    """Flat prefix showing the density norm for h exceeds the one for g by
    (about) the ratio g(n)/h(n), while staying at hat-norm exactly 1 under g.

    The height is 1/s with s = max_{m<=n} m/g(m), the least flat height whose
    g-norm is 1.  When n/g(n) is exactly nondecreasing s = n/g(n) and the
    object is the classical witness of height g(n)/n; for ceiling-rounded
    profiles s absorbs the rounding, keeping the first check exact.
    s is phi_g({1..n}), the density set value of the prefix.
    """
    if n < 1:
        raise ValueError(f"witness index n must be at least 1, got {n}")
    phi_g, phi_h = density(g), density(h)
    s = phi_g._set_value(range(1, n + 1))
    height = 1 / s
    x = SequencePrefix((height,) * n)
    claimed_ratio = Fraction(n, h.g(n)) * height
    checks = [
        _check("g-norm of witness at most 1", hat_norm(phi_g, x), "<=", 1),
        _check("h-norm of witness at least n/(s*h(n))",
               hat_norm(phi_h, x), ">=", claimed_ratio),
    ]
    return _certify("density-witness-monotone", x, checks,
                    details={"n": n, "s": s, "height": height,
                             "ratio_lower_bound": claimed_ratio,
                             "ideal_ratio": exact_div(g.g(n), h.g(n))})


def density_witness_set(g: DensityBound, h: DensityBound, k: int,
                        search_bound: int) -> ConstructionCertificate:
    """Interval F = {n-a+1, ..., n} with phi_g(F) <= 2^-k and phi_h(F) >= 2^k.

    Candidates follow the dyadic bookkeeping (delta with 1/g(1) >= 1/delta
    and i/g(i) >= 1/delta on the scanned range, then j with
    2^j delta < g(n) <= 2^(j+1) delta and a = n - 2^(j-k)); every candidate
    is then verified by direct exact evaluation of both set values, so
    rounding slack in g can only delay success, never produce a false
    certificate.  Failure within the horizon is reported explicitly.

    delta = g(1) at every index: a table has n/g(n) nondecreasing, so
    n/g(n) >= 1/g(1), and the power and log forms have g(1) = 1 and
    g(n) <= n.  So g(i)/i never exceeds g(1), and delta stays an int.
    """
    if k < 1:
        raise ValueError("separation level k must be >= 1")
    phi_g, phi_h = density(g), density(h)
    delta = g.g(1)
    threshold = 2 ** k * 2 ** (k + 1) * delta

    for n in range(1, search_bound + 1):
        gn, hn = g.g(n), h.g(n)
        if gn <= threshold * hn:
            continue
        j = 0
        while (2 ** (j + 1)) * delta < gn:
            j += 1
        if j < k:
            continue
        a = n - 2 ** (j - k)
        if a < 0:
            continue
        F = frozenset(range(a + 1, n + 1))
        val_g, val_h = phi_g.set_value(F), phi_h.set_value(F)
        checks = [
            _check("phi_g(F) at most 2^-k", val_g, "<=", Fraction(1, 2 ** k)),
            _check("phi_h(F) at least 2^k", val_h, ">=", Fraction(2 ** k)),
        ]
        if all(c.passed for c in checks):
            return _certify("density-witness-set", F, checks,
                            details={"n": n, "a": a, "j": j, "k": k,
                                     "delta": Fraction(delta)})
    return _certify("density-witness-set", None, [],
                    notes=("no-witness-below-bound",),
                    details={"k": k, "search_bound": search_bound,
                             "delta": Fraction(delta)})


# ---------------------------------------------------------------------------
# Zig-zag function
# ---------------------------------------------------------------------------


def zigzag_from_sequence(x, phi: Submeasure = None):
    """Piecewise-linear f with f(1/2^k) the alternating partial sums of |x|.

    Needs |x| nonincreasing.  Breakpoints are 0 and 1/2^k for k <= K and 1;
    f(1) = 0 and f(0) carries the full (finite) alternating sum.  The
    canonical family J_1 = [1/2, 1], J_{k+1} = [1/2^{k+1}, 1/2^k] oscillates
    by exactly |x_k| on its k-th member, and the oscillation vector of any
    other family is prefix-dominated by it, so for submeasures whose
    hat-norm respects prefix domination the variation of f equals the
    hat-norm of x; the certificate verifies this through brute force when
    phi is supplied.  Float sequences are compared within a slack, and the
    certificate's notes name the entries no larger than it, whose checks
    would pass against any oscillation near 0.

    On the exact rail each canonical oscillation is read off the values at
    its two breakpoint indices, once the integer keys of f (``f._keys``)
    show that those breakpoints are the member's endpoints; it is the
    Fraction that |f(t) - f(s)| would be.  Other rails evaluate f at the
    endpoints.

    Returns (function, certificate).
    """
    entries = as_entries(x)
    if not entries:
        raise ValueError("need a nonempty sequence")
    if not is_monotone(entries):
        raise HypothesisViolation("zig-zag construction needs |x| nonincreasing")
    K = len(entries)
    magnitudes = [abs(v) for v in entries]
    partial = []
    s = 0
    for i, m in enumerate(magnitudes):
        s = s + m if i % 2 == 0 else s - m
        partial.append(s)
    # ascending breakpoints: 0, 1/2^K, ..., 1/4, 1/2, 1
    bps = [0] + [exact_div(1, 2 ** k) for k in range(K, 0, -1)] + [1]
    vals = [partial[-1]] + [partial[k - 1] for k in range(K, 0, -1)] + [0]
    f = PiecewiseLinearFunction(tuple(bps), tuple(vals))

    # float partial sums round, so the float rail compares within a slack
    exact = f.is_exact()
    tol = rail_slack(exact, magnitudes[0])
    # member k0 of the family, [1/2^(k0+1), 1/2^k0] (k0 = 0 is [1/2, 1]),
    # spans breakpoints i = K - k0 and i + 1, whose integer keys bp * D are
    # D / 2^(k0+1) and D / 2^k0
    D, keys = f._keys
    checks = []
    for k0 in range(K):
        i = K - k0
        if exact and keys[i] << (k0 + 1) == D and keys[i + 1] << k0 == D:
            osc = Fraction(abs(vals[i + 1] - vals[i]))
        else:
            osc = abs(f(exact_div(1, 2 ** k0) if k0 else 1) - f(exact_div(1, 2 ** (k0 + 1))))
        checks.append(_check(f"canonical oscillation {k0 + 1} equals |x_{k0 + 1}|",
                             osc, "==", magnitudes[k0], tol))
    # an entry within the slack passes against any oscillation near 0
    lost = [str(k) for k, m in enumerate(magnitudes, start=1) if tol and m <= tol]
    notes = []
    if lost:
        notes.append(f"not certified: |x_k| <= float slack {tol!r} for k = {', '.join(lost)}")
    details = {"length": K}
    if phi is not None:
        var = variation_bruteforce(f, phi)
        target = hat_norm(phi, magnitudes)
        checks.append(_check("variation equals hat-norm of x", var, "==", target,
                             rail_slack(exact and phi.is_exact(), target)))
        details["variation"] = var
    return f, _certify("zigzag", f, checks, notes, details=details)


# ---------------------------------------------------------------------------
# Vanishing tail under phi1, exploding norm under phi2
# ---------------------------------------------------------------------------


def _block_witness(phi1: Submeasure, phi2: Submeasure, start: int, length_cap: int,
                   ratio_needed, monotone: bool):
    """Search a finite z supported on positions > start with
    hat2(z) > ratio_needed * hat1(z), over a fixed candidate grammar:
    flat blocks, geometric decays, and singletons, all block-aligned.

    Per shape, block ends sweep geometrically and the first success is then
    refined by bisection to the smallest success probed (shorter blocks keep
    the comparability constant of the covered prefix small, which is what
    limits the reachable depth).  Returns (shape, end, z, hat1, hat2) or None.
    """
    def build(shape, block_len):
        if shape == "flat":
            return (1,) * block_len
        if shape == "singleton":
            return (0,) * (block_len - 1) + (1,)
        if block_len <= 1 or block_len > 64:
            return None
        return tuple(Fraction(1, 2 ** j) for j in range(block_len))

    def attempt(shape, block_len):
        profile = build(shape, block_len)
        if profile is None:
            return None
        z = (0,) * start + profile
        h1, h2 = hat_norm(phi1, z), hat_norm(phi2, z)
        if h1 > 0 and h2 > ratio_needed * h1:
            return (shape, start + block_len, z, h1, h2)
        return None

    shapes = ("flat", "geometric") if monotone else ("flat", "geometric", "singleton")
    best = None
    cap = length_cap - start
    for shape in shapes:
        hit, lo, b = None, 0, 1
        while b <= cap:
            hit = attempt(shape, b)
            if hit:
                break
            lo, b = b, b * 2
        if not hit:
            continue
        hi = hit[1] - start
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = attempt(shape, mid)
            if found:
                hit, hi = found, mid
            else:
                lo = mid
        if best is None or hit[1] < best[1]:
            best = hit
    return best


def _exact_parts(values) -> tuple:
    """``(keys, den)`` of ``integer_keys`` of values read as Fractions (a
    float exactly, as ``Fraction`` reads it)."""
    return integer_keys(values if all_exact(values) else list(map(Fraction, values)))[:2]


def exh_minus_fin_sequence(phi1: Submeasure, phi2: Submeasure, depth: int,
                           witness_search_len: int,
                           monotone: bool = False) -> ConstructionCertificate:
    """Concatenated blocks whose phi1-norm is 2^-n_k each (so the phi1 tail
    vanishes geometrically) while the phi2-norm of block k exceeds 2^n_k.

    Block k is a scaled witness z_k found by ``_block_witness`` on the
    coordinates after the previous block; the scale 1/(2^n_k hat1(z_k))
    pins the phi1 value exactly.  n_{k+1} is chosen above n_k, above the
    two-sided comparability constant L_k of the first m_k coordinates
    (L = sum phi2-singletons / min phi1-singleton, which bounds
    hat2 <= L hat1 there), and, in the monotone variant, large enough that
    the next block's entries stay below the last entry of the current one.
    Search failure at any depth is reported as consistent-with-domination.
    """
    blocks = []
    x_entries = []
    m_prev = 0
    n_prev = 0
    L_prev = None
    # sum of the phi2-singletons and least phi1-singleton on 1..m_prev,
    # extended over each new block
    sing2, sing1 = 0, None
    notes = []
    for k in range(1, depth + 1):
        if k == 1:
            n_k = 1
        else:
            n_k = n_prev + 1
            while 2 ** (2 * n_k) <= L_prev:
                n_k += 1
            if monotone:
                # next block must sit below the current last entry
                last = abs(x_entries[-1])
                sig1 = phi1.singleton(m_prev + 1)
                while not Fraction(1, 2 ** n_k) < sig1 * last:
                    n_k += 1
        found = _block_witness(phi1, phi2, m_prev, witness_search_len,
                               2 ** (2 * n_k + 1), monotone)
        if found is None:
            notes.append(f"block-witness search failed at depth {k} "
                         f"(length cap {witness_search_len}): consistent with "
                         "hat-norm domination at this scale")
            break
        shape_name, t, z, h1, h2 = found
        scale = exact_div(1, (2 ** n_k) * h1)
        block_vec = tuple(v * scale for v in z[m_prev:])
        x_entries.extend(block_vec)
        blocks.append({"k": k, "n_k": n_k, "start": m_prev + 1, "end": t,
                       "shape": shape_name})
        block = range(m_prev + 1, t + 1)
        nums, den = _exact_parts([phi2.singleton(i) for i in block])
        sing2 += Fraction(sum(nums), den)
        nums, den = _exact_parts([phi1.singleton(i) for i in block])
        low = Fraction(min(nums), den)
        sing1 = low if sing1 is None or low < sing1 else sing1
        m_prev = t
        n_prev = n_k
        L_prev = exact_div(sing2, sing1)

    x = SequencePrefix(tuple(x_entries))
    checks = []
    for rec in blocks:
        s, t, n_k = rec["start"], rec["end"], rec["n_k"]
        block_only = (0,) * (s - 1) + x.entries[s - 1:t] + (0,) * (len(x.entries) - t)
        checks.append(_check(f"phi1-norm of block {rec['k']} equals 2^-{n_k}",
                             hat_norm(phi1, block_only), "==", Fraction(1, 2 ** n_k)))
        checks.append(_check(f"phi2-norm of block {rec['k']} exceeds 2^{n_k}",
                             hat_norm(phi2, block_only), ">=", Fraction(2 ** n_k)))
    for idx, rec in enumerate(blocks[:-1]):
        cut = rec["end"] + 1
        bound = sum(Fraction(1, 2 ** blocks[j]["n_k"]) for j in range(idx + 1, len(blocks)))
        checks.append(_check(f"phi1 tail after block {rec['k']} at most {bound}",
                             tail_norm(phi1, x, cut), "<=", bound))
    if monotone and x.entries:
        checks.append(_check("sequence is monotone", is_monotone(x), "true", True))
    return _certify("exh-minus-fin", x, checks, notes,
                    details={"blocks": blocks, "depth_reached": len(blocks),
                             "depth_requested": depth})


# ---------------------------------------------------------------------------
# Separating a density space from a weighted-sum space
# ---------------------------------------------------------------------------


def separating_sequence(A: WatermanWeights, g: DensityBound, i_max: int,
                        horizon: int = DEFAULT_SEPARATION_HORIZON) -> ConstructionCertificate:
    """Monotone sequence in the weighted-sum space whose density norm grows.

    Requires the increments of g to be nonincreasing with limit 0 (checked
    analytically for the closed forms, exactly for tables).  The base
    sequence x has partial sums following the real-valued profile of g
    (x_n = g_real(n) - g_real(n-1)); the integer-valued g itself is used for
    every norm evaluation and threshold.

    Convergent branch (sum a_n x_n < infinity): emits y with
    y = x up to n_1, (i+1) x_{m_i} on (n_i, m_i), (i+1) x_n on [m_i, n_{i+1}],
    where n_{i+1} is the first index past m_i at which both the remaining
    weighted tail is below 2^-(i+2)/(i+2) and the running x-sum since m_i
    reaches g(N)/2, and m_{i+1} is where (i+2) x drops under (i+1) x_{n_{i+1}}.
    Checks: y monotone; density norm of y restricted to 1..n_{i+1} at least
    (i+1)/2 for every i; weighted partial sum of y below its cap.

    Divergent branch: x itself already has unbounded weighted partial sums;
    emits x with a growth certificate against the weighted-sum submeasure.
    """
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
    total = float(S[-1])

    mode, tail_bound = _tail_mode(A, g, H, S)
    convergent = mode != "divergent"

    details = {"mode": mode, "horizon": H, "tail_bound_beyond_horizon": tail_bound}

    if not convergent:
        cert = fin_certificate(summable(A), x)
        checks = [_check("weighted partial sums of x grow",
                         cert.verdict == "growth-detected", "true", True)]
        return _certify("separating-sequence", SequencePrefix(tuple(x.tolist())),
                        checks, notes=("divergent-branch",),
                        details={**details, "growth": cert.params})

    # n_1: first N with 2 * tail < 1/4
    n1 = int(np.searchsorted(S, total + tail_bound - 0.125, side="right")) + 1
    if n1 > H:
        raise HorizonExceeded("horizon exhausted before n_1")
    n_list = [n1]
    # m_1: first N > n_1 with 2 x_N <= x_{n_1}
    nx = -x
    m_list = [_first_index_leq(nx, n1 + 1, x[n1 - 1] / 2.0, H)]

    # the prefix sums of x, and g, only as far as the searches reach
    Sx = np.cumsum(x[:1])
    for i in range(1, i_max + 1):
        m_i = m_list[-1]
        target_tail = 2.0 ** -(i + 2) / (i + 2)
        lo = int(np.searchsorted(S, total + tail_bound - target_tail, side="right")) + 1
        lo = max(lo, m_i + 1)
        Sx = _grown_cumsum(x, Sx, m_i - 1)
        base = float(Sx[m_i - 2]) if m_i >= 2 else 0.0
        # first N >= lo with Sx[N] - base >= g(N) / 2, over doubling prefixes
        k, n_next = lo - 1, None
        while n_next is None:
            if k >= H:
                raise HorizonExceeded(f"horizon exhausted before n_{i + 1}")
            Sx = _grown_cumsum(x, Sx, k + 1)
            window = np.flatnonzero(Sx[k:] - base >= g.g_array(len(Sx))[k:] / 2.0)
            if len(window):
                n_next = k + 1 + int(window[0])
            k = len(Sx)
        n_list.append(n_next)
        if i < i_max:
            m_list.append(_first_index_leq(nx, n_next + 1,
                                           (i + 1) * x[n_next - 1] / (i + 2), H))

    # assemble y up to n_{i_max + 1}
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


def _real_increments(g: DensityBound, H: int) -> np.ndarray:
    if g.form == "power" and g.param == Fraction(1, 2):
        s = np.sqrt(np.arange(0, H + 1, dtype=float))
        return 1.0 / (s[1:] + s[:-1])
    if g.form == "power":
        p = float(g.param)
        n = np.arange(0, H + 1, dtype=float)
        prof = n ** p
        return np.diff(prof)
    n = np.arange(0, H + 1, dtype=float)
    return np.diff(np.log2(n + 1))


def _grown_cumsum(x: np.ndarray, Sx: np.ndarray, need: int) -> np.ndarray:
    """The prefix sums Sx of x, grown to at least ``need`` entries (at least
    doubled, at most len(x)).  The new sums continue from the carry Sx[-1],
    in order, so they have the bits of one cumsum over x."""
    if len(Sx) >= need:
        return Sx
    end = min(len(x), max(need, 2 * len(Sx)))
    more = np.cumsum(np.concatenate(([Sx[-1]], x[len(Sx):end])))[1:]
    return np.concatenate((Sx, more))


def _first_index_leq(nx: np.ndarray, start: int, bound: float, H: int) -> int:
    """Smallest 1-based N >= start with x[N] <= bound (x nonincreasing),
    given nx = -x."""
    n = start + int(np.searchsorted(nx[start - 1:], -bound))
    if n > H:
        raise HorizonExceeded("horizon exhausted while locating a drop index")
    return n


def _tail_mode(A: WatermanWeights, g: DensityBound, H: int, S: np.ndarray):
    """Convergence of sum a_n x_n: comparison table for known form pairs,
    plateau heuristic otherwise.  Returns (mode, upper bound on the tail
    beyond the horizon)."""
    q = A.exponent
    p = float(g.param) if g.form == "power" else (0.0 if g.form == "log" else None)
    if q is not None and p is not None:
        # a_n x_n ~ n^(p - q - 1) (log profile: x_n ~ 1/n, i.e. p = 0)
        if q > p:
            f_H = float(A.value_at(H)) * float(g.real_increment(H))
            return "comparison-convergent", f_H * H / (q - p)
        return "divergent", 0.0
    last_decade = S[-1] - S[int(len(S) * 0.9)]
    if last_decade < 1e-9 * max(S[-1], 1.0):
        return "plateau-convergent", 0.0
    return "divergent", 0.0


# ---------------------------------------------------------------------------
# Permutation invariance of the variation
# ---------------------------------------------------------------------------


def permuted_equivalence_demo(phi: Submeasure, perm,
                              f: PiecewiseLinearFunction) -> ConstructionCertificate:
    """Brute-force variation is unchanged by permuting the submeasure's ground
    set: the supremum ranges over ordered families, and composing orderings
    with the permutation is a bijection of the search space."""
    psi = permuted(phi, perm)
    mc = min(f.segments, len(perm))
    lhs = variation_bruteforce(f, phi, max_count=mc)
    rhs = variation_bruteforce(f, psi, max_count=mc)
    checks = [_check("variation under permuted submeasure unchanged", lhs, "==", rhs)]
    return _certify("permuted-demo", f, checks,
                    details={"variation": lhs, "perm": tuple(perm)})
