"""The acceptance suite: every exit criterion, runnable as a library.

``run_all`` executes the ten criteria at their stated tolerances and returns
one result per criterion; the CLI ``selftest`` subcommand and the pytest
acceptance module both call into this file, so there is a single source of
truth for what "passing" means.  All randomness is seeded per criterion:
repeated runs are byte-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import separating_sequence, zigzag_from_sequence, permuted_equivalence_demo
from .oracle import hat_norm_oracle
from .orders import (
    katetov_partition_build,
    katetov_scan,
    preceq_density,
    preceq_m_summable,
)
from .submeasure import (
    DensityBound,
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    hat_norm,
    identity_bound,
    log_bound,
    ones_weights,
    permuted,
    shift_normalize,
    sqrt_bound,
    summable,
    unit,
)
from .variation import (
    PiecewiseLinearFunction,
    abv_norm,
    bv_norm,
    jordan_variation,
    modulus_by_enumeration,
    modulus_of_variation,
    pl_add,
    pl_scale,
    variation_bruteforce,
    variation_greedy,
    variation_upper_bound,
)

SEED = 20260808


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"{status} criterion {self.number}: {self.name} ({self.elapsed:.2f}s){extra}"


# ---------------------------------------------------------------------------
# Random generators (all deterministic under the per-criterion seeds)
# ---------------------------------------------------------------------------


def rational_sequence(rng, max_len=8, monotone=False):
    n = rng.randint(1, max_len)
    vals = [Fraction(rng.randint(0, 24), rng.randint(1, 8)) for _ in range(n)]
    if monotone:
        vals.sort(reverse=True)
    return tuple(v if rng.random() < 0.7 else -v for v in vals)


def waterman_prefix(rng, n=8) -> WatermanWeights:
    vals, cur = [], Fraction(rng.randint(5, 30), rng.randint(1, 3))
    for _ in range(n):
        vals.append(cur)
        cur = cur * Fraction(rng.randint(5, 10), 10)
    return WatermanWeights(vals, form="table")


def exact_density_table(rng, n=8, first=None) -> DensityBound:
    # Integer tables with n/g(n) exactly nondecreasing: a jump v -> w at
    # position i is admissible iff i*v >= (i-1)*w, i.e. w - v <= v // (i-1).
    while True:
        g = [first if first is not None else rng.randint(1, 3)]
        for i in range(2, n + 1):
            v = g[-1]
            cap = v // (i - 1)
            g.append(v + (rng.randint(1, cap) if (cap and rng.random() < 0.7) else 0))
        if g[-1] > g[0]:
            return DensityBound("table", table=g)


def random_permutation(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def zigzag_profile_function(rng, max_b=8, exact=False) -> PiecewiseLinearFunction:
    """Alternating slopes with nonincreasing amplitudes: on this class the
    k largest runs attain the k-interval modulus for every k, so greedy,
    brute force and the upper bound provably coincide for prefix-monotone
    hat-norms."""
    B = rng.randint(2, max_b)
    if exact:
        amps = sorted((Fraction(rng.randint(1, 40), rng.randint(1, 8))
                       for _ in range(B)), reverse=True)
        anchor = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
    else:
        amps = sorted((rng.uniform(0.1, 8.0) for _ in range(B)), reverse=True)
        anchor = rng.uniform(-3.0, 3.0)
    sign = rng.choice((1, -1))
    vals = [anchor]
    for a in amps:
        vals.append(vals[-1] + sign * a)
        sign = -sign
    cuts = sorted(rng.sample(range(1, 256), B - 1))
    if exact:
        bps = [0] + [Fraction(c, 256) for c in cuts] + [1]
    else:
        bps = [0.0] + [c / 256 for c in cuts] + [1.0]
    return PiecewiseLinearFunction(tuple(bps), tuple(vals))


def random_function(rng, max_b=8, exact=True) -> PiecewiseLinearFunction:
    """Unrestricted random piecewise-linear function."""
    B = rng.randint(1, max_b)
    cuts = sorted(rng.sample(range(1, 256), B - 1))
    if exact:
        bps = [0] + [Fraction(c, 256) for c in cuts] + [1]
        vals = [Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(B + 1)]
    else:
        bps = [0.0] + [c / 256 for c in cuts] + [1.0]
        vals = [rng.uniform(-6, 6) for _ in range(B + 1)]
    return PiecewiseLinearFunction(tuple(bps), tuple(vals))


def _variant_pool(rng):
    """(submeasure, needs_monotone_input) pairs covering every closed form.

    Density-backed variants get monotone input: the prefix-sum closed form
    equals the dominated-measure supremum on the monotone cone (and on
    characteristic vectors), not on arbitrary vectors; see the density module
    notes.  All other variants agree on arbitrary input.
    """
    return [
        (unit(), False),
        (counting(), False),
        (summable(waterman_prefix(rng)), False),
        (shift_normalize(summable(waterman_prefix(rng))), False),
        (permuted(summable(waterman_prefix(rng)), random_permutation(rng, 8)), False),
        (density(exact_density_table(rng, first=1)), True),
        (density(sqrt_bound()), True),
        (density(identity_bound()), True),
        (density(log_bound()), True),
        (shift_normalize(density(exact_density_table(rng, first=1))), True),
    ]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_1_oracle_agreement(scale: float = 1.0) -> CriterionResult:
    """hat_norm == hat_norm_oracle exactly, in rational mode: 500 random
    sequences, each checked against one instance of every variant family
    (weighted sum, density, unit, counting, shifted, permuted)."""
    t0 = time.time()
    rng = random.Random(SEED + 1)
    count = int(500 * scale)
    pairs = 0
    variants = _variant_pool(rng)
    for i in range(count):
        if i % 50 == 49:
            variants = _variant_pool(rng)   # fresh random instances periodically
        x_any = rational_sequence(rng)
        x_mono = tuple(sorted((abs(v) for v in x_any), reverse=True))
        six_families = (variants[0],            # unit
                        variants[1],            # counting
                        variants[2],            # weighted sum
                        variants[i % 4 + 5],    # density (rotating profile)
                        variants[3 if i % 2 else 9],   # shifted wrapper
                        variants[4])            # permuted wrapper
        for phi, needs_mono in six_families:
            x = x_mono if needs_mono else x_any
            a, b = hat_norm(phi, x), hat_norm_oracle(phi, x)
            if a != b:
                return CriterionResult(1, "hat-norm oracle agreement", False,
                                       time.time() - t0,
                                       f"mismatch {phi!r} x={x}: {a} vs {b}")
            pairs += 1
    return CriterionResult(1, "hat-norm oracle agreement", True, time.time() - t0,
                           f"{pairs} exact comparisons")


def criterion_2_variation_oracle(scale: float = 1.0) -> CriterionResult:
    """greedy == brute (1e-9) and brute <= upper on zigzag profiles,
    for unit/counting/20 weighted/20 density submeasures."""
    t0 = time.time()
    rng = random.Random(SEED + 2)
    funcs = [zigzag_profile_function(rng) for _ in range(int(200 * scale))]
    phis = [unit(), counting()]
    phis += [summable(waterman_prefix(rng)) for _ in range(20)]
    phis += [density(exact_density_table(rng)) for _ in range(20)]
    checked = 0
    for f in funcs:
        for phi in phis:
            br = float(variation_bruteforce(f, phi))
            gr = float(variation_greedy(f, phi))
            up = float(variation_upper_bound(f, phi))
            if abs(gr - br) > 1e-9 * max(br, 1.0) or br > up * (1 + 1e-12):
                return CriterionResult(2, "variation oracle agreement", False,
                                       time.time() - t0,
                                       f"greedy={gr} brute={br} upper={up} for {phi!r}")
            checked += 1
    return CriterionResult(2, "variation oracle agreement", True, time.time() - t0,
                           f"{checked} (function, submeasure) pairs")


def criterion_3_jordan_reduction(scale: float = 1.0) -> CriterionResult:
    """Unit weights: abv norm == |f(0)| + Jordan variation, exactly."""
    t0 = time.time()
    rng = random.Random(SEED + 3)
    for _ in range(int(100 * scale)):
        f = random_function(rng, exact=True)
        lhs = abv_norm(f, ones_weights(max(f.segments, 1)))
        rhs = abs(f.values[0]) + jordan_variation(f)
        if lhs != rhs:
            return CriterionResult(3, "all-ones weights give the Jordan variation",
                                   False, time.time() - t0, f"{lhs} != {rhs}")
    return CriterionResult(3, "all-ones weights give the Jordan variation", True,
                           time.time() - t0, "100 exact identities")


def criterion_4_modulus(scale: float = 1.0) -> CriterionResult:
    """Modulus DP == exhaustive enumeration; nondecreasing + concave; v(B) = Jordan."""
    t0 = time.time()
    rng = random.Random(SEED + 4)
    for _ in range(int(150 * scale)):
        f = random_function(rng, max_b=8, exact=True)
        v = modulus_of_variation(f)        # construction validates shape invariants
        w = modulus_by_enumeration(f)
        if v.values != w.values:
            return CriterionResult(4, "modulus of variation DP vs enumeration", False,
                                   time.time() - t0, f"{v.values} != {w.values}")
        if v.values[-1] != jordan_variation(f):
            return CriterionResult(4, "modulus of variation DP vs enumeration", False,
                                   time.time() - t0, "v(B) != Jordan variation")
    return CriterionResult(4, "modulus of variation DP vs enumeration", True,
                           time.time() - t0, "150 functions, exact")


def criterion_5_order_soundness(scale: float = 1.0) -> CriterionResult:
    """Density bound eta verified on random sequences; partial-sum ratio for
    (1/n vs 1) reaches 1000 at horizon 10^4 and the flat witness violates it."""
    t0 = time.time()
    rng = random.Random(SEED + 5)
    g, h = sqrt_bound(), identity_bound()
    report = preceq_density(g, h, horizon=10 ** 4)
    eta = float(report.bound_estimate)
    phi_g, phi_h = density(g), density(h)
    for _ in range(int(500 * scale)):
        n = rng.randint(1, 200)
        x = np.array([rng.uniform(-5, 5) for _ in range(n)])
        lhs = float(phi_h.truncation_norms(x)[-1])
        rhs = eta * float(phi_g.truncation_norms(x)[-1])
        if lhs > rhs * (1 + 1e-12):
            return CriterionResult(5, "order soundness", False, time.time() - t0,
                                   f"hat_h {lhs} > eta*hat_g {rhs}")
    A, B = harmonic_weights(10 ** 4), ones_weights(10 ** 4)
    rep = preceq_m_summable(A, B, cap=10 ** 3)
    if rep.verdict != "violated-by-witness" or float(rep.bound_estimate) < 10 ** 3:
        return CriterionResult(5, "order soundness", False, time.time() - t0,
                               f"partial-sum bound {rep.bound_estimate} below 1000")
    n_star = rep.details["argmax"]
    flat = rep.witness.entries
    ratio = float(hat_norm(summable(B), flat)) / float(hat_norm(summable(A), flat))
    if ratio < 10 ** 3:
        return CriterionResult(5, "order soundness", False, time.time() - t0,
                               f"flat witness ratio {ratio} below the cap")
    return CriterionResult(5, "order soundness", True, time.time() - t0,
                           f"eta={eta}, partial-sum bound {float(rep.bound_estimate):.1f} "
                           f"at n={n_star}, witness ratio {ratio:.1f}")


def criterion_6_katetov(scale: float = 1.0) -> CriterionResult:
    """Two-pointer == exhaustive scan on 50 random pairs (N = 1000); the
    greedy partition for (a=1, b=1/n, m=1/2, M=2) runs through 100 blocks."""
    t0 = time.time()
    rng = random.Random(SEED + 6)
    N = 10 ** 3
    for _ in range(int(50 * scale)):
        a = _random_float_weights(rng, N)
        b = _random_float_weights(rng, N)
        M = rng.choice((0.5, 1.0, 2.0, 5.0))
        fast = katetov_scan(a, b, M)
        slow = _katetov_exhaustive(a, b, M)
        fast_pair = fast.witness if fast.verdict == "violated-by-witness" else None
        if fast_pair != slow:
            return CriterionResult(6, "Katetov scan and partition", False,
                                   time.time() - t0, f"two-pointer {fast_pair} vs exhaustive {slow}")
    part = katetov_partition_build(ones_weights(4), harmonic_weights(10 ** 4),
                                   Fraction(1, 2), 2, max_blocks=100)
    if len(part.intervals) < 100:
        return CriterionResult(6, "Katetov scan and partition", False, time.time() - t0,
                               f"partition stopped after {len(part.intervals)} blocks "
                               f"({part.failure_reason})")
    for n, s in enumerate(part.block_sums, start=1):
        if not (0.5 - 1e-9) <= float(s) <= (2 + 1e-9):
            return CriterionResult(6, "Katetov scan and partition", False, time.time() - t0,
                                   f"block {n} sum {float(s)} outside [1/2, 2]")
    return CriterionResult(6, "Katetov scan and partition", True, time.time() - t0,
                           f"50 scans agree; {len(part.intervals)} blocks, "
                           f"deepest end {part.intervals[-1][1]:.3e}")


def _random_float_weights(rng, n) -> WatermanWeights:
    vals, cur = [], rng.uniform(0.5, 3.0)
    for _ in range(n):
        vals.append(cur)
        cur *= rng.uniform(0.9, 1.0)
    return WatermanWeights(vals, form="table")


def _katetov_exhaustive(A: WatermanWeights, B: WatermanWeights, M):
    """O(N^2) oracle: lexicographically first (k, l) violating the criterion."""
    a = np.array([float(v) for v in A.values])
    b = np.array([float(v) for v in B.values])
    asum, bsum = np.cumsum(a), np.cumsum(b)
    for k in range(1, len(a) + 1):
        mask = (bsum[k - 1] >= M * asum) & (b[k - 1] > M * a)
        hits = np.nonzero(mask)[0]
        if len(hits):
            return (k, int(hits[0]) + 1)
    return None


def criterion_7_zigzag_identity(scale: float = 1.0) -> CriterionResult:
    """Brute-force variation of the zig-zag of x equals the hat-norm of x."""
    t0 = time.time()
    rng = random.Random(SEED + 7)
    for i in range(int(50 * scale)):
        x = rational_sequence(rng, max_len=6, monotone=True)
        phi = counting() if i % 2 == 0 else summable(waterman_prefix(rng, 8))
        f, cert = zigzag_from_sequence(x, phi)
        target = hat_norm(phi, tuple(abs(v) for v in x))
        if not cert.all_passed or cert.details["variation"] != target:
            return CriterionResult(7, "zig-zag variation identity", False,
                                   time.time() - t0, f"failed for x={x}, {phi!r}")
    return CriterionResult(7, "zig-zag variation identity", True, time.time() - t0,
                           "50 exact identities")


def criterion_8_separation(scale: float = 1.0) -> CriterionResult:
    """Square-root profile vs harmonic weights at horizon 10^6, depth 3."""
    t0 = time.time()
    cert = separating_sequence(harmonic_weights(16), sqrt_bound(), i_max=3,
                               horizon=10 ** 6)
    if not cert.all_passed:
        failing = [c.name for c in cert.checks if not c.passed]
        return CriterionResult(8, "density/weighted-sum separation", False,
                               time.time() - t0, f"failed checks: {failing}")
    return CriterionResult(8, "density/weighted-sum separation", True, time.time() - t0,
                           f"n_i={cert.details['n_i']}")


def criterion_9_reproductions(scale: float = 1.0) -> CriterionResult:
    """Unit hat == sup norm, counting hat == l1 sum; permutation invariance
    of the brute-force variation on 20 random triples."""
    t0 = time.time()
    rng = random.Random(SEED + 9)
    u, c = unit(), counting()
    for _ in range(int(100 * scale)):
        x = rational_sequence(rng)
        if hat_norm(u, x) != max(abs(v) for v in x):
            return CriterionResult(9, "example reproductions", False, time.time() - t0,
                                   f"unit hat != sup norm at {x}")
        if hat_norm(c, x) != sum(abs(v) for v in x):
            return CriterionResult(9, "example reproductions", False, time.time() - t0,
                                   f"counting hat != l1 at {x}")
    for i in range(int(20 * scale)):
        f = random_function(rng, max_b=8, exact=True)
        phi = [unit(), counting(), summable(waterman_prefix(rng)),
               density(exact_density_table(rng)),
               shift_normalize(summable(waterman_prefix(rng)))][i % 5]
        cert = permuted_equivalence_demo(phi, random_permutation(rng, 8), f)
        if not cert.all_passed:
            return CriterionResult(9, "example reproductions", False, time.time() - t0,
                                   f"permutation invariance failed for {phi!r}")
    return CriterionResult(9, "example reproductions", True, time.time() - t0,
                           "sup/l1 identities and 20 permutation triples")


def criterion_10_norm_axioms(scale: float = 1.0) -> CriterionResult:
    """Homogeneity exact, triangle within 1e-12, zero norm only at zero, for
    both the sequence hat-norm and the function norm."""
    t0 = time.time()
    rng = random.Random(SEED + 10)
    count = int(500 * scale)
    for i in range(count):
        phi, needs_mono = _variant_pool(rng)[i % 10]
        x = rational_sequence(rng, monotone=needs_mono)
        y = tuple(rational_sequence(rng, max_len=len(x), monotone=needs_mono))
        y = y + (0,) * (len(x) - len(y))
        scalar = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if hat_norm(phi, tuple(scalar * v for v in x)) != abs(scalar) * hat_norm(phi, x):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"hat homogeneity failed for {phi!r}")
        lhs = float(hat_norm(phi, tuple(a + b for a, b in zip(x, y))))
        rhs = float(hat_norm(phi, x)) + float(hat_norm(phi, y))
        if lhs > rhs + 1e-12 * max(rhs, 1.0):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"hat triangle failed for {phi!r}")
        if (hat_norm(phi, x) == 0) != all(v == 0 for v in x):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"hat definiteness failed for {phi!r}")
    for i in range(count):
        f = random_function(rng, max_b=4, exact=True)
        g = random_function(rng, max_b=4, exact=True)
        phi = [counting(), unit(), summable(waterman_prefix(rng)),
               density(exact_density_table(rng))][i % 4]
        scalar = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if bv_norm(pl_scale(f, scalar), phi) != abs(scalar) * bv_norm(f, phi):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"bv homogeneity failed for {phi!r}")
        lhs = float(bv_norm(pl_add(f, g), phi))
        rhs = float(bv_norm(f, phi)) + float(bv_norm(g, phi))
        if lhs > rhs + 1e-12 * max(rhs, 1.0):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"bv triangle failed for {phi!r}")
        if (bv_norm(f, phi) == 0) != all(v == 0 for v in f.values):
            return CriterionResult(10, "norm axioms", False, time.time() - t0,
                                   f"bv definiteness failed for {phi!r}")
    return CriterionResult(10, "norm axioms", True, time.time() - t0,
                           f"{2 * count} instances")


ALL_CRITERIA = (
    criterion_1_oracle_agreement,
    criterion_2_variation_oracle,
    criterion_3_jordan_reduction,
    criterion_4_modulus,
    criterion_5_order_soundness,
    criterion_6_katetov,
    criterion_7_zigzag_identity,
    criterion_8_separation,
    criterion_9_reproductions,
    criterion_10_norm_axioms,
)


def run_all(fast: bool = False, stream=None):
    """Run every acceptance criterion; returns the list of results."""
    scale = 0.1 if fast else 1.0
    results = []
    for crit in ALL_CRITERIA:
        res = crit(scale)
        results.append(res)
        if stream is not None:
            stream(res.line())
    return results
