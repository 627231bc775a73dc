"""Workload ``horizon``: order scans, certificates and constructions at large horizons.

Every op is one in-process ``gbv.cli.main`` call of ``compare``, ``certify`` or
``construct`` on descriptor and sequence files, with horizons from 2048 to
10^6.  The order scans, certificate curves, constructions, descriptor parsing
and JSON reports of 10^4 and more numbers do the work; the oracle and the
interval-family enumeration do none.  Exact-rail ops pass ``--exact`` and
carry only ints and Fractions (the Fraction scan of ``preceq`` between two
density profiles, ``criterion_c``, the density witnesses, ``exh-not-fin``,
``zigzag``); float-rail ops run on float sequences or float weights
(``certify``, ``separating``, ``katetov``, ``preceq`` and ``preceq_m`` of
power weights).  Every round runs the same ops.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np

from harness import EXACT, FLOAT, REPORT_REL, Op, report_number, run_cli
from inputs import (
    density_prefix_hat,
    density_set_value,
    frac_str,
    g_identity,
    g_log,
    g_sqrt,
)



def _read_lines(path):
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


class HorizonWorkload:
    name = "horizon"
    pool_rounds = 1

    def __init__(self, seed: int, workdir):
        self.rng = rng = random.Random(seed)
        self.workdir = workdir
        d = self._desc
        sqrt, ident, log = (d("sqrt", {"type": "density", "form": "power", "param": "1/2"}),
                            d("identity", {"type": "density", "form": "power", "param": "1"}),
                            d("log", {"type": "density", "form": "log"}))
        harmonic = d("harmonic", {"type": "summable", "form": "harmonic", "horizon": 4096})
        harmonic16 = d("harmonic16", {"type": "summable", "form": "harmonic", "horizon": 16})
        harmonic2048 = d("harmonic2048", {"type": "summable", "form": "harmonic", "horizon": 2048})
        counting = d("counting", {"type": "counting"})
        c, shift = rng.randint(1, 5), rng.randint(0, 3)
        b_table = [Fraction(c, n + shift) for n in range(1, 2049)]
        table2048 = d("table2048", {"type": "summable", "form": "table",
                                    "table": [frac_str(v) for v in b_table]})
        ones = d("ones", {"type": "summable", "form": "table", "table": [1] * 4096,
                          "declared_divergent": True})
        q = round(rng.uniform(0.55, 0.9), 4)
        power = d("power", {"type": "summable", "form": "power", "param": q, "horizon": 4096})

        h1 = 30000 + rng.randint(0, 2000)
        cap2 = rng.randint(70, 74)
        h4 = 9500 + rng.randint(0, 200)
        index6 = 5000 + rng.randint(0, 200)
        level_m = rng.randint(2, 5)
        seq_harm = self._sequence("seq-harmonic.csv", 20000)
        seq_sqrt = self._sequence("seq-sqrt.csv", 6000)
        zig = sorted((rng.randint(1, 10 ** 6) for _ in range(600)), reverse=True)
        zig_path = os.path.join(workdir, "zigzag-seq.csv")
        with open(zig_path, "w") as fh:
            fh.write("".join(f"{v}\n" for v in zig))
        out = {k: os.path.join(workdir, f"object-{k}.csv") for k in ("zigzag", "separating")}

        def cli(kind, rail, argv, rc=0, **meta):
            if rail == EXACT:
                argv = argv + ["--exact"]
            return Op(kind, rail, lambda: run_cli(argv), expect_rc=rc, meta=meta)

        self.ops = [
            cli("compare.preceq.density", EXACT,
                ["compare", "--relation", "preceq", "--a", sqrt, "--b", log, "--horizon", str(h1)],
                check="preceq_density", g=g_sqrt, h=g_log, horizon=h1),
            cli("compare.preceq.density_witness", EXACT,
                ["compare", "--relation", "preceq", "--a", ident, "--b", sqrt,
                 "--horizon", "20000", "--cap", str(cap2)], rc=2,
                check="preceq_density", g=g_identity, h=g_sqrt, horizon=20000, cap=cap2),
            cli("compare.preceq_m.exact", EXACT,
                ["compare", "--relation", "preceq_m", "--a", harmonic2048, "--b", table2048],
                check="preceq_m", a=[Fraction(1, n) for n in range(1, 2049)], b=b_table),
            cli("compare.criterion_c", EXACT,
                ["compare", "--relation", "criterion_c", "--a", ident, "--b", sqrt,
                 "--horizon", str(h4), "--cap", "2"], rc=2,
                check="witness_set", phi1=g_identity, phi2=g_sqrt, low=Fraction(1, 2),
                high=2),
            cli("construct.density_set", EXACT,
                ["construct", "--kind", "density-set", "--g", ident, "--h", sqrt,
                 "--level", "2", "--search-bound", "100000"],
                check="witness_set", phi1=g_identity, phi2=g_sqrt, low=Fraction(1, 4),
                high=4),
            cli("construct.density_witness", EXACT,
                ["construct", "--kind", "density-witness", "--g", sqrt, "--h", log,
                 "--index", str(index6)],
                check="density_witness", g=g_sqrt, h=g_log, n=index6),
            cli("construct.exh_not_fin", EXACT,
                ["construct", "--kind", "exh-not-fin", "--phi1", ident, "--phi2", counting,
                 "--depth", "2", "--search-len", "1024"],
                check="exh_not_fin"),
            cli("construct.zigzag", EXACT,
                ["construct", "--kind", "zigzag", "--sequence", zig_path,
                 "--object-out", out["zigzag"]],
                check="zigzag", x=zig, path=out["zigzag"]),
            cli("certify.harmonic", FLOAT,
                ["certify", "--submeasure", harmonic, "--sequence", seq_harm[0]],
                check="certify", x=seq_harm[1], weights=1.0 / np.arange(1, len(seq_harm[1]) + 1)),
            cli("certify.density_sqrt", FLOAT,
                ["certify", "--submeasure", sqrt, "--sequence", seq_sqrt[0]],
                check="certify", x=seq_sqrt[1], g=g_sqrt),
            cli("construct.separating", FLOAT,
                ["construct", "--kind", "separating", "--weights", harmonic16, "--g", sqrt,
                 "--depth", "3", "--horizon", str(10 ** 6), "--object-out", out["separating"]],
                check="separating", path=out["separating"], depth=3),
            cli("compare.katetov", FLOAT,
                ["compare", "--relation", "katetov", "--a", power, "--b", ones,
                 "--cap", str(level_m), "--horizon", "4096"], rc=2,
                check="katetov", q=q, M=float(level_m)),
            cli("compare.preceq.summable", FLOAT,
                ["compare", "--relation", "preceq", "--a", harmonic, "--b", power],
                check="preceq_summable", q=q),
            cli("compare.preceq_m.float", FLOAT,
                ["compare", "--relation", "preceq_m", "--a", harmonic, "--b", power],
                check="preceq_m_float", q=q),
        ]
        self.warmup = [
            cli("warmup.preceq", EXACT, ["compare", "--relation", "preceq", "--a", sqrt,
                                         "--b", log, "--horizon", "100"]),
            cli("warmup.certify", FLOAT, ["certify", "--submeasure", harmonic,
                                          "--sequence", seq_sqrt[0]]),
        ]

    def _desc(self, name, desc):
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        return path

    def _sequence(self, name, length):
        """Float sequence |x_n| ~ n^-p with seeded noise and signs, as a CSV."""
        rng = self.rng
        p = rng.uniform(0.3, 0.9)
        x = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) * n ** -p
             for n in range(1, length + 1)]
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write("".join(f"{v!r}\n" for v in x))
        return path, np.array(x)

    def signature(self, r: int):
        return 0

    def round_ops(self, r: int):
        return self.ops

    def check_round(self, ops, outputs, skip=()):
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if i in skip:
                continue
            msg = CHECKS[op.meta["check"]](op.meta, out.report()["result"])
            if msg:
                yield i, msg


# ---------------------------------------------------------------------------
# Checks: each takes the op's meta and the report's "result" and returns an
# error message or None.
# ---------------------------------------------------------------------------


def _violated(res, expected: bool):
    got = res["verdict"] == "violated-by-witness"
    if got != expected:
        return f"verdict {res['verdict']}"
    return None


def check_preceq_density(meta, res):
    g, h = meta["g"], meta["h"]
    best_g, best_h = 0, 1
    for n in range(1, meta["horizon"] + 1):
        gn, hn = g(n), h(n)
        if gn * best_h > best_g * hn:
            best_g, best_h = gn, hn
    bound = report_number(res["bound_estimate"])
    if bound != Fraction(best_g, best_h):
        return f"bound {bound} != max g/h = {Fraction(best_g, best_h)}"
    cap = meta.get("cap")
    msg = _violated(res, cap is not None)
    if msg or cap is None:
        return msg
    w = [report_number(v) for v in res["witness"]["sequence"]]
    if density_prefix_hat(g, w) > 1:
        return "witness has g-norm above 1"
    if density_prefix_hat(h, w) < cap:
        return f"witness h-norm below the cap {cap}"
    return None


def check_preceq_m(meta, res):
    asum = bsum = Fraction(0)
    best = Fraction(0)
    for a, b in zip(meta["a"], meta["b"]):
        asum += a
        bsum += b
        if bsum / asum > best:
            best = bsum / asum
    bound = report_number(res["bound_estimate"])
    if bound != best:
        return f"bound {bound} != max partial-sum ratio {best}"
    return _violated(res, False)


def check_witness_set(meta, res):
    F = res["witness"]["set"] if "witness" in res else res["object"]["set"]
    v1, v2 = density_set_value(meta["phi1"], F), density_set_value(meta["phi2"], F)
    if not v1 <= meta["low"]:
        return f"phi1(F) = {v1} above {meta['low']}"
    if not v2 >= meta["high"]:
        return f"phi2(F) = {v2} below {meta['high']}"
    return None


def check_density_witness(meta, res):
    g, h, n = meta["g"], meta["h"], meta["n"]
    w = [report_number(v) for v in res["object"]["sequence"]]
    if len(w) != n:
        return f"witness has {len(w)} entries, expected {n}"
    s = max(Fraction(m, g(m)) for m in range(1, n + 1))
    if density_prefix_hat(g, w) > 1:
        return "witness has g-norm above 1"
    if density_prefix_hat(h, w) < Fraction(n) / (s * h(n)):
        return "witness h-norm below n / (s h(n))"
    return None


def check_exh_not_fin(meta, res):
    x = [report_number(v) for v in res["object"]["sequence"]]
    blocks = res["details"]["blocks"]
    if not blocks:
        return "no blocks"
    for b in blocks:
        start, end, n_k = b["start"], b["end"], b["n_k"]
        block = x[start - 1:end]
        best, prefix = Fraction(0), Fraction(0)
        for m, v in enumerate(block, start=start):
            prefix += abs(v)
            best = max(best, prefix / m)
        if best != Fraction(1, 2 ** n_k):
            return f"block {b['k']}: identity-density norm {best} != 2^-{n_k}"
        if sum(abs(v) for v in block) < 2 ** n_k:
            return f"block {b['k']}: counting norm below 2^{n_k}"
    return None


def check_zigzag(meta, res):
    rows = [line.split(",") for line in _read_lines(meta["path"])]
    t = [Fraction(a) for a, _ in rows]
    f = [Fraction(b) for _, b in rows]
    x = meta["x"]
    K = len(x)
    if t != [Fraction(0)] + [Fraction(1, 2 ** k) for k in range(K, 0, -1)] + [Fraction(1)]:
        return "breakpoints are not 0, 2^-K, ..., 1/2, 1"
    at = {tk: fk for tk, fk in zip(t, f)}
    if at[Fraction(1)] != 0 or at[Fraction(0)] != at[Fraction(1, 2 ** K)]:
        return "f(1) != 0 or f(0) != f(2^-K)"
    for k in range(K):
        osc = abs(at[Fraction(1, 2 ** k)] - at[Fraction(1, 2 ** (k + 1))])
        if osc != abs(x[k]):
            return f"oscillation on [2^-{k + 1}, 2^-{k}] is {osc}, expected |x_{k + 1}| = {x[k]}"
    return None


def check_certify(meta, res):
    T = np.array(res["fin"]["truncation_norms"])
    L = np.array(res["exh"]["tail_norms"])
    x = np.abs(meta["x"])
    if len(T) != len(x) or len(L) != len(x):
        return "curve lengths differ from the sequence length"
    slack = REPORT_REL * np.maximum(1.0, np.abs(T[:-1]))
    if np.any(T[1:] < T[:-1] - slack):
        return "truncation curve decreases"
    if np.any(L[1:] > L[:-1] + REPORT_REL * np.maximum(1.0, np.abs(L[:-1]))):
        return "tail curve increases"
    if abs(L[0] - T[-1]) > 1e-9 * max(1.0, abs(T[-1])):
        return f"tail at cut 1 ({L[0]}) != last truncation value ({T[-1]})"
    if "weights" in meta:
        own = math.fsum(meta["weights"] * x)
    else:
        g = np.array([meta["g"](n) for n in range(1, len(x) + 1)], dtype=float)
        own = float(np.max(np.cumsum(x) / g))
    if abs(T[-1] - own) > 1e-9 * max(1.0, abs(own)):
        return f"last truncation value {T[-1]} != own {own}"
    return None


def _g_sqrt_array(n: int) -> np.ndarray:
    m = np.arange(n, dtype=np.int64)            # m = k - 1 for k = 1..n
    r = np.floor(np.sqrt(m.astype(float))).astype(np.int64)
    r[r * r > m] -= 1
    r[(r + 1) * (r + 1) <= m] += 1
    return (r + 1).astype(float)


def check_separating(meta, res):
    y = np.array([float(v) for v in _read_lines(meta["path"])])
    details = res["details"]
    n_list, cap = details["n_i"], details["cap"]
    if len(n_list) != meta["depth"] + 1 or len(y) != n_list[-1]:
        return "sequence length or n_i list does not match the depth"
    if np.any(y[1:] > y[:-1]):
        return "sequence is not monotone"
    norms = np.maximum.accumulate(np.cumsum(y) / _g_sqrt_array(len(y)))
    for i in range(1, meta["depth"] + 1):
        if norms[n_list[i] - 1] < (i + 1) / 2:
            return f"density norm up to n_{i + 1} below {(i + 1) / 2}"
    partial = math.fsum(y / np.arange(1, len(y) + 1))
    if partial > cap * (1 + REPORT_REL):
        return f"weighted partial sum {partial} above the cap {cap}"
    return None


def check_katetov(meta, res):
    """Own scan by bisection: for each k, the first l with M a_l < b_k and the
    last l with M (a_1 + ... + a_l) <= b_1 + ... + b_k."""
    M = meta["M"]
    N = 4096
    a = [float(n) ** (-meta["q"]) for n in range(1, N + 1)]
    b = [1.0] * N
    scaled = [M * s for s in accumulate(a)]
    bsum = list(accumulate(b))
    neg_a = [-v for v in a]
    pair = None
    for k in range(1, N + 1):
        bk = b[k - 1]
        l_weak = bisect.bisect_right(scaled, bsum[k - 1])
        l_strict = bisect.bisect_right(neg_a, -bk / M) + 1
        while l_strict > 1 and M * a[l_strict - 2] < bk:
            l_strict -= 1
        while l_strict <= N and not M * a[l_strict - 1] < bk:
            l_strict += 1
        if l_strict <= l_weak:
            pair = [k, l_strict]
            break
    got = res["witness"]["pair"] if res["witness"] else None
    if got != pair:
        return f"first violating pair {got}, own scan {pair}"
    return None


def check_preceq_summable(meta, res):
    n = np.arange(1, 4097, dtype=float)
    own = float(np.max(n ** (-meta["q"]) / (1.0 / n)))
    if abs(res["bound_estimate"] - own) > REPORT_REL * max(1.0, own):
        return f"bound {res['bound_estimate']} != own max b/a {own}"
    return _violated(res, False)


def check_preceq_m_float(meta, res):
    n = np.arange(1, 4097, dtype=float)
    own = float(np.max(np.cumsum(n ** (-meta["q"])) / np.cumsum(1.0 / n)))
    if abs(res["bound_estimate"] - own) > 1e-9 * max(1.0, own):
        return f"bound {res['bound_estimate']} != own max partial-sum ratio {own}"
    return _violated(res, False)


CHECKS = {
    "preceq_density": check_preceq_density,
    "preceq_m": check_preceq_m,
    "witness_set": check_witness_set,
    "density_witness": check_density_witness,
    "exh_not_fin": check_exh_not_fin,
    "zigzag": check_zigzag,
    "certify": check_certify,
    "separating": check_separating,
    "katetov": check_katetov,
    "preceq_summable": check_preceq_summable,
    "preceq_m_float": check_preceq_m_float,
}
