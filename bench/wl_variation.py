"""Workload ``variation``: variation functionals of piecewise-linear functions.

One round takes eight new seeded functions, four exact (6, 7, 8 and 9
segments, Fraction values) and four float (7, 8, 9 and 10 segments), and runs
each one, one function at a time, against five submeasures (weighted sum,
density table, unit, counting, shifted weighted sum) through
``variation_bruteforce``, ``variation_greedy``, ``variation_upper_bound``,
``modulus_of_variation`` and ``modulus_by_enumeration``.  Two more functions
per round go through ``gbv variation`` in process, from CSV and JSON files.

Interval-family enumeration and the per-family ``hat`` dominate.  Exact
functions take the per-family Fraction path, float functions the vectorized
numpy path.  The profile cache in ``variation.py`` is warm across one
function's submeasures and cold at each new function: every function of the
pool is new, and the run clears the profile caches at the start of each pass
over the pool.  No submeasure here calls the oracle.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from gbv import submeasure as S
from gbv import variation as V

from harness import (EXACT, FLOAT, REPORT_REL, CliOutput, Op, rel_close, report_number,
                     run_cli)
from inputs import density_table, frac_str, jordan, weight_table

# One pass over the pool takes about 12 s on a 2-core machine at 2.1 GHz.
POOL_ROUNDS = 8
EXACT_SEGMENTS = (6, 7, 8, 9)
FLOAT_SEGMENTS = (7, 8, 9, 10)
CLI_SEGMENTS = {EXACT: 7, FLOAT: 9}
PHI_LABELS = ("summable", "density", "unit", "counting", "shifted")
# Variants with the prefix-monotone guarantee: greedy <= brute <= upper.
ORDERED = ("summable", "density", "counting", "shifted")
FLOAT_REL = 1e-9


def _function(rng, segments: int, exact: bool) -> V.PiecewiseLinearFunction:
    """Breakpoints on the 1/256 grid.  Exact values are small Fractions; float
    values are multiples of 2^-10, so the same function in Fractions is exact."""
    cuts = sorted(rng.sample(range(1, 256), segments - 1))
    if exact:
        bps = [0] + [Fraction(c, 256) for c in cuts] + [1]
        vals = [Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(segments + 1)]
    else:
        bps = [0.0] + [c / 256 for c in cuts] + [1.0]
        vals = [rng.randint(-6144, 6144) / 1024 for _ in range(segments + 1)]
    return V.PiecewiseLinearFunction(tuple(bps), tuple(vals))


def _as_fractions(f):
    return V.PiecewiseLinearFunction(tuple(Fraction(t) for t in f.breakpoints),
                                     tuple(Fraction(v) for v in f.values))


def _write_function_csv(path, f):
    with open(path, "w") as fh:
        for t, y in zip(f.breakpoints, f.values):
            if isinstance(y, Fraction) or isinstance(t, Fraction):
                fh.write(f"{frac_str(t)},{frac_str(y)}\n")
            else:
                fh.write(f"{t!r},{y!r}\n")


def _descriptors(rng):
    """(label, descriptor) pairs for the CLI ops: exact-rail and float-rail."""
    exact = [
        ("summable_table", {"type": "summable", "form": "table",
                            "table": [frac_str(w) for w in weight_table(rng, 16)]}),
        ("density_sqrt", {"type": "density", "form": "power", "param": "1/2"}),
        ("shifted_density_table", {"type": "density", "form": "table",
                                   "table": density_table(rng, 16), "wrap": ["shifted"]}),
        ("counting", {"type": "counting"}),
    ]
    flt = [
        ("summable_power", {"type": "summable", "form": "power",
                            "param": round(rng.uniform(0.55, 0.95), 3), "horizon": 16}),
        ("density_log", {"type": "density", "form": "log"}),
        ("shifted_summable_power", {"type": "summable", "form": "power",
                                    "param": round(rng.uniform(0.55, 0.95), 3),
                                    "horizon": 16, "wrap": ["shifted"]}),
        ("counting", {"type": "counting"}),
    ]
    return {EXACT: exact, FLOAT: flt}


class VariationWorkload:
    name = "variation"
    pool_rounds = POOL_ROUNDS

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.phis = {
            "summable": S.summable(weight_table(rng, 12)),
            "density": S.density(density_table(rng, 12)),
            "unit": S.unit(),
            "counting": S.counting(),
            "shifted": S.shift_normalize(S.summable(weight_table(rng, 12))),
        }
        descriptors = _descriptors(rng)
        self.desc_paths = {}
        for rail, items in descriptors.items():
            for k, (label, desc) in enumerate(items):
                path = os.path.join(workdir, f"phi-{rail}-{k}.json")
                with open(path, "w") as fh:
                    json.dump(desc, fh)
                self.desc_paths[rail, k] = (label, path)
        self.pool = [self._group(rng, workdir, g) for g in range(POOL_ROUNDS)]
        self.warmup = self._warmup(rng, workdir)

    def _group(self, rng, workdir, g):
        ops = []
        fid = 0
        for k, (be, bf) in enumerate(zip(EXACT_SEGMENTS, FLOAT_SEGMENTS)):
            for segments, exact in ((be, True), (bf, False)):
                f = _function(rng, segments, exact)
                # Each float function is also checked against the exact path
                # under one submeasure, in rotation.
                cross = None if exact else PHI_LABELS[(4 * g + k) % len(PHI_LABELS)]
                ops += self._function_ops(f, exact, fid, cross)
                fid += 1
        for rail in (EXACT, FLOAT):
            f = _function(rng, CLI_SEGMENTS[rail], rail == EXACT)
            path = os.path.join(workdir, f"f-{g}-{rail}.csv")
            _write_function_csv(path, f)
            label, desc = self.desc_paths[rail, g % 4]
            argv = ["variation", "--function", path, "--submeasure", desc]
            if rail == EXACT:
                argv.append("--exact")
            ops.append(Op(f"cli.variation.{label}", rail, lambda argv=argv: run_cli(argv),
                          expect_rc=0, meta=dict(fn="cli", f=f, fid=fid, exact=rail == EXACT,
                                                 phi=label)))
            fid += 1
        return ops

    def _warmup(self, rng, workdir):
        """Fills the family-enumeration cache for every segment count used and
        runs each op kind once on small functions."""
        ops = []
        for segments in sorted(set(EXACT_SEGMENTS + FLOAT_SEGMENTS)):
            f = _function(rng, segments, False)
            ops += [Op("warmup", FLOAT, lambda f=f: V.variation_bruteforce(f, self.phis["unit"])),
                    Op("warmup", FLOAT, lambda f=f: V.modulus_by_enumeration(f))]
        ops += self._function_ops(_function(rng, 4, True), True, 0, None)
        ops += self._function_ops(_function(rng, 4, False), False, 1, None)
        for rail in (EXACT, FLOAT):
            path = os.path.join(workdir, f"f-warmup-{rail}.csv")
            _write_function_csv(path, _function(rng, 4, rail == EXACT))
            ops.append(Op("warmup", rail, lambda path=path, rail=rail: run_cli(
                ["variation", "--function", path, "--submeasure", self.desc_paths[rail, 0][1]])))
        return ops

    def _function_ops(self, f, exact, fid, cross):
        rail = EXACT if exact else FLOAT
        ops = []

        def add(fn, label, call):
            ops.append(Op(f"{fn}.{label}" if label else fn, rail, call,
                          meta=dict(fn=fn, f=f, fid=fid, exact=exact, phi=label,
                                    cross=cross == label and fn == "brute")))

        for label in PHI_LABELS:
            add("brute", label, lambda phi=self.phis[label]: V.variation_bruteforce(f, phi))
        for label in ORDERED:
            add("greedy", label, lambda phi=self.phis[label]: V.variation_greedy(f, phi))
        for label in ORDERED + ("unit",):
            add("upper", label, lambda phi=self.phis[label]: V.variation_upper_bound(f, phi))
        add("modulus_dp", None, lambda: V.modulus_of_variation(f))
        add("modulus_enum", None, lambda: V.modulus_by_enumeration(f))
        return ops

    def signature(self, r: int):
        return r % POOL_ROUNDS

    def round_ops(self, r: int):
        return self.pool[r % POOL_ROUNDS]

    def check_round(self, ops, outputs, skip=()):
        # A Fraction function equals its float twin as a cache key, so the
        # exact reference below must not find the float run's cached profiles.
        V._oscillation_profiles.cache_clear()
        V._sorted_profile_matrix.cache_clear()
        by_fid = {}
        for i, op in enumerate(ops):
            by_fid.setdefault(op.meta["fid"], []).append(i)
        for idxs in by_fid.values():
            got = {(ops[i].meta["fn"], ops[i].meta["phi"]): i for i in idxs if i not in skip}
            yield from self._check_function(ops, outputs, got)

    def _check_function(self, ops, outputs, got):
        if not got:
            return
        meta = ops[next(iter(got.values()))].meta
        f, exact = meta["f"], meta["exact"]
        if meta["fn"] == "cli":
            i = got["cli", meta["phi"]]
            msg = _check_cli(outputs[i], f, exact, meta["phi"])
            if msg:
                yield i, msg
            return

        def val(fn, label):
            i = got.get((fn, label))
            return (i, outputs[i]) if i is not None else (None, None)

        def eq(a, b):
            return a == b if exact else rel_close(a, b, FLOAT_REL)

        def le(a, b):
            return a <= b if exact else a <= b + FLOAT_REL * max(1.0, abs(b))

        for (fn, label), i in got.items():
            v = outputs[i]
            if fn in ("brute", "greedy", "upper"):
                if not (isinstance(v, (int, Fraction)) if exact else type(v) is float):
                    yield i, f"{'exact' if exact else 'float'} input gave {type(v).__name__}"
        own_jordan = jordan(f.values)
        for label in ORDERED:
            ig, g = val("greedy", label)
            ib, b = val("brute", label)
            iu, u = val("upper", label)
            if ig is not None and ib is not None and not le(g, b):
                yield ig, f"greedy {g} > brute {b} under {label}"
            if ib is not None and iu is not None and not le(b, u):
                yield iu, f"brute {b} > upper {u} under {label}"
        ib, b = val("brute", "unit")
        if ib is not None and not eq(b, max(f.values) - min(f.values)):
            yield ib, f"unit brute {b} != max f - min f"
        iu, u = val("upper", "unit")
        if ib is not None and iu is not None and not le(b, u):
            yield iu, f"brute {b} > upper {u} under unit"
        ib, b = val("brute", "counting")
        if ib is not None and not eq(b, own_jordan):
            yield ib, f"counting brute {b} != Jordan variation {own_jordan}"
        (idp, dp), (ien, en) = val("modulus_dp", None), val("modulus_enum", None)
        if idp is not None:
            if not eq(dp.values[-1], own_jordan):
                yield idp, f"v(B) {dp.values[-1]} != Jordan variation {own_jordan}"
            if ien is not None and not (len(dp.values) == len(en.values) and all(
                    eq(a, c) for a, c in zip(dp.values, en.values))):
                yield ien, f"modulus DP {dp.values} != enumeration {en.values}"
        for (fn, label), i in got.items():
            if ops[i].meta["cross"]:
                ref = V.variation_bruteforce(_as_fractions(f), self.phis[label])
                if not rel_close(outputs[i], ref, FLOAT_REL):
                    yield i, f"float brute {outputs[i]} != exact brute {ref} under {label}"


def _check_cli(out: CliOutput, f, exact, label):
    res = out.report()["result"]
    var = {k: report_number(v) for k, v in res["variation"].items()}
    own_jordan = jordan(f.values)
    norm, jordan_rep = report_number(res["norm"]), report_number(res["jordan"])
    want_norm = abs(f.values[0]) + var["brute"]

    def eq(a, b):
        return a == b if exact else rel_close(a, b, REPORT_REL)

    if not eq(jordan_rep, own_jordan):
        return f"report jordan {jordan_rep} != own {own_jordan}"
    if not eq(norm, want_norm):
        return f"report norm {norm} != |f(0)| + brute = {want_norm}"
    slack = 0 if exact else REPORT_REL * max(1.0, abs(var["upper"]))
    if not var["greedy"] <= var["brute"] + slack or not var["brute"] <= var["upper"] + slack:
        return f"report greedy/brute/upper out of order: {var}"
    if label == "counting" and not eq(var["brute"], own_jordan):
        return f"counting brute {var['brute']} != Jordan variation {own_jordan}"
    if not eq(report_number(res["modulus_vector"][-1]), own_jordan):
        return "report modulus v(B) != Jordan variation"
    return None
