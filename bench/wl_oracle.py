"""Workload ``oracle``: the exact LP hat-norm oracle against every submeasure variant.

Each round calls ``hat_norm_oracle`` on four new seeded sequences per variant,
with supports of 12 (``ORACLE_MAX_LEN``), 10, 9 and 8 coordinates (10, 9, 8
and 7 for ``max_with_unit``); one of the four has float entries (a quarter of
the ops), which the oracle turns into large-denominator Fractions.  For the
two ``max_with_unit`` variants, whose ``hat_norm`` is the oracle itself, each
sequence is also run scaled by a seeded constant.  The subset table, the
simplex with its certification scan, and ``set_value`` do nearly all the work.

The number of constraint-generation rounds, and with it the cost of an op,
depends on the values, so each round of the pool has its own sequences, and a
run times whole passes over the pool: the same sequences for a given seed,
however fast the code is.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gbv import oracle as O
from gbv import submeasure as S

from harness import EXACT, FLOAT, Op, rel_close
from inputs import density_table, permutation, weight_table

SIZES = (12, 10, 9, 8)
# The max_with_unit LP needs 5 to 27 constraint-generation rounds at support 12
# (cost 0.3x to 2x its mean); smaller supports keep that spread from
# dominating a run.
MAX_UNIT_SIZES = (10, 9, 8, 7)
# One pass over the pool takes about 13 s on a 2-core machine at 2.1 GHz.
POOL_ROUNDS = 4
FLOAT_REL = 1e-9


def _variants(rng):
    """(label, phi, needs monotone input, base of a max_with_unit wrapper or None).

    Density-backed closed forms equal the oracle on nonincreasing |x| only, so
    they get monotone input.
    """
    n = O.ORACLE_MAX_LEN
    # Fixed weights 3/(i+4) < 1: the unit part binds on small sets, the
    # weighted sum on large ones.
    mwu_sum_base = S.summable([Fraction(3, i + 4) for i in range(1, n + 1)])
    mwu_den_base = S.density(S.sqrt_bound())
    return [
        ("unit", S.unit(), False, None),
        ("counting", S.counting(), False, None),
        ("summable", S.summable(weight_table(rng, n)), False, None),
        ("shifted_summable", S.shift_normalize(S.summable(weight_table(rng, n))), False, None),
        ("permuted_summable", S.permuted(S.summable(weight_table(rng, n)), permutation(rng, n)),
         False, None),
        ("density_table", S.density(density_table(rng, n)), True, None),
        ("density_sqrt", S.density(S.sqrt_bound()), True, None),
        ("density_log", S.density(S.log_bound()), True, None),
        ("density_identity", S.density(S.identity_bound()), True, None),
        ("shifted_density_table", S.shift_normalize(S.density(density_table(rng, n))), True, None),
        ("max_unit_summable", S.max_with_unit(mwu_sum_base), False, mwu_sum_base),
        ("max_unit_density_sqrt", S.max_with_unit(mwu_den_base), True, mwu_den_base),
    ]


def _sequence(rng, k: int, exact: bool, monotone: bool) -> tuple:
    if exact:
        vals = [Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(k)]
    else:
        vals = [rng.uniform(0.05, 6.0) for _ in range(k)]
    if monotone:
        vals.sort(reverse=True)
    return tuple(v if rng.random() < 0.7 else -v for v in vals)


def _scale(rng, exact: bool):
    """Exact rail: a seeded rational.  Float rail: a signed power of two, which
    scales a float exactly, so homogeneity must hold exactly there too."""
    if exact:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return rng.choice((-1.0, 1.0)) * 2.0 ** rng.randint(-3, 3)


def _oracle_op(label, phi, x, exact, **meta):
    return Op("oracle." + label, EXACT if exact else FLOAT,
              lambda: O.hat_norm_oracle(phi, x),
              meta=dict(phi=phi, x=x, exact=exact, **meta))


class OracleWorkload:
    name = "oracle"
    pool_rounds = POOL_ROUNDS

    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        variants = _variants(rng)
        self.pool = [self._round(rng, variants) for _ in range(POOL_ROUNDS)]
        self.warmup = [_oracle_op(label, phi, _sequence(rng, 5, exact, mono), exact, base=base)
                       for label, phi, mono, base in variants for exact in (True, False)]

    @staticmethod
    def _round(rng, variants):
        ops = []
        for j, (label, phi, mono, base) in enumerate(variants):
            for slot, k in enumerate(MAX_UNIT_SIZES if base is not None else SIZES):
                exact = slot != j % len(SIZES)
                x = _sequence(rng, k, exact, mono)
                ops.append(_oracle_op(label, phi, x, exact, base=base))
                if base is not None:
                    c = _scale(rng, exact)
                    ops.append(_oracle_op(label + ".scaled", phi, tuple(c * v for v in x),
                                          exact, of=len(ops) - 1, c=c))
        return ops

    def signature(self, r: int):
        return r % POOL_ROUNDS

    def round_ops(self, r: int):
        return self.pool[r % POOL_ROUNDS]

    def check_round(self, ops, outputs, skip=()):
        for i, (op, v) in enumerate(zip(ops, outputs)):
            if i in skip:
                continue
            msg = _check(op.meta, v, outputs, skip)
            if msg:
                yield i, msg


def _check(meta, v, outputs, skip):
    phi, x, exact = meta["phi"], meta["x"], meta["exact"]
    if exact and type(v) is not Fraction:
        return f"exact input gave {type(v).__name__}"
    if not exact and type(v) is not float:
        return f"float input gave {type(v).__name__}"
    if "of" in meta:
        if meta["of"] in skip:
            return None
        want = abs(meta["c"]) * outputs[meta["of"]]
        return None if v == want else f"homogeneity: {v} != |{meta['c']}| * {outputs[meta['of']]}"
    base = meta["base"]
    if base is None:
        want = S.hat_norm(phi, x)
        ok = v == want if exact else rel_close(v, want, FLOAT_REL)
        return None if ok else f"oracle {v} != closed form {want}"
    lower = max(S.hat_norm(base, x), max(abs(e) for e in x))
    upper = sum(phi.set_value((i,)) * abs(e) for i, e in enumerate(x, start=1))
    slack = 0 if exact else FLOAT_REL * max(1.0, abs(float(upper)))
    if not lower - slack <= v:
        return f"oracle {v} below lower bound {lower}"
    if not v <= upper + slack:
        return f"oracle {v} above upper bound {upper}"
    return None
