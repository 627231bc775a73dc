"""Tests of the benchmark itself: every check can fail, and the tracer is sound.

    python3 -m pytest -q bench/test_bench.py

Each corruption test runs one round of a workload, replaces one output with a
wrong value, and asserts that the evaluation counts exactly one failed op.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from gbv import submeasure as S  # noqa: E402
from gbv import variation as V  # noqa: E402

from harness import (REFERENCE_S, CliOutput, Op, OpError, PhaseResult, evaluate,  # noqa: E402
                     run_phase)
from tracing import Tracer, count_families  # noqa: E402
from wl_horizon import HorizonWorkload  # noqa: E402
from wl_oracle import OracleWorkload  # noqa: E402
from wl_variation import VariationWorkload  # noqa: E402


def _round(cls, tmp_path_factory, seed=7):
    wl = cls(seed, str(tmp_path_factory.mktemp(cls.name)))
    phase = run_phase(wl, rounds=1)
    assert evaluate(wl, phase)[:2] == (0, 0), evaluate(wl, phase)[2]
    ops, outputs = phase.first[wl.signature(0)]
    return SimpleNamespace(wl=wl, ops=ops, outputs=outputs, sig=wl.signature(0))


def _failed_with(rnd, index, value):
    outputs = list(rnd.outputs)
    outputs[index] = value
    phase = PhaseResult(first={rnd.sig: (rnd.ops, outputs)})
    failed, check_failures, _ = evaluate(rnd.wl, phase)
    return failed, check_failures


def _find(rnd, pred):
    return next(i for i, op in enumerate(rnd.ops) if pred(op))


def _edit_report(out: CliOutput, edit) -> CliOutput:
    report = json.loads(out.text)
    edit(report["result"])
    return CliOutput(out.rc, json.dumps(report))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_round(tmp_path_factory):
    return _round(OracleWorkload, tmp_path_factory)


def test_oracle_value_off_by_a_thousandth(oracle_round):
    i = _find(oracle_round, lambda op: op.kind == "oracle.summable" and op.meta["exact"])
    assert _failed_with(oracle_round, i, oracle_round.outputs[i] + Fraction(1, 1000)) == (1, 1)


def test_oracle_float_value_off(oracle_round):
    i = _find(oracle_round, lambda op: op.kind == "oracle.density_sqrt" and not op.meta["exact"])
    assert _failed_with(oracle_round, i, oracle_round.outputs[i] * (1 + 1e-6)) == (1, 1)


def test_oracle_exact_input_giving_a_float(oracle_round):
    i = _find(oracle_round, lambda op: op.kind == "oracle.counting" and op.meta["exact"])
    assert _failed_with(oracle_round, i, float(oracle_round.outputs[i])) == (1, 1)


def test_max_with_unit_homogeneity(oracle_round):
    i = _find(oracle_round, lambda op: op.kind == "oracle.max_unit_summable" and op.meta["exact"])
    # The base op stays inside its bounds; its scaled partner then disagrees.
    assert _failed_with(oracle_round, i, oracle_round.outputs[i] + Fraction(1, 1000)) == (1, 1)
    j = _find(oracle_round, lambda op: op.meta.get("of") == i)
    assert _failed_with(oracle_round, j, oracle_round.outputs[j] + Fraction(1, 1000)) == (1, 1)


def test_max_with_unit_bounds(oracle_round):
    i = _find(oracle_round, lambda op: op.kind == "oracle.max_unit_density_sqrt"
              and op.meta["exact"])
    x = oracle_round.ops[i].meta["x"]
    assert _failed_with(oracle_round, i, Fraction(max(abs(v) for v in x)) / 2)[0] >= 1
    assert _failed_with(oracle_round, i, 1000 * oracle_round.outputs[i])[0] >= 1


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def variation_round(tmp_path_factory):
    return _round(VariationWorkload, tmp_path_factory)


def test_modulus_vector_with_one_entry_changed(variation_round):
    i = _find(variation_round, lambda op: op.kind == "modulus_enum" and op.meta["exact"])
    values = list(variation_round.outputs[i].values)
    values[2] += Fraction(1, 1000)
    assert _failed_with(variation_round, i, SimpleNamespace(values=tuple(values))) == (1, 1)


def test_greedy_above_brute(variation_round):
    i = _find(variation_round, lambda op: op.kind == "greedy.density" and op.meta["exact"])
    assert _failed_with(variation_round, i, variation_round.outputs[i] + 1000) == (1, 1)


def test_upper_below_brute(variation_round):
    i = _find(variation_round, lambda op: op.kind == "upper.shifted" and not op.meta["exact"])
    assert _failed_with(variation_round, i, 0.0) == (1, 1)


# Under counting, upper = v(B) = Jordan = brute, so a raised brute also
# puts upper below brute: two ops fail.
@pytest.mark.parametrize("label,delta,failed", [("unit", Fraction(-1, 1000), 1),
                                                ("counting", Fraction(1, 1000), 2)])
def test_unit_and_counting_identities(variation_round, label, delta, failed):
    i = _find(variation_round, lambda op: op.kind == f"brute.{label}" and op.meta["exact"])
    assert _failed_with(variation_round, i, variation_round.outputs[i] + delta) \
        == (failed, failed)


def test_float_brute_against_exact_path(variation_round):
    ops, outputs = list(variation_round.ops), list(variation_round.outputs)
    i = _find(variation_round, lambda op: op.meta.get("cross"))
    # Leave the cross-check alone on this function: its other ops "raised".
    for j, op in enumerate(ops):
        if op.meta["fid"] == ops[i].meta["fid"] and j != i:
            outputs[j] = OpError("left out")
    outputs[i] *= 1 + 1e-8          # past the cross-check's 1e-9 tolerance
    failed, check_failures, _ = evaluate(variation_round.wl, PhaseResult(
        first={variation_round.sig: (ops, outputs)}))
    assert check_failures == 1


@pytest.mark.parametrize("field", ["norm", "jordan"])
def test_cli_report_fields(variation_round, field):
    i = _find(variation_round, lambda op: op.meta["fn"] == "cli" and op.meta["exact"])

    def edit(res):
        res[field] = str(Fraction(res[field]) + Fraction(1, 1000))
    assert _failed_with(variation_round, i, _edit_report(variation_round.outputs[i], edit)) \
        == (1, 1)


# ---------------------------------------------------------------------------
# horizon
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def horizon_round(tmp_path_factory):
    return _round(HorizonWorkload, tmp_path_factory)


def _corrupt_report(rnd, kind, edit):
    i = _find(rnd, lambda op: op.kind == kind)
    return _failed_with(rnd, i, _edit_report(rnd.outputs[i], edit))


def test_preceq_density_bound(horizon_round):
    def edit(res):
        res["bound_estimate"] = str(Fraction(res["bound_estimate"]) + Fraction(1, 1000))
    assert _corrupt_report(horizon_round, "compare.preceq.density", edit) == (1, 1)


def test_preceq_density_witness(horizon_round):
    def edit(res):
        res["witness"]["sequence"][0] = "2"
    assert _corrupt_report(horizon_round, "compare.preceq.density_witness", edit) == (1, 1)


def test_preceq_m_exact_bound(horizon_round):
    def edit(res):
        res["bound_estimate"] = str(Fraction(res["bound_estimate"]) * Fraction(999, 1000))
    assert _corrupt_report(horizon_round, "compare.preceq_m.exact", edit) == (1, 1)


@pytest.mark.parametrize("kind", ["compare.criterion_c", "construct.density_set"])
def test_witness_set(horizon_round, kind):
    def edit(res):
        F = res["witness"]["set"] if "witness" in res else res["object"]["set"]
        F.append(1)                 # element 1 makes phi1(F) = 1
    assert _corrupt_report(horizon_round, kind, edit) == (1, 1)


def test_density_witness(horizon_round):
    def edit(res):
        res["object"]["sequence"][0] = "1000"
    assert _corrupt_report(horizon_round, "construct.density_witness", edit) == (1, 1)


def test_exh_not_fin_block(horizon_round):
    def edit(res):
        seq = res["object"]["sequence"]
        seq[-1] = str(Fraction(seq[-1]) * 2)
    assert _corrupt_report(horizon_round, "construct.exh_not_fin", edit) == (1, 1)


def test_katetov_pair(horizon_round):
    def edit(res):
        res["witness"]["pair"][1] += 1
    assert _corrupt_report(horizon_round, "compare.katetov", edit) == (1, 1)


@pytest.mark.parametrize("kind", ["compare.preceq.summable", "compare.preceq_m.float"])
def test_float_bounds(horizon_round, kind):
    def edit(res):
        res["bound_estimate"] *= 1.001
    assert _corrupt_report(horizon_round, kind, edit) == (1, 1)


@pytest.mark.parametrize("curve,index,factor", [("tail_norms", 5, 1.5),
                                                ("truncation_norms", 5, 0.5),
                                                ("truncation_norms", -1, 1.001)])
def test_certify_curves(horizon_round, curve, index, factor):
    def edit(res):
        key = "fin" if curve == "truncation_norms" else "exh"
        res[key][curve][index] *= factor
    assert _corrupt_report(horizon_round, "certify.harmonic", edit) == (1, 1)


def _rewrite_line(path, index, new):
    with open(path) as fh:
        lines = fh.read().splitlines()
    old = lines[index]
    lines[index] = new(old)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return old


def test_separating_entry_raised_above_predecessor(horizon_round):
    i = _find(horizon_round, lambda op: op.kind == "construct.separating")
    path = horizon_round.ops[i].meta["path"]
    with open(path) as fh:
        prev = float(fh.readline())
    old = _rewrite_line(path, 1, lambda line: repr(prev * 2))
    try:
        assert _failed_with(horizon_round, i, horizon_round.outputs[i]) == (1, 1)
    finally:
        _rewrite_line(path, 1, lambda line: old)


def test_zigzag_object(horizon_round):
    i = _find(horizon_round, lambda op: op.kind == "construct.zigzag")
    path = horizon_round.ops[i].meta["path"]
    old = _rewrite_line(path, 3, lambda line: line.split(",")[0] + ",12345")
    try:
        assert _failed_with(horizon_round, i, horizon_round.outputs[i]) == (1, 1)
    finally:
        _rewrite_line(path, 3, lambda line: old)


def test_unexpected_exit_code_fails(horizon_round):
    i = _find(horizon_round, lambda op: op.kind == "compare.criterion_c")
    out = horizon_round.outputs[i]
    assert _failed_with(horizon_round, i, CliOutput(0, out.text))[0] == 1


# ---------------------------------------------------------------------------
# harness and tracer
# ---------------------------------------------------------------------------


def test_repeat_with_different_output_fails(horizon_round):
    phase = PhaseResult(first={horizon_round.sig: (horizon_round.ops, horizon_round.outputs)},
                        repeats=[(horizon_round.sig, 0, True), (horizon_round.sig, 3, False)])
    failed, check_failures, _ = evaluate(horizon_round.wl, phase)
    assert (failed, check_failures) == (1, 1)


def test_timed_phase_stops_only_at_the_end_of_a_pass():
    class Pool:
        pool_rounds = 3

        def signature(self, r):
            return r % self.pool_rounds

        def round_ops(self, r):
            return [Op("noop", "exact", lambda: r)]

    starts = []
    phase = run_phase(Pool(), seconds=0.0, before_round=starts.append)
    assert (phase.rounds, phase.attempted, starts) == (3, 3, [0, 1, 2])


def test_round_times_scale_by_the_reference_kernel_around_them():
    phase = PhaseResult(round_walls=[2.0, 3.0], refs=[2 * REFERENCE_S, 4 * REFERENCE_S],
                        round_busy=[{"exact": 2.0, "float": 0.0}, {"exact": 1.5, "float": 1.5}])
    assert (phase.slowness(0), phase.slowness(1)) == pytest.approx((2.0, 3.0))
    assert phase.scaled_round_walls() == pytest.approx([1.0, 1.0])
    assert (phase.scaled_busy("exact"), phase.scaled_busy("float")) == pytest.approx((1.5, 0.5))


@pytest.mark.parametrize("points,count", [(3, 2), (7, 6), (9, 8), (11, 10), (8, 3)])
def test_count_families_matches_enumeration(points, count):
    assert count_families(points, count) == len(V._index_families(points, count))


def test_tracer_self_time_and_restore():
    original = S.ShiftedSubmeasure.hat
    tracer = Tracer().install()
    try:
        assert S.ShiftedSubmeasure.hat is not original
        S.hat_norm(S.shift_normalize(S.summable([3, 2, 1])), (1, Fraction(1, 2), 2))
    finally:
        tracer.remove()
    assert S.ShiftedSubmeasure.hat is original
    calls, total, own = tracer.totals()["submeasure.hat"]
    assert calls == 2                       # shifted hat and its base's hat
    assert 0 <= own <= total
    assert list(tracer.parent) == [-1, 0]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
