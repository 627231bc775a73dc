import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gbv._util import MAX_HORIZON, DescriptorError, NonFiniteValue, SizeRefusal
from gbv.io import (
    load_function_csv,
    load_sequence,
    save_function_csv,
    save_sequence,
    sequence_from_descriptor,
    submeasure_from_descriptor,
)
from gbv.submeasure import (
    DensitySubmeasure,
    MaxWithUnitSubmeasure,
    PermutedSubmeasure,
    ShiftedSubmeasure,
    SummableSubmeasure,
    eval_set,
    hat_norm,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, cwd=None):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-m", "gbv", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_submeasure_descriptor_variants():
    phi = submeasure_from_descriptor({"type": "summable", "form": "harmonic",
                                      "horizon": 64})
    assert isinstance(phi, SummableSubmeasure)
    assert eval_set(phi, [1, 2, 4]) == F(7, 4)

    phi = submeasure_from_descriptor({"type": "density", "form": "power",
                                      "param": 0.5})
    assert isinstance(phi, DensitySubmeasure)
    assert phi.bound.g(10) == 4

    phi = submeasure_from_descriptor({"type": "unit"})
    assert hat_norm(phi, (3, -5)) == 5

    phi = submeasure_from_descriptor(
        {"type": "summable", "form": "table", "table": ["1", "1/2", "1/3"]})
    assert eval_set(phi, [2, 3]) == F(5, 6)


def test_descriptor_wrappers_apply_in_order():
    spec = {"type": "counting", "wrap": ["shifted", {"permuted": [2, 1, 3]}]}
    phi = submeasure_from_descriptor(spec)
    assert isinstance(phi, PermutedSubmeasure)
    assert isinstance(phi.base, ShiftedSubmeasure)
    assert eval_set(phi, [1]) == 1 + F(1, 4)      # permuted to position 2

    phi2 = submeasure_from_descriptor({"type": "unit", "wrap": ["max_unit"]})
    assert isinstance(phi2, MaxWithUnitSubmeasure)


def test_descriptor_errors_name_the_field():
    with pytest.raises(DescriptorError, match="'type'"):
        submeasure_from_descriptor({"type": "nope"})
    with pytest.raises(DescriptorError, match="'form'"):
        submeasure_from_descriptor({"type": "summable", "form": "nope"})
    with pytest.raises(DescriptorError, match="param"):
        submeasure_from_descriptor({"type": "density", "form": "power"})
    with pytest.raises(DescriptorError, match="wrap"):
        submeasure_from_descriptor({"type": "unit", "wrap": ["bogus"]})
    with pytest.raises(DescriptorError, match="horizon"):
        submeasure_from_descriptor({"type": "unit", "horizon": 0})


BAD_DESCRIPTORS = [
    ({"type": "unit", "wrap": None}, "field 'wrap': need a list"),
    ({"type": "counting", "wrap": "shifted"}, "field 'wrap': need a list"),
    ({"type": "unit", "wrap": [{"permuted": None}]}, r"field 'wrap\[0\]\.permuted'"),
    ({"type": "unit", "wrap": ["shifted", {"permuted": 3}]}, r"field 'wrap\[1\]\.permuted'"),
    ({"type": "unit", "wrap": [{"permuted": [2, "1"]}]}, r"field 'wrap\[0\]\.permuted'"),
    ({"type": "unit", "wrap": [{"permuted": [2, 1.0]}]}, r"field 'wrap\[0\]\.permuted'"),
    ({"type": "summable", "form": "power", "param": 10 ** 400}, "field 'param': too large"),
]


@pytest.mark.parametrize("desc,field", BAD_DESCRIPTORS)
def test_malformed_descriptor_is_a_named_input_error(tmp_path, capsys, desc, field):
    from gbv.cli import main

    with pytest.raises(DescriptorError, match=field):
        submeasure_from_descriptor(desc)
    (tmp_path / "phi.json").write_text(json.dumps(desc))
    (tmp_path / "x.csv").write_text("1\n2\n")
    rc = main(["certify", "--submeasure", str(tmp_path / "phi.json"),
               "--sequence", str(tmp_path / "x.csv")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert re.search(field, err), err


def test_sequence_descriptors():
    x = sequence_from_descriptor({"form": "power", "param": 1, "length": 4})
    assert x.entries == (1.0, 0.5, 1 / 3, 0.25)
    alt = sequence_from_descriptor({"form": "alt", "param": 0, "length": 3,
                                    "scale": 2})
    assert alt.entries == (2.0, -2.0, 2.0)
    tab = sequence_from_descriptor({"form": "table", "table": ["1/3", 2]})
    assert tab.entries == (F(1, 3), 2)


def test_sequence_csv_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    save_sequence(path, (F(1, 3), -2, 0.5))
    x = load_sequence(path)
    assert x.entries == (F(1, 3), -2, 0.5)


def test_function_csv_roundtrip(tmp_path):
    from gbv.variation import tent

    path = tmp_path / "f.csv"
    save_function_csv(path, tent())
    f = load_function_csv(path)
    assert f.breakpoints == (0, F(1, 2), 1)
    assert f.values == (0, 1, 0)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\n0.5,1\n")
    with pytest.raises(DescriptorError):
        load_function_csv(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tent.csv").write_text("0,0\n1/2,1\n1,0\n")
    (tmp_path / "counting.json").write_text(json.dumps({"type": "counting"}))
    (tmp_path / "harmonic.json").write_text(
        json.dumps({"type": "summable", "form": "harmonic", "horizon": 1000}))
    (tmp_path / "ones.json").write_text(json.dumps(
        {"type": "summable", "form": "table", "table": [1] * 1000,
         "declared_divergent": True}))
    (tmp_path / "sqrt.json").write_text(
        json.dumps({"type": "density", "form": "power", "param": 0.5}))
    (tmp_path / "identity.json").write_text(
        json.dumps({"type": "density", "form": "power", "param": 1}))
    (tmp_path / "shifted.json").write_text(json.dumps(
        {"type": "summable", "form": "harmonic", "horizon": 1000, "wrap": ["shifted"]}))
    return tmp_path


def test_cli_variation_tent(workdir):
    res = run_cli("variation", "--function", str(workdir / "tent.csv"),
                  "--submeasure", str(workdir / "counting.json"),
                  "--method", "all")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["result"]["jordan"] == 2
    assert report["result"]["variation"] == {"brute": 2, "greedy": 2, "upper": 2}


def test_cli_compare_katetov_exit_two(workdir):
    res = run_cli("compare", "--relation", "katetov",
                  "--a", str(workdir / "harmonic.json"),
                  "--b", str(workdir / "ones.json"),
                  "--cap", "2", "--horizon", "1000")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["result"]["witness"]["pair"] == [4, 3]


def test_cli_compare_preceq_density(workdir):
    res = run_cli("compare", "--relation", "preceq",
                  "--a", str(workdir / "sqrt.json"),
                  "--b", str(workdir / "identity.json"),
                  "--horizon", "100")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["result"]["verdict"] == "holds-with-constant"


def test_cli_certify_and_csv_series(workdir):
    seq = workdir / "x.csv"
    seq.write_text("\n".join(["1"] * 30) + "\n")
    res = run_cli("certify", "--kind", "fin",
                  "--submeasure", str(workdir / "counting.json"),
                  "--sequence", str(seq))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["result"]["fin"]["verdict"] == "growth-detected"
    res_csv = run_cli("certify", "--kind", "fin",
                      "--submeasure", str(workdir / "counting.json"),
                      "--sequence", str(seq), "--format", "csv")
    lines = res_csv.stdout.strip().splitlines()
    assert lines[0].startswith("#") and lines[1] == "1,1"


def test_cli_construct_zigzag_object_out(workdir):
    seq = workdir / "mono.csv"
    seq.write_text("1\n1/2\n1/4\n")
    out = workdir / "zig.csv"
    res = run_cli("construct", "--kind", "zigzag",
                  "--sequence", str(seq),
                  "--submeasure", str(workdir / "counting.json"),
                  "--object-out", str(out), "--exact")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["result"]["all_passed"] is True
    assert report["result"]["details"]["variation"] == "7/4"
    f = load_function_csv(out)
    assert f.values[0] == F(3, 4)

    floats = workdir / "harmonic.csv"
    floats.write_text("".join(f"{1.0 / k!r}\n" for k in range(1, 21)))
    res = run_cli("construct", "--kind", "zigzag", "--sequence", str(floats))
    assert res.returncode == 0, res.stdout


def test_cli_construct_separating_negative_exit(workdir):
    res = run_cli("construct", "--kind", "density-set",
                  "--g", str(workdir / "sqrt.json"),
                  "--h", str(workdir / "sqrt.json"),
                  "--level", "1", "--search-bound", "1000")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert "no-witness-below-bound" in report["result"]["notes"]


def test_cli_input_error_exit_one(workdir):
    res = run_cli("variation", "--function", str(workdir / "missing.csv"),
                  "--submeasure", str(workdir / "counting.json"))
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_non_finite_function_is_input_error(workdir, bad):
    path = workdir / "bad.csv"
    path.write_text(f"0,0\n1/2,{bad}\n1,0\n")
    res = run_cli("variation", "--function", str(path),
                  "--submeasure", str(workdir / "counting.json"))
    assert res.returncode == 1
    assert "value at index 1 is not finite" in res.stderr


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_cli_certify_refuses_non_finite_sequence_entry(workdir, bad):
    path = workdir / "seq.csv"
    path.write_text(f"1\n{bad}\n")
    res = run_cli("certify", "--submeasure", str(workdir / "counting.json"),
                  "--sequence", str(path))
    assert res.returncode == 1
    assert f"{path}:2: entry 2 is not finite" in res.stderr
    assert res.stdout == ""


def test_non_finite_descriptor_entries_are_refused(tmp_path):
    with pytest.raises(NonFiniteValue, match=r"table\[0\]"):
        submeasure_from_descriptor({"type": "summable", "form": "table", "table": ["inf", "1"]})
    with pytest.raises(NonFiniteValue, match=r"table\[1\]"):
        submeasure_from_descriptor({"type": "summable", "form": "table",
                                    "table": [1, float("nan")]})
    with pytest.raises(NonFiniteValue, match="density table entry 2"):
        submeasure_from_descriptor({"type": "density", "form": "table",
                                    "table": [1, float("inf")]})
    with pytest.raises(NonFiniteValue, match=r"table\[1\]"):
        sequence_from_descriptor({"form": "table", "table": [1, "-inf"]})
    with pytest.raises(NonFiniteValue, match="scale"):
        sequence_from_descriptor({"form": "table", "table": [1], "scale": float("inf")})
    with pytest.raises(NonFiniteValue, match="sequence entry 2"):
        sequence_from_descriptor({"form": "table", "table": [1, 2], "scale": 1e308})
    with pytest.raises(NonFiniteValue, match="overflows"):
        sequence_from_descriptor({"form": "power", "param": -1000, "length": 5})
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"form": "table", "table": ["nan"]}))
    with pytest.raises(NonFiniteValue, match=re.escape(f"{path}: field 'table[0]'")):
        load_sequence(path)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_refuses_to_write_non_finite_report(workdir, capsys, fmt):
    # finite entries whose partial sums overflow get past the loaders; the
    # certificate refuses the overflowed curve by its first cut, so the
    # report never carries inf, which JSON cannot hold
    from gbv.cli import main

    path = workdir / "big.csv"
    path.write_text("1e308\n1e308\n")
    rc = main(["certify", "--submeasure", str(workdir / "counting.json"),
               "--sequence", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: truncation norm at cut 2 is not finite (inf)\n"


@pytest.mark.parametrize("cap", ["inf", "nan", "0"])
def test_cli_compare_refuses_cap_that_is_not_positive_and_finite(workdir, capsys, cap):
    from gbv.cli import main

    rc = main(["compare", "--relation", "preceq", "--a", str(workdir / "harmonic.json"),
               "--b", str(workdir / "harmonic.json"), "--cap", cap])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert "--cap must be positive and finite" in err


@pytest.mark.parametrize("relation,a,b,message", [
    ("preceq", "sqrt.json", "harmonic.json",
     "preceq needs two density or two summable descriptors"),
    ("preceq", "counting.json", "counting.json",
     "preceq needs two density or two summable descriptors"),
    ("preceq", "shifted.json", "harmonic.json",
     "preceq needs two density or two summable descriptors"),
    ("preceq_m", "sqrt.json", "identity.json", "preceq_m needs two summable descriptors"),
    ("preceq_m", "ones.json", "shifted.json", "preceq_m needs two summable descriptors"),
    ("katetov", "harmonic.json", "sqrt.json", "katetov needs two summable descriptors"),
    ("katetov", "shifted.json", "ones.json", "katetov needs two summable descriptors"),
])
def test_cli_compare_refuses_a_pair_with_the_message_of_compare(workdir, capsys, relation,
                                                               a, b, message):
    from gbv.cli import main

    for first, second in ((a, b), (b, a)):
        rc = main(["compare", "--relation", relation, "--a", str(workdir / first),
                   "--b", str(workdir / second)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"


def test_cli_construct_reads_weights_and_bound_from_the_descriptor(workdir, capsys):
    from gbv.cli import main

    rc = main(["construct", "--kind", "separating", "--weights", str(workdir / "sqrt.json"),
               "--g", str(workdir / "sqrt.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --weights must be a summable descriptor\n"
    rc = main(["construct", "--kind", "density-witness", "--g", str(workdir / "harmonic.json"),
               "--h", str(workdir / "sqrt.json"), "--index", "3"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'harmonic.json'}: expected a density descriptor\n")


def test_density_param_with_a_zero_denominator_is_a_named_input_error(workdir, capsys):
    from gbv.cli import main

    desc = {"type": "density", "form": "power", "param": "1/0"}
    with pytest.raises(DescriptorError, match="field 'param': zero denominator in '1/0'"):
        submeasure_from_descriptor(desc)
    (workdir / "z.json").write_text(json.dumps(desc))
    (workdir / "s.csv").write_text("1\n1/2\n")
    rc = main(["certify", "--submeasure", str(workdir / "z.json"),
               "--sequence", str(workdir / "s.csv")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: field 'param': zero denominator in '1/0'\n"


def test_density_power_param_with_a_large_numerator_gives_a_report(workdir, capsys):
    from gbv.cli import main

    # g(n) = ceil(n**(99/100)) takes a 100th root of n**99, past the float range
    (workdir / "p99.json").write_text(
        json.dumps({"type": "density", "form": "power", "param": 0.99}))
    for a, b in (("p99.json", "sqrt.json"), ("sqrt.json", "p99.json")):
        rc = main(["compare", "--relation", "preceq", "--a", str(workdir / a),
                   "--b", str(workdir / b)])
        out, err = capsys.readouterr()
        assert rc in (0, 2) and err == "", err
        assert json.loads(out)["result"]["verdict"]


@pytest.mark.parametrize("param", [0.3333333333333333, "1e-400"])
def test_density_power_param_past_the_denominator_cap_is_refused(workdir, capsys, param):
    from gbv.cli import main

    desc = {"type": "density", "form": "power", "param": param}
    with pytest.raises(SizeRefusal, match="denominator b of a/b is past 1000"):
        submeasure_from_descriptor(desc)
    (workdir / "p.json").write_text(json.dumps(desc))
    rc = main(["compare", "--relation", "preceq", "--a", str(workdir / "p.json"),
               "--b", str(workdir / "sqrt.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: power density param: the denominator b of a/b is past 1000")


def test_descriptor_horizon_past_the_cap_is_refused(workdir, capsys):
    from gbv.cli import main

    assert MAX_HORIZON == 2 ** 20
    assert submeasure_from_descriptor({"type": "unit", "horizon": MAX_HORIZON}) is not None
    desc = {"type": "summable", "form": "harmonic", "horizon": 10 ** 12}
    with pytest.raises(SizeRefusal, match="field 'horizon': 1000000000000 is past the cap"):
        submeasure_from_descriptor(desc)
    (workdir / "far.json").write_text(json.dumps(desc))
    rc = main(["compare", "--relation", "preceq", "--a", str(workdir / "far.json"),
               "--b", str(workdir / "harmonic.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: field 'horizon': 1000000000000 is past the cap 1048576\n"


def test_cli_horizon_past_the_cap_is_refused(workdir, capsys):
    from gbv.cli import main

    far = str(MAX_HORIZON + 1)
    for argv in (["compare", "--relation", "criterion_c", "--a", str(workdir / "counting.json"),
                  "--b", str(workdir / "counting.json"), "--horizon", far],
                 ["construct", "--kind", "separating", "--weights",
                  str(workdir / "harmonic.json"), "--g", str(workdir / "sqrt.json"),
                  "--horizon", far]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "error: --horizon 1048577 is past the cap 1048576\n"


def test_cli_search_len_past_the_cap_is_refused(workdir, capsys):
    from gbv.cli import main

    for length in (str(MAX_HORIZON + 1), "1000000000000"):
        rc = main(["construct", "--kind", "exh-not-fin", "--phi1", str(workdir / "harmonic.json"),
                   "--phi2", str(workdir / "counting.json"), "--search-len", length])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: --search-len {length} is past the cap 1048576\n"


def test_cli_index_and_search_bound_past_the_cap_are_refused(workdir, capsys):
    from gbv.cli import main

    g = ["--g", str(workdir / "identity.json"), "--h", str(workdir / "identity.json")]
    for length in (str(MAX_HORIZON + 1), "100000000000"):
        for flag, argv in (("--index", ["--kind", "density-witness", *g, "--index", length]),
                           ("--search-bound", ["--kind", "density-set", *g, "--level", "2",
                                               "--search-bound", length])):
            rc = main(["construct", *argv])
            out, err = capsys.readouterr()
            assert rc == 1 and out == ""
            assert err == f"error: {flag} {length} is past the cap 1048576\n"


def test_cli_variation_past_the_float_range_is_a_named_error(workdir, capsys):
    # a max-with-unit base searches left to right through the oracle, whose
    # float hat-norm of the family (1.7e308, 1e308) passes the float range
    from gbv.cli import main

    (workdir / "huge.csv").write_text("0,0\n1/2,1.7e308\n1,7e307\n")
    (workdir / "max_unit.json").write_text(json.dumps({"type": "counting",
                                                       "wrap": ["max_unit"]}))
    rc = main(["variation", "--function", str(workdir / "huge.csv"),
               "--submeasure", str(workdir / "max_unit.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: the hat-norm value 2.700000e+308 overflows a float")


@pytest.mark.parametrize("method, message", [
    ("brute", "the oscillation from breakpoint 1 to breakpoint 2 overflows a float"),
    ("all", "the oscillation from breakpoint 1 to breakpoint 2 overflows a float"),
    ("greedy", "the monotone run from breakpoint 1 to breakpoint 2 overflows a float"),
    ("upper", "modulus increment 1 overflows a float"),
])
def test_cli_exact_oscillation_past_the_float_range_under_float_weights(
        workdir, capsys, method, message):
    # exact values whose oscillation 2 * 10^308 has no float, scored under
    # float weights: the brute force names the oscillation, the greedy the
    # run by its breakpoints, the upper bound the modulus increment (it runs
    # before the greedy that scores the norm)
    from gbv.cli import main

    big = 10 ** 308
    (workdir / "big.csv").write_text(f"0,{big}\n1/2,-{big}\n1,0\n")
    (workdir / "power.json").write_text(json.dumps(
        {"type": "summable", "form": "power", "param": 0.7, "horizon": 16}))
    rc = main(["variation", "--function", str(workdir / "big.csv"),
               "--submeasure", str(workdir / "power.json"), "--method", method])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: {message} (int too large to convert to float)\n"


def test_cli_greedy_names_the_overflowing_run_by_its_breakpoints(workdir, capsys):
    # three runs; the second, from breakpoint 2 to breakpoint 5 over a flat
    # segment, oscillates by 2 * 10^308 + 1 and has no float; the upper
    # bound names the first modulus increment, which spans that run
    from gbv.cli import main

    big = 10 ** 308
    rows = [("0", 0), ("1/5", 1), ("2/5", 0), ("3/5", 0), ("4/5", -2 * big), ("1", 0)]
    (workdir / "runs.csv").write_text("".join(f"{t},{y}\n" for t, y in rows))
    (workdir / "power.json").write_text(json.dumps(
        {"type": "summable", "form": "power", "param": 0.7, "horizon": 16}))
    for method, name in (("greedy", "the monotone run from breakpoint 2 to breakpoint 5"),
                         ("upper", "modulus increment 1")):
        rc = main(["variation", "--function", str(workdir / "runs.csv"),
                   "--submeasure", str(workdir / "power.json"), "--method", method])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "", method
        assert err == f"error: {name} overflows a float (int too large to convert to float)\n"


def test_cli_greedy_variation_past_the_float_range_is_a_named_error(workdir, capsys):
    # the greedy's float hat of the runs (1.7e308, 1e308) passes the float
    # range; it is refused like the brute force's, not written as inf
    from gbv.cli import main

    (workdir / "huge.csv").write_text("0,0\n1/2,1.7e308\n1,7e307\n")
    rc = main(["variation", "--function", str(workdir / "huge.csv"),
               "--submeasure", str(workdir / "harmonic.json"), "--method", "greedy"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: the variation overflows the float range (inf)\n"


def test_cli_modulus_out_of_range_is_refused_before_any_variation(workdir, capsys):
    from gbv.cli import main

    # 13 segments: the brute force would refuse the size, so the refusal
    # seen is the one made before any variation is computed
    lines = [f"{k}/13,{k % 2}" for k in range(14)]
    (workdir / "long.csv").write_text("\n".join(lines) + "\n")
    for n in ("99", "-1", "14"):
        rc = main(["variation", "--function", str(workdir / "long.csv"),
                   "--submeasure", str(workdir / "harmonic.json"), "--method", "brute",
                   "--modulus", n])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: --modulus {n} must lie in 0..13, the segment count of the function\n"
    assert main(["variation", "--function", str(workdir / "long.csv"),
                 "--submeasure", str(workdir / "harmonic.json"), "--method", "greedy",
                 "--modulus", "13"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["modulus_vector"]) == 14

def test_cli_usage_error_exits_one(capsys):
    from gbv.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["variation", "--bogus"])
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_runs_in_one_process_report_what_a_fresh_process_reports(workdir, capsys):
    # the parser is built once per process: a run must see neither the
    # values nor the errors of the runs before it
    from gbv.cli import _build_parser, main

    f = workdir / "zigzag.csv"
    f.write_text("0,0\n1/4,4\n1/2,1\n3/4,5\n1,0\n")
    plain = ["variation", "--function", str(f), "--submeasure", str(workdir / "harmonic.json")]
    assert main([*plain, "--modulus", "2", "--method", "brute"]) == 0
    first = json.loads(capsys.readouterr().out)["result"]
    assert list(first["variation"]) == ["brute"] and len(first["modulus_vector"]) == 3
    with pytest.raises(SystemExit) as exc:
        main([*plain, "--method", "bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(plain) == 0
    out = capsys.readouterr().out
    fresh = run_cli(*plain)
    assert fresh.returncode == 0 and out == fresh.stdout
    assert sorted(json.loads(out)["result"]["variation"]) == ["brute", "greedy", "upper"]
    assert _build_parser() is _build_parser()


def test_cli_selftest_fast_passes_every_criterion(capsys):
    from gbv.cli import main

    assert main(["selftest", "--fast"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "10/10 acceptance criteria passed"


def test_cli_reports_deterministic(workdir):
    args = ("compare", "--relation", "preceq_m",
            "--a", str(workdir / "harmonic.json"),
            "--b", str(workdir / "ones.json"))
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["version"]


def test_certify_accepts_sequence_descriptor_json(workdir):
    desc = workdir / "seq.json"
    desc.write_text(json.dumps({"form": "power", "param": 1, "length": 40}))
    res = run_cli("certify", "--kind", "exh",
                  "--submeasure", str(workdir / "counting.json"),
                  "--sequence", str(desc))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["result"]["exh"]["verdict"] in ("tail-vanishing-consistent", "tail-stuck")


def test_malformed_sequence_descriptor_is_input_error(workdir):
    bad = workdir / "bad.json"
    bad.write_text("[1, 2, 3]")
    res = run_cli("certify", "--kind", "fin",
                  "--submeasure", str(workdir / "counting.json"),
                  "--sequence", str(bad))
    assert res.returncode == 1
    assert "descriptor" in res.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_fraction_beyond_float_range_is_input_error(workdir, fmt):
    # a rational report number written as a float must fit in one
    path = workdir / "huge.csv"
    path.write_text(f"0,0\n1,{10 ** 400}/3\n")
    res = run_cli("variation", "--function", str(path),
                  "--submeasure", str(workdir / "counting.json"),
                  "--method", "greedy", "--format", fmt)
    assert res.returncode == 1 and res.stdout == ""
    assert "error: refusing to serialize a number too large for a float" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_density_table_must_be_integer(workdir):
    desc = workdir / "table.json"
    desc.write_text(json.dumps({"type": "density", "form": "table", "table": [1, 2.7, 3.9]}))
    seq = workdir / "x.csv"
    seq.write_text("1\n1/2\n")
    res = run_cli("certify", "--submeasure", str(desc), "--sequence", str(seq))
    assert res.returncode == 1 and res.stdout == ""
    assert "density table entry 2 is not an integer (2.7)" in res.stderr
    ok = submeasure_from_descriptor({"type": "density", "form": "table",
                                     "table": [1, 2.0, "3"]})
    assert ok.bound.table == (1, 2, 3)
