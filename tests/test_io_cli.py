import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gbv._util import DescriptorError, NonFiniteValue
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


def test_cli_usage_error_exits_one(capsys):
    from gbv.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["variation", "--bogus"])
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


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
