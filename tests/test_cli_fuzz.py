"""A fixed matrix of malformed inputs, run through every subcommand in process.

Every command must return from ``cli.main``: no exception escapes it.  An
input error is exit code 1 with nothing on stdout and a stderr that starts
with ``error:``; any other run exits 0 or 2.
"""

import itertools
import json
import re
import warnings

import pytest

from gbv.cli import main

VALID = {
    "harmonic": {"type": "summable", "form": "harmonic", "horizon": 32},
    "ones": {"type": "summable", "form": "table", "table": [1] * 32},
    "sqrt": {"type": "density", "form": "power", "param": "1/2"},
    "log": {"type": "density", "form": "log"},
    "unit": {"type": "unit"},
    "counting": {"type": "counting"},
    "shifted": {"type": "summable", "form": "harmonic", "horizon": 32, "wrap": ["shifted"]},
    "max_unit": {"type": "density", "form": "power", "param": 1, "wrap": ["max_unit"]},
    "permuted": {"type": "density", "form": "log", "wrap": [{"permuted": [2, 1]}]},
}

BAD_DESCRIPTORS = [
    [], "summable", {"type": "nope"}, {"type": "summable"},
    {"type": "summable", "form": "power"},
    {"type": "summable", "form": "power", "param": "1/0"},
    {"type": "summable", "form": "power", "param": -1},
    {"type": "summable", "form": "power", "param": 10 ** 400},
    {"type": "summable", "form": "harmonic", "horizon": 10 ** 30},
    {"type": "summable", "form": "table", "table": []},
    {"type": "summable", "form": "table", "table": ["1/0"]},
    {"type": "summable", "form": "table", "table": ["nan"]},
    {"type": "summable", "form": "table", "table": [0]},
    {"type": "summable", "form": "table", "table": [1, 2]},
    {"type": "summable", "form": "table", "table": [[1]]},
    {"type": "summable", "form": "table", "table": ["abc"]},
    {"type": "density", "form": "power", "param": "1/0"},
    {"type": "density", "form": "power", "param": "abc"},
    {"type": "density", "form": "power", "param": [1]},
    {"type": "density", "form": "power", "param": {"p": 1}},
    {"type": "density", "form": "power", "param": 0},
    {"type": "density", "form": "power", "param": 2},
    {"type": "density", "form": "power", "param": None},
    {"type": "density", "form": "power", "param": "-1/2"},
    {"type": "density", "form": "power", "param": 0.3333333333333333},
    {"type": "density", "form": "power", "param": "1e-400"},
    {"type": "density", "form": "table", "table": [1, 1]},
    {"type": "density", "form": "table", "table": [1, "1/0"]},
    {"type": "density", "form": "table", "table": ["x"]},
    {"type": "density", "form": "table", "table": [1, 3]},
    {"type": "density", "form": "table", "table": [None]},
    {"type": "density", "form": "bogus"},
    {"type": "unit", "horizon": 0},
    {"type": "unit", "horizon": "5"},
    {"type": "unit", "wrap": "shifted"},
    {"type": "unit", "wrap": [1]},
    {"type": "unit", "wrap": [{"permuted": [1, 1]}]},
    {"type": "unit", "wrap": [{"permuted": [0, 1]}]},
    {"type": "unit", "wrap": [{"permuted": [3]}]},
    {"type": "counting", "wrap": [{}]},
]
# a JSON boolean in each numeric field, and the field the refusal names
BOOLEAN_DESCRIPTORS = [
    (desc, field) for b in (True, False) for desc, field in [
        ({"type": "summable", "form": "harmonic", "horizon": b}, "horizon"),
        ({"type": "summable", "form": "power", "param": b}, "param"),
        ({"type": "summable", "form": "table", "table": [b, "1/2", "1/3"]}, "table[0]"),
        ({"type": "summable", "form": "table", "table": [1, b]}, "table[1]"),
        ({"type": "density", "form": "power", "param": b}, "param"),
        ({"type": "density", "form": "table", "table": [b, 2, 3]}, "table[0]"),
        ({"type": "density", "form": "table", "table": [1, 2, b]}, "table[2]"),
        ({"type": "unit", "wrap": [{"permuted": [b]}]}, "wrap[0].permuted"),
    ]]
BAD_DESCRIPTORS += [desc for desc, _ in BOOLEAN_DESCRIPTORS]
BAD_DESCRIPTOR_TEXTS = ["{", "", "[1, 2"]

BAD_FUNCTIONS = [
    "", "0,0\n", "0,0\n0,1\n1,0\n", "1/10,0\n1,1\n", "0,0\n1,nan\n", "0,0\n1,inf\n",
    "0,0\n1,1/0\n", "0,0\n1/0,1\n", "a,b\n", "0,0,0\n1,1,1\n", "0\n1\n", "0,0\n2,1\n",
    "0,0\n1,1e400\n", "0,0\n1/2,1\n1/4,2\n1,0\n", "-1,0\n1,0\n",
]
BAD_SEQUENCES = [
    "", "nan\n", "1/0\n", "abc\n", "1,2\n", "inf\n", "-inf\n", "1e400\n", "\n\n", "#c\n",
    "1/2/3\n",
]
BAD_SEQUENCE_DESCRIPTORS = [
    [], {"form": "power"}, {"form": "power", "length": 0}, {"form": "power", "length": "3"},
    {"form": "bogus", "length": 3}, {"form": "table"}, {"form": "table", "table": "x"},
    {"form": "table", "table": ["1/0"]}, {"form": "table", "table": [1], "scale": "inf"},
    {"form": "power", "length": 3, "param": -2000},
    {"form": "power", "length": 3, "param": "x"},
    {"form": "alt", "length": 3, "param": [1]},
    {"form": "power", "length": 3, "param": None},
    {"form": "table", "table": [None]},
]
BOOLEAN_SEQUENCE_DESCRIPTORS = [
    (desc, field) for b in (True, False) for desc, field in [
        ({"form": "power", "length": b}, "length"),
        ({"form": "alt", "length": 3, "param": b}, "param"),
        ({"form": "table", "table": [1, b]}, "table[1]"),
        ({"form": "table", "table": [1], "scale": b}, "scale"),
    ]]
BAD_SEQUENCE_DESCRIPTORS += [desc for desc, _ in BOOLEAN_SEQUENCE_DESCRIPTORS]

TENT = "0,0\n1/2,1\n1,0\n"
# finite values whose oscillations sum past the float range
HUGE = "0,0\n1/2,1.7e308\n1,7e307\n"
# exact values whose oscillation 2 * 10^308 passes the float range
HUGE_EXACT = f"0,{10 ** 308}\n1/2,-{10 ** 308}\n1,0\n"
MAX_UNIT_COUNTING = {"type": "counting", "wrap": ["max_unit"]}
# float weights, so the exact oscillations are scored as floats
POWER = {"type": "summable", "form": "power", "param": 0.7, "horizon": 16}
# exact scans past int64 take the scalar loops: density tables whose entries
# pass 2^62, or whose products g * h do, and weights with no normal float
PAST_INT64 = {
    "density_2e57": {"type": "density", "form": "table",
                     "table": [m << 57 for m in range(1, 81)]},
    "density_2e50": {"type": "density", "form": "table",
                     "table": [m << 50 for m in range(1, 101)]},
    "weights_huge": {"type": "summable", "form": "table", "table": [10 ** 400] + [1] * 99},
    "weights_tiny": {"type": "summable", "form": "table",
                     "table": [1] * 99 + [f"1/{10 ** 400}"]},
    "weights_ones": {"type": "summable", "form": "table", "table": [1] * 100},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")

    def put(name, text):
        (d / name).write_text(text)
        return str(d / name)

    valid = {k: put(f"{k}.json", json.dumps(v)) for k, v in VALID.items()}
    bad = [put(f"bad{i}.json", json.dumps(v)) for i, v in enumerate(BAD_DESCRIPTORS)]
    bad += [put(f"badtext{i}.json", t) for i, t in enumerate(BAD_DESCRIPTOR_TEXTS)]
    bad.append(str(d / "missing.json"))
    functions = [put(f"f{i}.csv", t) for i, t in enumerate(BAD_FUNCTIONS)]
    functions.append(str(d / "missing.csv"))
    sequences = [put(f"x{i}.csv", t) for i, t in enumerate(BAD_SEQUENCES)]
    sequences += [put(f"xd{i}.json", json.dumps(v))
                  for i, v in enumerate(BAD_SEQUENCE_DESCRIPTORS)]
    sequences += [put("xdtext.json", "{"), str(d / "missing_x.csv")]
    return {"valid": valid, "bad": bad, "functions": functions, "sequences": sequences,
            "tent": put("tent.csv", TENT), "seq": put("seq.csv", "1\n1/2\n1/3\n"),
            "huge": put("huge.csv", HUGE), "huge_exact": put("huge_exact.csv", HUGE_EXACT),
            "max_unit_counting": put("max_unit_counting.json", json.dumps(MAX_UNIT_COUNTING)),
            "power": put("power.json", json.dumps(POWER)),
            "past_int64": {k: put(f"{k}.json", json.dumps(v)) for k, v in PAST_INT64.items()},
            "no_dir": str(d / "no_dir" / "out.json")}


def _variation(f):
    v = f["valid"]
    cmds = [["variation", "--function", f["tent"], "--submeasure", s]
            for s in f["bad"] + list(v.values())]
    cmds += [["variation", "--function", fn, "--submeasure", v["counting"]]
             for fn in f["functions"]]
    cmds += [["variation", "--function", f["tent"], "--submeasure", v["counting"],
              "--modulus", n] for n in ("-1", "0")]
    cmds.append(["variation", "--function", f["tent"], "--submeasure", v["counting"],
                 "--output", f["no_dir"]])
    cmds += [["variation", "--function", f["huge"], "--submeasure", s]
             for s in [f["max_unit_counting"], *v.values()]]
    methods = ("greedy", "brute", "upper", "all")
    cmds += [["variation", "--function", f["huge"], "--submeasure", v["harmonic"],
              "--method", m] for m in methods]
    cmds += [["variation", "--function", f["huge_exact"], "--submeasure", s, "--method", m]
             for s in (f["power"], v["harmonic"]) for m in methods]
    return cmds


def _certify(f):
    v = f["valid"]
    cmds = [["certify", "--submeasure", s, "--sequence", f["seq"]] for s in f["bad"]]
    cmds += [["certify", "--submeasure", v["counting"], "--sequence", x]
             for x in f["sequences"]]
    return cmds


def _compare(f):
    # every (relation, ordered pair) of the valid descriptors, refused or not,
    # then malformed descriptors on either side
    v = list(f["valid"].values())
    flags = ["--horizon", "8", "--cap", "2"]
    cmds = [["compare", "--relation", r, "--a", a, "--b", b, *flags]
            for r in ("preceq", "preceq_m", "katetov")
            for a, b in itertools.product(v, repeat=2)]
    cmds += [["compare", "--relation", "criterion_c", "--a", a, "--b", b, *flags]
             for a, b in itertools.product(v[:6], repeat=2)]
    harmonic = f["valid"]["harmonic"]
    for s in f["bad"]:
        cmds.append(["compare", "--relation", "preceq", "--a", s, "--b", harmonic, *flags])
        cmds.append(["compare", "--relation", "katetov", "--a", harmonic, "--b", s, *flags])
    for horizon, cap in itertools.product(("0", "-5", "4"), ("0", "-1", "nan", "inf")):
        cmds.append(["compare", "--relation", "criterion_c", "--a", v[4], "--b", v[5],
                     "--horizon", horizon, "--cap", cap])
    big = f["past_int64"]
    dens = [big["density_2e57"], big["density_2e50"], f["valid"]["sqrt"]]
    for a, b in itertools.product(dens, repeat=2):
        for relation in ("preceq", "criterion_c"):
            cmds += [["compare", "--relation", relation, "--a", a, "--b", b,
                      "--horizon", horizon, "--cap", cap]
                     for horizon in ("80", "81") for cap in ("2", "0.1")]
    weights = [big["weights_huge"], big["weights_tiny"], big["weights_ones"]]
    cmds += [["compare", "--relation", "preceq_m", "--a", a, "--b", b, "--cap", "2"]
             for a, b in itertools.product(weights, repeat=2)]
    return cmds


def _construct(f):
    v = f["valid"]
    cmds = []
    # a descriptor reaches construct through --g/--h (a density bound is
    # expected), --weights (weights are expected) or a plain submeasure
    for s in f["bad"] + list(v.values()):
        cmds += [
            ["construct", "--kind", "density-witness", "--g", s, "--h", v["sqrt"],
             "--index", "3"],
            ["construct", "--kind", "separating", "--weights", s, "--g", v["sqrt"],
             "--horizon", "100"],
            ["construct", "--kind", "exh-not-fin", "--phi1", s, "--phi2", v["counting"],
             "--search-len", "16"],
        ]
    cmds += [["construct", "--kind", "zigzag", "--sequence", x] for x in f["sequences"]]
    cmds += [["construct", "--kind", "permuted-demo", "--submeasure", v["counting"],
              "--perm", "2,1", "--function", fn] for fn in f["functions"]]
    cmds += [["construct", "--kind", "permuted-demo", "--submeasure", v["counting"],
              f"--perm={p}", "--function", f["tent"]]
             for p in ("", "a,b", "1,1", "0,1", "-1,2", "2,1,", "1.5,2")]
    for n in ("0", "-1"):
        cmds += [
            ["construct", "--kind", "density-witness", "--g", v["sqrt"], "--h", v["log"],
             "--index", n],
            ["construct", "--kind", "density-set", "--g", v["sqrt"], "--h", v["log"],
             "--level", n, "--search-bound", "50"],
            ["construct", "--kind", "density-set", "--g", v["sqrt"], "--h", v["log"],
             "--level", "1", "--search-bound", n],
            ["construct", "--kind", "exh-not-fin", "--phi1", v["harmonic"],
             "--phi2", v["counting"], "--depth", n, "--search-len", "16"],
            ["construct", "--kind", "exh-not-fin", "--phi1", v["harmonic"],
             "--phi2", v["counting"], "--search-len", n],
            ["construct", "--kind", "separating", "--weights", v["harmonic"],
             "--g", v["sqrt"], "--depth", n, "--horizon", "100"],
            ["construct", "--kind", "separating", "--weights", v["harmonic"],
             "--g", v["sqrt"], "--horizon", n],
        ]
    cmds.append(["construct", "--kind", "exh-not-fin", "--phi1", v["harmonic"],
                 "--phi2", v["counting"], "--search-len", "1000000000000"])
    cmds += [["construct", "--kind", "density-witness", "--g", v["sqrt"], "--h", v["log"],
              "--index", "100000000000"],
             ["construct", "--kind", "density-set", "--g", v["sqrt"], "--h", v["sqrt"],
              "--level", "2", "--search-bound", str(10 ** 11)]]
    big = f["past_int64"]
    for g in (big["density_2e57"], big["density_2e50"]):
        cmds += [["construct", "--kind", "density-witness", "--g", a, "--h", b, "--index", n]
                 for a, b in ((g, v["sqrt"]), (v["sqrt"], g)) for n in ("80", "81")]
    cmds += [["construct", "--kind", kind]
             for kind in ("density-witness", "density-set", "zigzag", "exh-not-fin",
                          "separating", "permuted-demo")]
    return cmds


@pytest.mark.filterwarnings("ignore:.*guarantee:UserWarning")
@pytest.mark.parametrize("commands", [_variation, _certify, _compare, _construct],
                         ids=["variation", "certify", "compare", "construct"])
def test_malformed_input_ends_in_a_named_error_never_a_traceback(files, capsys, commands):
    failures = []
    for argv in commands(files):
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            failures.append((argv, f"escaped: {type(exc).__name__}: {exc}"))
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if rc == 1 and (out or not err.startswith("error:")):
            failures.append((argv, f"rc 1 with stdout {out[:60]!r}, stderr {err[:120]!r}"))
        elif rc not in (0, 1, 2):
            failures.append((argv, f"exit code {rc!r}"))
    assert not failures, "\n".join(f"{' '.join(a)}: {why}" for a, why in failures)


def test_float_variation_past_the_float_range_is_refused_without_a_numpy_warning(files, capsys):
    # every oscillation of HUGE is finite, their weighted sums are not: each
    # method that sums them names the overflow, and numpy prints nothing
    # (--method upper runs the upper bound first, which names its increment)
    harmonic = files["valid"]["harmonic"]
    variation = "the variation overflows the float range (inf)"
    upper = "modulus increment 2 is not finite (inf): the modulus overflows the float range"
    for method in ("all", "brute", "greedy", "upper"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["variation", "--function", files["huge"], "--submeasure", harmonic,
                       "--method", method])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "", method
        message = upper if method == "upper" else variation
        assert err.startswith(f"error: {message}"), (method, err)
        assert [str(w.message) for w in caught] == [], method


@pytest.mark.parametrize("desc,field", BOOLEAN_DESCRIPTORS + BOOLEAN_SEQUENCE_DESCRIPTORS)
def test_a_boolean_in_a_numeric_field_is_refused_naming_the_field(tmp_path, capsys, desc, field):
    from gbv.io import sequence_from_descriptor, submeasure_from_descriptor
    from gbv._util import DescriptorError

    is_sequence = (desc, field) in BOOLEAN_SEQUENCE_DESCRIPTORS
    build = sequence_from_descriptor if is_sequence else submeasure_from_descriptor
    with pytest.raises(DescriptorError, match=re.escape(f"field '{field}'")):
        build(desc)
    (tmp_path / "desc.json").write_text(json.dumps(desc))
    (tmp_path / "x.csv").write_text("1\n1/2\n")
    (tmp_path / "counting.json").write_text(json.dumps({"type": "counting"}))
    phi, x = (("counting.json", "desc.json") if is_sequence else ("desc.json", "x.csv"))
    rc = main(["certify", "--submeasure", str(tmp_path / phi), "--sequence", str(tmp_path / x)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith(f"error: field '{field}'"), err
