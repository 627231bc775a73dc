"""Golden CLI reports: every report subcommand, JSON and CSV, with and
without ``--exact``, compared byte for byte with the files in ``golden/``.

A case runs ``gbv.cli.main`` in a directory holding the ``INPUTS`` below,
with relative paths, so the ``config`` echoed in a report does not depend on
where the tests run.  A case writing ``--object-out`` also compares that file.

To rewrite the goldens after an intended change of the report format (the
script prints the new digests of ``DIGEST_CASES``, to be pasted in):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_TABLE = ["1"] + [f"1/{p}" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]

INPUTS = {
    "tent.csv": "0,0\n1/3,1\n1/2,-1/2\n3/4,2\n1,0\n",
    "wave.csv": "0,0\n0.25,1.5\n0.5,-0.25\n0.75,3.0000000000004\n1,0.1\n",
    "mono.csv": "1\n1/2\n1/4\n1/8\n1/8\n",
    # subnormal entries reach the report's object
    "mono-float.csv": "# a monotone float sequence\n0.9\n\n0.3333333333333333\n1e-310\n5e-324\n",
    # sums in [1e12, 1e16), a subnormal and an exponent below -4
    "big.csv": "1234567890123.4567\n987654321012.5\n2e-05\n5e-324\n-7\n0.1\n",
    "frac.csv": "1\n-1/2\n1/3\n0\n1/4\n-1/5\n",
    "counting.json": {"type": "counting"},
    "harmonic.json": {"type": "summable", "form": "harmonic", "horizon": 64},
    "harmonic16.json": {"type": "summable", "form": "harmonic", "horizon": 16},
    "power2.json": {"type": "summable", "form": "power", "param": 2, "horizon": 16},
    "table.json": {"type": "summable", "form": "table", "table": _TABLE},
    "ones.json": {"type": "summable", "form": "table", "table": [1] * 64,
                  "declared_divergent": True},
    "sqrt.json": {"type": "density", "form": "power", "param": "1/2"},
    "log.json": {"type": "density", "form": "log"},
    "identity.json": {"type": "density", "form": "power", "param": 1},
    "power-seq.json": {"form": "power", "param": 1, "length": 12},
}

V = ["variation", "--function", "tent.csv", "--submeasure", "harmonic.json",
     "--method", "all", "--modulus", "4"]
W = ["variation", "--function", "wave.csv", "--submeasure", "table.json", "--method", "all"]
P = ["compare", "--relation", "preceq", "--a", "sqrt.json", "--b", "log.json",
     "--horizon", "300"]
B = ["certify", "--submeasure", "counting.json", "--sequence", "big.csv"]
F = ["certify", "--submeasure", "sqrt.json", "--sequence", "frac.csv"]
Z = ["construct", "--kind", "zigzag", "--sequence", "mono.csv",
     "--submeasure", "counting.json", "--object-out", "object.csv"]
D = ["construct", "--kind", "density-witness", "--g", "sqrt.json", "--h", "log.json",
     "--index", "12"]

# name -> (argv, exit code)
CASES = {
    "variation": (V, 0),
    "variation-exact": (V + ["--exact"], 0),
    "variation-csv": (V + ["--format", "csv"], 0),
    "variation-csv-exact": (V + ["--format", "csv", "--exact"], 0),
    "variation-float": (W, 0),
    "variation-float-csv": (W + ["--format", "csv"], 0),
    "compare-preceq": (P, 0),
    "compare-preceq-exact": (P + ["--exact"], 0),
    "compare-preceq-csv": (P + ["--format", "csv"], 0),
    # n/ceil(sqrt n) first reaches the cap exactly, at n = 25 (and again at 30)
    "compare-preceq-cap-boundary-exact": (["compare", "--relation", "preceq", "--a",
                                           "identity.json", "--b", "sqrt.json", "--horizon",
                                           "40", "--cap", "5", "--exact"], 2),
    "compare-preceq_m-long-cap": (["compare", "--relation", "preceq_m", "--a", "table.json",
                                   "--b", "harmonic16.json", "--cap", "0.1234567890123456"], 2),
    # an all-Fraction table against exact closed-form weights
    "compare-preceq_m-table-exact": (["compare", "--relation", "preceq_m", "--a", "table.json",
                                      "--b", "harmonic16.json", "--exact"], 0),
    "compare-katetov": (["compare", "--relation", "katetov", "--a", "harmonic.json",
                         "--b", "ones.json", "--cap", "2", "--horizon", "64"], 2),
    "compare-criterion_c-exact": (["compare", "--relation", "criterion_c", "--a", "identity.json",
                                   "--b", "sqrt.json", "--horizon", "40", "--cap", "2",
                                   "--exact"], 2),
    "certify-big": (B, 0),
    "certify-big-csv": (B + ["--format", "csv"], 0),
    "certify-frac-exact": (F + ["--exact"], 0),
    "certify-frac-csv-exact": (F + ["--format", "csv", "--exact"], 0),
    "certify-descriptor-exh-csv": (["certify", "--kind", "exh", "--submeasure", "harmonic.json",
                                    "--sequence", "power-seq.json", "--format", "csv"], 0),
    "construct-zigzag": (Z, 0),
    "construct-zigzag-exact": (Z + ["--exact"], 0),
    "construct-zigzag-float": (["construct", "--kind", "zigzag", "--sequence", "mono-float.csv",
                                "--object-out", "object.csv"], 0),
    "construct-density-witness": (D, 0),
    "construct-density-witness-exact": (D + ["--exact"], 0),
    "construct-density-witness-csv": (D + ["--format", "csv"], 0),
    "construct-density-set": (["construct", "--kind", "density-set", "--g", "identity.json",
                               "--h", "sqrt.json", "--level", "1", "--search-bound", "200"], 0),
    "construct-exh-not-fin-exact": (["construct", "--kind", "exh-not-fin", "--phi1",
                                     "identity.json", "--phi2", "counting.json", "--depth", "1",
                                     "--search-len", "16", "--exact"], 0),
    # a flat run of equal Fractions
    "construct-density-witness-200-exact": (["construct", "--kind", "density-witness", "--g",
                                             "sqrt.json", "--h", "log.json", "--index", "200",
                                             "--exact"], 0),
    "construct-separating": (["construct", "--kind", "separating", "--weights",
                              "power2.json", "--g", "sqrt.json", "--depth", "2",
                              "--horizon", "1000", "--object-out", "object.csv"], 0),
    "construct-permuted-demo": (["construct", "--kind", "permuted-demo", "--submeasure",
                                 "harmonic.json", "--perm", "2,3,1", "--function", "tent.csv"], 0),
}

# name -> (argv, exit code, sha256 of the report): cases whose report is too
# long to keep as a golden file
DIGEST_CASES = {
    # hats of blocks of 64 and more entries take the vector path
    "construct-exh-not-fin-depth2-exact": (
        ["construct", "--kind", "exh-not-fin", "--phi1", "identity.json", "--phi2",
         "counting.json", "--depth", "2", "--search-len", "1024", "--exact"], 0,
        "be94c0f7859f9594229f0b49bdaf0f6bdb48b2ecb9a5d4c569520d4755cc6fef"),
}


def _write_inputs(where: pathlib.Path) -> None:
    for name, content in INPUTS.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (where / name).write_text(text)


def _run(argv):
    """(exit code, report text, object file text or None) of one case, run in
    the current directory."""
    from gbv.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    obj = pathlib.Path("object.csv")
    if not obj.exists():
        return rc, out.getvalue(), None
    obj_text = obj.read_text()
    obj.unlink()
    return rc, out.getvalue(), obj_text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    argv, rc = CASES[name]
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got_rc, text, obj = _run(argv)
    assert got_rc == rc
    assert text.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    object_golden = GOLDEN / f"{name}.object.csv"
    if obj is None:
        assert not object_golden.exists()
    else:
        assert obj.encode() == object_golden.read_bytes()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_golden_report_digest(name, tmp_path, monkeypatch):
    argv, rc, digest = DIGEST_CASES[name]
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got_rc, text, obj = _run(argv)
    assert (got_rc, obj) == (rc, None)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _golden_files():
    # the report goldens; demos/ holds the demo outputs (tests/test_demos.py)
    return [p for p in GOLDEN.iterdir() if p.is_file()]


def test_goldens_are_small():
    assert sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file()) < 50_000
    assert {p.name.split(".")[0] for p in _golden_files()} == set(CASES)


def _rewrite_goldens():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for old in _golden_files():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(pathlib.Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, (argv, rc) in sorted(CASES.items()):
                got_rc, text, obj = _run(argv)
                if got_rc != rc:
                    sys.exit(f"{name}: exit code {got_rc}, expected {rc}")
                (GOLDEN / f"{name}.txt").write_bytes(text.encode())
                if obj is not None:
                    (GOLDEN / f"{name}.object.csv").write_bytes(obj.encode())
            for name, (argv, rc, _) in sorted(DIGEST_CASES.items()):
                got_rc, text, _ = _run(argv)
                print(name, got_rc, hashlib.sha256(text.encode()).hexdigest())
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    _rewrite_goldens()
