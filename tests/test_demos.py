"""The demo scripts, run as a user runs them, print exactly the text in
``golden/demos/<name>.txt``.

Each script runs in its own interpreter with ``PYTHONPATH=src``.  The
outputs are deterministic.  To rewrite them after an intended change:

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: pathlib.Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, check=True).stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    assert _run(demo) == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_bytes(_run(demo))
