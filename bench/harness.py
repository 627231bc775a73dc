"""Timed loop, op bookkeeping and result accounting shared by the workloads.

One op is one call of a public gbv function, or one in-process
``gbv.cli.main([...])`` invocation.  A workload hands out whole rounds of ops
from a pool of ``pool_rounds`` rounds; the timed phase runs rounds until the
requested time has passed and stops only at the end of a pass over the pool,
so every run times whole passes: the same ops on the same inputs, however
fast the code runs, and the share of failed ops does not depend on the run
length.

The speed a shared machine gives the process swings by up to 2x over minutes,
so after every round the phase times a fixed reference kernel that does not
touch gbv, and the throughputs divide each round's time by how much slower
than ``REFERENCE_S`` the kernel ran around that round.

Outputs are checked after the timed phase.  Rounds with the same signature run
the same ops on the same inputs: the first occurrence of each op is checked in
full, and every later occurrence must return an equal output.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

EXACT, FLOAT = "exact", "float"
REPORT_REL = 1e-11         # CLI reports carry 12 significant digits
# About the median time of reference_s() on a 2-core machine at 2.1 GHz:
# throughputs are ops per second at the speed where the kernel takes this long.
REFERENCE_S = 0.012


@dataclass
class Op:
    """One call into the library.

    ``call`` takes no arguments and returns the output.  ``expect_rc`` is set
    for CLI ops, whose output is a :class:`CliOutput`.  ``meta`` carries what
    the checks need to know about the inputs.
    """

    kind: str
    rail: str
    call: object
    expect_rc: int = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliOutput:
    rc: int
    text: str

    def report(self) -> dict:
        return json.loads(self.text)


@dataclass(frozen=True)
class OpError:
    """Output slot of an op that raised."""

    message: str


def run_cli(argv) -> CliOutput:
    """In-process ``gbv.cli.main(argv)`` with the report captured from stdout."""
    from gbv import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return CliOutput(rc, buf.getvalue())


def call_op(op: Op):
    try:
        return op.call()
    except Exception as exc:          # an op that raises is a failed op, not a crash
        return OpError(f"{type(exc).__name__}: {exc}")


def _reference_kernel():
    """Fraction, int and small-array numpy work, the kinds the workloads do.
    Dict updates and arrays large enough to be mapped afresh on every call
    were left out: their times jitter by 15-20% on their own."""
    s = Fraction(0)
    for i in range(1, 1600):
        s += Fraction(i % 7 + 1, i % 11 + 1)
    t = 0
    for k in range(1, 6000):
        t = (t * 31 + k * k) % 1000003
    a = np.arange(1, 4001, dtype=float)
    acc = 0.0
    for _ in range(200):
        acc += float((np.cumsum(a) / a).max())
    return s, t, acc


def reference_s() -> float:
    """Median time of five runs of the reference kernel.  Now and then one
    run is 30% fast for no reason the rounds around it share; a median of
    five leaves such runs out."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class PhaseResult:
    rounds: int = 0
    start: float = None          # clock reading at the first op
    wall: float = 0.0
    busy: dict = field(default_factory=lambda: {EXACT: 0.0, FLOAT: 0.0})
    count: dict = field(default_factory=lambda: {EXACT: 0, FLOAT: 0})
    first: dict = field(default_factory=dict)     # signature -> (ops, outputs)
    repeats: list = field(default_factory=list)   # (signature, op index, equal?)
    reports: int = 0                              # CLI reports produced
    report_bytes: int = 0
    by_kind: dict = field(default_factory=dict)   # op kind -> [calls, seconds]
    round_walls: list = field(default_factory=list)
    round_busy: list = field(default_factory=list)  # per round: rail -> seconds
    refs: list = field(default_factory=list)        # reference_s() after each round

    @property
    def attempted(self) -> int:
        return self.count[EXACT] + self.count[FLOAT]

    def slowness(self, r: int) -> float:
        """The reference kernel's time around round r (the mean of the
        measurements just before and after it) over ``REFERENCE_S``."""
        around = self.refs[max(r - 1, 0):r + 1]
        return sum(around) / len(around) / REFERENCE_S

    def scaled_round_walls(self) -> list:
        return [w / self.slowness(r) for r, w in enumerate(self.round_walls)]

    def scaled_busy(self, rail: str) -> float:
        return sum(b[rail] / self.slowness(r) for r, b in enumerate(self.round_busy))


def run_phase(workload, seconds: float = None, rounds: int = None,
              before_round=None) -> PhaseResult:
    """Run whole passes over the workload's pool until ``seconds`` have passed,
    or exactly ``rounds`` rounds.

    ``before_round(r)`` runs ahead of round r, outside the round's time.
    """
    clock = time.perf_counter
    res = PhaseResult()
    start = None
    r = 0
    while True:
        if before_round is not None:
            before_round(r)
        sig = workload.signature(r)
        ops = workload.round_ops(r)
        seen = res.first.get(sig)
        outputs = []
        busy = {EXACT: 0.0, FLOAT: 0.0}
        round_start = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            if start is None:
                start = res.start = t0
            out = call_op(op)
            dt = clock() - t0
            busy[op.rail] += dt
            res.busy[op.rail] += dt
            res.count[op.rail] += 1
            slot = res.by_kind.setdefault(op.kind, [0, 0.0])
            slot[0] += 1
            slot[1] += dt
            if isinstance(out, CliOutput):
                res.reports += 1
                res.report_bytes += len(out.text)
            if seen is None:
                outputs.append(out)
            else:
                res.repeats.append((sig, i, out == seen[1][i]))
        if seen is None:
            res.first[sig] = (ops, outputs)
        end = clock()
        res.round_walls.append(end - round_start)
        res.round_busy.append(busy)
        res.refs.append(reference_s())
        r += 1
        elapsed = end - start
        if rounds is not None and r >= rounds:
            break
        if rounds is None and elapsed >= seconds and r % workload.pool_rounds == 0:
            break
    res.rounds = r
    res.wall = elapsed
    return res


def evaluate(workload, phase: PhaseResult):
    """Check a phase's outputs.  Returns (failed ops, check failures, messages).

    An op fails when it raised, returned an unexpected exit code, failed a
    check, or (on a repeat) returned something else than its first occurrence.
    """
    failed_first = {}
    messages = []
    check_failures = 0
    for sig, (ops, outputs) in phase.first.items():
        bad = set()
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, OpError):
                bad.add(i)
                messages.append(f"{op.kind}: raised {out.message}")
            elif op.expect_rc is not None and out.rc != op.expect_rc:
                bad.add(i)
                messages.append(f"{op.kind}: exit code {out.rc}, expected {op.expect_rc}")
        errored = set(bad)
        for i, msg in workload.check_round(ops, outputs, skip=errored):
            if i not in bad:
                bad.add(i)
                check_failures += 1
            messages.append(f"{ops[i].kind}: {msg}")
        failed_first[sig] = bad
    failed = sum(len(b) for b in failed_first.values())
    for sig, i, equal in phase.repeats:
        if i in failed_first[sig] or not equal:
            failed += 1
            if not equal:
                check_failures += 1
                messages.append(f"round signature {sig} op {i}: output differs from its first run")
    return failed, check_failures, messages


def report_number(v):
    """A number from a CLI report: ``--exact`` writes Fractions as "p/q"."""
    return Fraction(v) if isinstance(v, str) else v


def rel_close(a, b, rel: float) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
