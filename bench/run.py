#!/usr/bin/env python3
"""gbv benchmark: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The same
object, with run details, goes to ``bench/out/result-<workload>-<seed>-trace<t>.json``
and the spans of a traced run to ``bench/out/spans-<workload>-<seed>.npz``.
The untraced run times whole passes over the workload's pool of rounds for at
least ``--seconds``; the traced run runs a fixed ``TRACE_PAIRS`` rounds, each
traced and then replayed untraced.  See ``bench/README.md``.
"""

import os
import sys
import time

# One BLAS thread: the benchmark is one process with no worker threads.  Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def process_age() -> float:
    """Seconds since this process started: boot-time clock minus the start
    time the kernel records in /proc/self/stat (field 22, in clock ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")


AGE_AT_ENTRY = process_age()
CLOCK_AT_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("oracle", "variation", "horizon")
# Rounds of a traced run, each followed by its untraced replay.  Fixed, so
# the per-layer totals cover the same work on every run.
TRACE_PAIRS = 4


def _import_library():
    sys.path.insert(0, SRC)
    try:
        import gbv
    except ImportError as exc:
        sys.exit(f"bench: cannot import gbv from {SRC}: {exc}")
    if not os.path.abspath(gbv.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: gbv was imported from {gbv.__file__}, not from {SRC}")


def _make_workload(name, seed, workdir):
    if name == "oracle":
        from wl_oracle import OracleWorkload
        return OracleWorkload(seed, workdir)
    if name == "variation":
        from wl_variation import VariationWorkload
        return VariationWorkload(seed, workdir)
    from wl_horizon import HorizonWorkload
    return HorizonWorkload(seed, workdir)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(phase, setup_s, peak_rss_mb):
    from harness import EXACT, FLOAT

    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(phase.attempted / sum(phase.scaled_round_walls()), "ops/s"),
        "exact_ops_per_s": _metric(phase.count[EXACT] / phase.scaled_busy(EXACT), "ops/s"),
        "float_ops_per_s": _metric(phase.count[FLOAT] / phase.scaled_busy(FLOAT), "ops/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def layer_metrics(totals, counters, profiles, phase, overhead):
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    brute = ("variation.bruteforce.exact", "variation.bruteforce.float")
    subsets = counters["oracle.subsets"]
    families = counters["variation.families"]
    m = {
        "oracle.calls": _metric(calls("oracle"), "count"),
        "oracle.self_s": _metric(self_s("oracle"), "s"),
        "oracle.subsets": _metric(subsets, "count"),
        "oracle.us_per_subset": _metric(1e6 * self_s("oracle") / subsets if subsets else 0.0, "us"),
        "submeasure.set_value.calls": _metric(calls("submeasure.set_value"), "count"),
        "submeasure.set_value.self_s": _metric(self_s("submeasure.set_value"), "s"),
        "submeasure.hat.calls": _metric(calls("submeasure.hat"), "count"),
        "submeasure.hat.self_s": _metric(self_s("submeasure.hat"), "s"),
        "submeasure.truncation_norms.self_s": _metric(self_s("submeasure.truncation_norms"), "s"),
        "submeasure.tail_norms.self_s": _metric(self_s("submeasure.tail_norms"), "s"),
        "variation.bruteforce.exact.calls": _metric(calls(brute[0]), "count"),
        "variation.bruteforce.exact.self_s": _metric(self_s(brute[0]), "s"),
        "variation.bruteforce.float.self_s": _metric(self_s(brute[1]), "s"),
        "variation.families": _metric(families, "count"),
        "variation.families_per_s": _metric(
            families / (total_s(brute[0]) + total_s(brute[1])) if families else 0.0, "1/s"),
        "variation.profiles.hits": _metric(profiles[0], "count"),
        "variation.profiles.misses": _metric(profiles[1], "count"),
    }
    for name in ("variation.greedy", "variation.upper_bound", "variation.modulus_dp",
                 "variation.modulus_enum", "sequence_spaces.fin", "sequence_spaces.exh",
                 "orders.preceq", "orders.preceq_m", "orders.katetov", "orders.criterion_c",
                 "constructions.separating", "constructions.exh_minus_fin",
                 "constructions.density_witness", "constructions.zigzag",
                 "io.load", "io.save", "cli"):
        m[name + ".self_s"] = _metric(self_s(name), "s")
    m["cli.report_bytes"] = _metric(phase.report_bytes / phase.reports if phase.reports else 0.0,
                                    "bytes")
    m["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
    return m


class _Alternating:
    """Each round of ``workload`` twice in a row; the repeat must return the
    same outputs."""

    def __init__(self, workload):
        self.workload = workload

    def signature(self, r):
        return self.workload.signature(r // 2)

    def round_ops(self, r):
        return self.workload.round_ops(r // 2)


def _profile_counts():
    from gbv import variation

    info = variation._oscillation_profiles.cache_info()
    return info.hits, info.misses


def _clear_profile_caches():
    from gbv import variation

    variation._oscillation_profiles.cache_clear()
    variation._sorted_profile_matrix.cache_clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from harness import EXACT, FLOAT, call_op, evaluate, run_phase

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = _make_workload(args.workload, args.seed, workdir)
        for op in workload.warmup:
            call_op(op)
        # Collections in the timed phase should not rescan set-up objects.
        gc.collect()
        gc.freeze()
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace}
        if args.trace == 0:
            def start_pass(r):
                # Every pass meets the pool's functions with cold profile caches.
                if r % workload.pool_rounds == 0:
                    _clear_profile_caches()

            cpu0 = time.process_time()
            phase = run_phase(workload, seconds=args.seconds, before_round=start_pass)
            cpu_s = time.process_time() - cpu0
            setup_s = AGE_AT_ENTRY + (phase.start - CLOCK_AT_ENTRY)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t_check = time.perf_counter()
            failed, check_failures, messages = evaluate(workload, phase)
            attempted = phase.attempted
            metrics = end_to_end_metrics(phase, setup_s, peak_rss_mb)
            # Unscaled throughputs, for reading the machine's speed beside the metrics.
            details.update(rounds=phase.rounds, wall_s=phase.wall, cpu_s=cpu_s,
                           entry_age_s=AGE_AT_ENTRY, reference_s=phase.refs,
                           unscaled_ops_per_s=phase.attempted / sum(phase.round_walls),
                           unscaled_exact_ops_per_s=phase.count[EXACT] / phase.busy[EXACT],
                           unscaled_float_ops_per_s=phase.count[FLOAT] / phase.busy[FLOAT],
                           check_s=time.perf_counter() - t_check, by_kind=phase.by_kind)
        else:
            from tracing import Tracer

            tracer = Tracer()
            profiles = [0, 0]

            def before_round(r):
                # Even rounds run traced, odd rounds replay them untraced, each
                # from cold profile caches (cache_clear also zeroes the counts),
                # so the machine's drift falls on both sides alike.
                if r % 2 == 0:
                    _clear_profile_caches()
                    tracer.install()
                else:
                    tracer.remove()
                    hits, misses = _profile_counts()
                    profiles[0] += hits
                    profiles[1] += misses
                    _clear_profile_caches()

            try:
                phase = run_phase(_Alternating(workload), rounds=2 * TRACE_PAIRS,
                                  before_round=before_round)
            finally:
                tracer.remove()
            scaled = phase.scaled_round_walls()
            traced_s, plain_s = sum(scaled[0::2]), sum(scaled[1::2])
            failed, check_failures, messages = evaluate(workload, phase)
            attempted = phase.attempted
            metrics = layer_metrics(tracer.totals(), tracer.counters, profiles, phase,
                                    traced_s / plain_s - 1.0)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz"))
            pair_ratios = [t / u for t, u in zip(scaled[0::2], scaled[1::2])]
            details.update(rounds=phase.rounds, traced_s=traced_s, untraced_s=plain_s,
                           pair_ratios=pair_ratios, spans=len(tracer.start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in messages[:20]:
        print(f"check: {msg}", file=sys.stderr)
    result = {"correct": check_failures == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details["messages"] = messages[:200]
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
