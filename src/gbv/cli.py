"""Command-line interface.

Subcommands: ``variation``, ``compare``, ``certify``, ``construct``,
``selftest``.  Every run emits a deterministic report that embeds the tool
version and the configuration it ran under; repeated runs with the same
inputs are byte-identical.  Numbers in a JSON report: floats under
``result`` carry 12 significant digits; ``config`` is echoed as given;
Fractions are "p/q" strings under ``--exact`` and otherwise the nearest
float.  CSV series use ``%.12g`` (Fractions as "p/q" under ``--exact``).
NaN, infinities and Fractions beyond the float range are refused.

Exit codes: 0 success, 1 input or usage error, 2 for a mathematically
meaningful negative outcome (a violated order relation, a failed witness
search, a failed certificate check) so scripts can branch on substance
rather than parse text.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, is_dataclass

from . import __version__
from ._util import (
    MAX_HORIZON,
    DescriptorError,
    HorizonExceeded,
    HypothesisViolation,
    SizeRefusal,
    format_number,
    report_json,
)
from .constructions import (
    ConstructionCertificate,
    density_witness_monotone,
    density_witness_set,
    exh_minus_fin_sequence,
    permuted_equivalence_demo,
    separating_sequence,
    zigzag_from_sequence,
)
from .io import (
    load_function_csv,
    load_sequence,
    load_submeasure,
    save_function_csv,
    save_sequence,
)
from .orders import compare
from .selftest import run_all
from .sequence_spaces import exh_certificate, fin_certificate
from .submeasure import SequencePrefix
from .variation import (
    PiecewiseLinearFunction,
    bv_norm_detail,
    jordan_variation,
    modulus_of_variation,
    variation_greedy,
    variation_upper_bound,
)

OK, INPUT_ERROR, NEGATIVE_OUTCOME = 0, 1, 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DescriptorError, HorizonExceeded, HypothesisViolation, SizeRefusal,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's own 2, which
    is reserved for negative outcomes.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gbv",
        description="Submeasure hat-norms, generalized bounded variation, and "
                    "order checkers between the induced spaces.")
    parser.add_argument("--version", action="version", version=f"gbv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("variation", help="variation functionals of a function CSV")
    p.add_argument("--function", required=True, help="CSV of t,y breakpoint lines")
    p.add_argument("--submeasure", required=True, help="submeasure descriptor JSON")
    p.add_argument("--method", choices=("greedy", "brute", "upper", "all"), default="all")
    p.add_argument("--modulus", type=int, default=None, metavar="N",
                   help="also emit the modulus vector up to N intervals")
    _common_flags(p)
    p.set_defaults(handler=_cmd_variation)

    p = sub.add_parser("compare", help="order/inclusion checks between two submeasures")
    p.add_argument("--relation", required=True,
                   choices=("preceq", "preceq_m", "katetov", "criterion_c"))
    p.add_argument("--a", required=True, help="descriptor of the dominating side")
    p.add_argument("--b", required=True, help="descriptor of the dominated side")
    p.add_argument("--horizon", type=int, default=10 ** 4)
    p.add_argument("--cap", type=float, default=10 ** 3,
                   help="ratio cap (preceq*), level M (katetov, criterion_c)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("certify", help="membership-style certificates for a sequence")
    p.add_argument("--kind", choices=("fin", "exh", "both"), default="both")
    p.add_argument("--submeasure", required=True)
    p.add_argument("--sequence", required=True,
                   help="CSV (one value per line) or descriptor JSON")
    _common_flags(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("construct", help="constructive witnesses with certificates")
    p.add_argument("--kind", required=True,
                   choices=("density-witness", "density-set", "zigzag",
                            "exh-not-fin", "separating", "permuted-demo"))
    p.add_argument("--g", help="density descriptor (g side)")
    p.add_argument("--h", help="density descriptor (h side)")
    p.add_argument("--index", type=int, help="prefix length n (density-witness)")
    p.add_argument("--level", type=int, help="separation level k (density-set)")
    p.add_argument("--search-bound", type=int, default=10 ** 6)
    p.add_argument("--sequence", help="monotone sequence CSV (zigzag)")
    p.add_argument("--submeasure", help="submeasure descriptor (zigzag, permuted-demo)")
    p.add_argument("--phi1", help="submeasure descriptor (exh-not-fin)")
    p.add_argument("--phi2", help="submeasure descriptor (exh-not-fin)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--search-len", type=int, default=2 ** 10)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--weights", help="weights descriptor (separating)")
    p.add_argument("--horizon", type=int, default=10 ** 6)
    p.add_argument("--perm", help="comma-separated permutation images (permuted-demo)")
    p.add_argument("--function", help="function CSV (permuted-demo)")
    p.add_argument("--object-out", help="write the constructed object as CSV here")
    _common_flags(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--fast", action="store_true", help="scaled-down smoke run")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def _common_flags(p):
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--exact", action="store_true",
                   help="serialize rationals as p/q strings")


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_variation(args) -> int:
    f = load_function_csv(args.function)
    phi = load_submeasure(args.submeasure)
    brute = args.method in ("brute", "all")
    detail = bv_norm_detail(f, phi, "brute" if brute else "greedy")
    variation = {}
    if args.method == "greedy":
        variation["greedy"] = detail.variation
    elif args.method == "all":
        variation["greedy"] = variation_greedy(f, phi)
    if brute:
        variation["brute"] = detail.variation
    if args.method in ("upper", "all"):
        variation["upper"] = variation_upper_bound(f, phi)
    n_max = f.segments if args.modulus is None else args.modulus
    result = {
        "jordan": jordan_variation(f),
        "variation": variation,
        "modulus_vector": list(modulus_of_variation(f, n_max).values),
        "norm": detail.value,
        "norm_method": detail.method,
        "norm_exact": detail.exact,
    }
    _emit(args, "variation", result,
          series=("modulus_vector", list(enumerate(result["modulus_vector"]))))
    return OK


def _check_horizon(horizon: int) -> int:
    if horizon > MAX_HORIZON:
        raise SizeRefusal(f"--horizon {horizon} is past the cap {MAX_HORIZON}")
    return horizon


def _cmd_compare(args) -> int:
    if args.horizon < 1:
        raise DescriptorError(f"--horizon must be at least 1, got {args.horizon}")
    _check_horizon(args.horizon)
    if not 0 < args.cap < math.inf:
        raise DescriptorError(f"--cap must be positive and finite, got {args.cap}")
    report = compare(load_submeasure(args.a), load_submeasure(args.b),
                     args.relation, args.horizon, args.cap)
    payload = {
        "relation": report.relation,
        "bound_estimate": report.bound_estimate,
        "verdict": report.verdict,
        "witness": _witness_payload(report.witness),
        "details": {k: v for k, v in report.details.items()
                    if not isinstance(v, ConstructionCertificate)},
    }
    _emit(args, "compare", payload)
    return NEGATIVE_OUTCOME if report.verdict == "violated-by-witness" else OK


def _witness_payload(w):
    if w is None:
        return None
    if isinstance(w, SequencePrefix):
        return {"sequence": list(w.entries)}
    if isinstance(w, frozenset):
        return {"set": sorted(w)}
    if isinstance(w, tuple):
        return {"pair": list(w)}
    return {"value": w}


def _cmd_certify(args) -> int:
    phi = load_submeasure(args.submeasure)
    x = load_sequence(args.sequence)
    payload = {}
    if args.kind in ("fin", "both"):
        payload["fin"] = fin_certificate(phi, x).to_payload()
    if args.kind in ("exh", "both"):
        payload["exh"] = exh_certificate(phi, x).to_payload()
    series = None
    if "fin" in payload:
        series = ("truncation_norms",
                  list(enumerate(payload["fin"]["truncation_norms"], start=1)))
    elif "exh" in payload:
        series = ("tail_norms", list(enumerate(payload["exh"]["tail_norms"], start=1)))
    _emit(args, "certify", payload, series=series)
    return OK


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "density-witness":
        _need(args, "g", "h", "index")
        cert = density_witness_monotone(_density_bound(args.g), _density_bound(args.h),
                                        args.index)
    elif kind == "density-set":
        _need(args, "g", "h", "level")
        cert = density_witness_set(_density_bound(args.g), _density_bound(args.h),
                                   args.level, args.search_bound)
    elif kind == "zigzag":
        _need(args, "sequence")
        phi = load_submeasure(args.submeasure) if args.submeasure else None
        _, cert = zigzag_from_sequence(load_sequence(args.sequence), phi)
    elif kind == "exh-not-fin":
        _need(args, "phi1", "phi2")
        cert = exh_minus_fin_sequence(load_submeasure(args.phi1),
                                      load_submeasure(args.phi2),
                                      args.depth, args.search_len, args.monotone)
    elif kind == "separating":
        _need(args, "weights", "g")
        weights = load_submeasure(args.weights).weights
        if weights is None:
            raise DescriptorError("--weights must be a summable descriptor")
        cert = separating_sequence(weights, _density_bound(args.g),
                                   args.depth, _check_horizon(args.horizon))
    else:
        _need(args, "submeasure", "perm", "function")
        perm = tuple(int(v) for v in args.perm.split(","))
        cert = permuted_equivalence_demo(load_submeasure(args.submeasure), perm,
                                         load_function_csv(args.function))
    if args.object_out and cert.obj is not None:
        if isinstance(cert.obj, PiecewiseLinearFunction):
            save_function_csv(args.object_out, cert.obj)
        elif isinstance(cert.obj, SequencePrefix):
            save_sequence(args.object_out, cert.obj)
        else:
            save_sequence(args.object_out, sorted(cert.obj))
    _emit(args, "construct", _certificate_payload(cert))
    search_failed = any("failed" in note or "no-witness" in note for note in cert.notes)
    ok = cert.all_passed and cert.obj is not None and not search_failed
    return OK if ok else NEGATIVE_OUTCOME


def _density_bound(path):
    bound = load_submeasure(path).bound
    if bound is None:
        raise DescriptorError(f"{path}: expected a density descriptor")
    return bound


def _need(args, *fields):
    for name in fields:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise DescriptorError(f"--{name} is required for --kind {args.kind}")


def _certificate_payload(cert: ConstructionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "object": _object_payload(cert.obj),
        "checks": [{"name": c.name, "lhs": c.lhs, "relation": c.relation,
                    "rhs": c.rhs, "passed": c.passed} for c in cert.checks],
        "all_passed": cert.all_passed,
        "notes": list(cert.notes),
        "details": {k: _object_payload(v) for k, v in cert.details.items()},
    }


def _object_payload(obj):
    if isinstance(obj, SequencePrefix):
        return {"sequence": list(obj.entries)}
    if isinstance(obj, PiecewiseLinearFunction):
        return {"breakpoints": list(obj.breakpoints), "values": list(obj.values)}
    if isinstance(obj, frozenset):
        return {"set": sorted(obj)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    return obj


def _cmd_selftest(args) -> int:
    results = run_all(fast=args.fast, stream=print)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} acceptance criteria passed")
    return OK if passed == len(results) else INPUT_ERROR


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _emit(args, command: str, result: dict, series=None) -> None:
    if args.format == "csv" and series is not None:
        name, rows = series
        lines = [f"# gbv {__version__} {command} series={name}"]
        lines += [f"{i},{format_number(v, args.exact)}" for i, v in rows]
        text = "\n".join(lines) + "\n"
    else:
        head = {
            "tool": "gbv",
            "version": __version__,
            "command": command,
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("handler",) and v is not None},
        }
        text = report_json(head, result, exact=args.exact)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
