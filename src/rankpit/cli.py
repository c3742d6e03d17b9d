"""Command-line interface: one binary, subcommand per capability.

JSON is the machine interface and is byte-deterministic for identical
(argv, seed): reports carry only exact values (integers and decimal/fraction
strings), embed the fully resolved run configuration, and omit wall-clock
timings unless --timings opts in.  Text output renders the same data for
humans.  Exit codes: 0 success (or pit verdict "zero"), 1 pit verdict
"nonzero", 2 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
import traceback
from fractions import Fraction

from . import algdep, circuit as ckt, measure, nw, pit
from .domains import PrimeField, Rationals
from .errors import InvalidParams, RankpitError
from .poly import DEFAULT_TERM_CAP
from .util import read_text, write_text

USAGE_EXIT = 64
ERROR_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _fmt(value):
    """Render report values as exact JSON-safe data."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, float):
        return repr(value)
    return value


def _point(values, domain):
    return [domain.format(v) for v in values]


def _add_common(p: _Parser):
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed (default: $RANKPIT_SEED or 0)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect (every scan "
                        "is sequential)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.add_argument("--cap-expansion", type=int, default=DEFAULT_TERM_CAP,
                   help="expansion term cap")
    p.add_argument("--cap-matrix", type=int, default=measure.DEFAULT_MATRIX_CAP,
                   help="measure matrix cell cap")
    p.add_argument("--cap-points", type=int, default=pit.DEFAULT_POINT_CAP,
                   help="hitting-set point cap")
    p.add_argument("--cap-annihilator", type=int, default=None,
                   help="annihilator degree cap override")


def _resolved_config(args) -> dict:
    # --workers is not part of the report: it has no effect, and reports
    # must be byte-identical whatever value it is given
    return {
        "seed": args.seed,
        "output": "json" if args.json else "text",
        "timings": bool(args.timings),
        "caps": {
            "expansion_terms": args.cap_expansion,
            "matrix_cells": args.cap_matrix,
            "hitting_set_points": args.cap_points,
            "annihilator_degree": args.cap_annihilator,
        },
    }


def _emit(args, command: str, result: dict) -> str:
    report = {"command": command, "config": _resolved_config(args), "result": result}
    if args.json:
        return json.dumps(_fmt(report), indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write(f"[{command}]\n")
    for key, value in _fmt(result).items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        buf.write(f"  {key}: {value}\n")
    buf.write(f"  config: {json.dumps(_fmt(_resolved_config(args)), sort_keys=True)}\n")
    return buf.getvalue()


def _timed(fn, *args, **kwargs):
    """fn's result and its wall-clock time in milliseconds."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000


def _load_polys(path: str):
    """circuit.parse_polys of the file; an empty tuple raises InvalidParams."""
    domain, nvars, polys = ckt.parse_polys(read_text(path))
    if not polys:
        raise InvalidParams("the poly file holds an empty tuple")
    return domain, nvars, polys


def _field_from_flag(spec: str | None):
    if spec is None or spec == "rational":
        return Rationals()
    if spec.startswith("prime:"):
        try:
            modulus = int(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidParams(f"bad --field value {spec!r} (prime:P)") from None
        return PrimeField(modulus)
    raise InvalidParams(f"bad --field value {spec!r} (rational or prime:P)")


# ----------------------------------------------------------------------
# subcommands

def _cmd_rank(args) -> tuple[int, str]:
    domain, _, polys = _load_polys(args.poly_file)
    cert = algdep.algebraic_rank(polys, mode=args.mode, seed=args.seed,
                                 term_cap=args.cap_expansion)
    result = {
        "rank": cert.rank,
        "basis": [i + 1 for i in cert.basis_indices],
        "method": cert.method,
        "evaluation_points": [_point(p, domain) for p in cert.evaluation_points],
        "security_bits": cert.security,
        "error_bound": cert.error_bound,
        "seed": args.seed,
    }
    return 0, _emit(args, "rank", result)


def _cmd_annihilate(args) -> tuple[int, str]:
    _, _, polys = _load_polys(args.poly_file)
    ann = algdep.find_annihilator(polys, cap=args.cap_annihilator,
                                  term_cap=args.cap_expansion)
    result = {
        "annihilator": ann.R.to_text(var_prefix="z"),
        "degree": ann.degree,
        "tuple_size": len(polys),
    }
    return 0, _emit(args, "annihilate", result)


def _cmd_depend(args) -> tuple[int, str]:
    domain, _, polys = _load_polys(args.poly_file)
    # the rank's annihilators are the goodness certificates' annihilators
    cert, annihilators = algdep._certified_rank(polys, args.seed, args.cap_expansion)
    sampler = algdep.TranslationSampler.for_tuple(
        len(polys), cert.rank, max(1, max(q.degree() for q in polys)),
        seed=args.seed, max_retries=args.max_retries)
    a = algdep.sample_good_translation(polys, cert.basis_indices, sampler, annihilators,
                                       term_cap=args.cap_expansion)
    witness = algdep.reconstruct_dependence(polys, cert.basis_indices, a,
                                            term_cap=args.cap_expansion)
    result = {
        "a": _point(a, domain),
        "basis": [i + 1 for i in witness.basis],
        "witnesses": {str(i + 1): {"F": f.to_text(var_prefix="z"),
                                   "truncation_degree": witness.truncation_degrees[i]}
                      for i, f in sorted(witness.F.items())},
        "grid_size": sampler.grid_size,
        "seed": args.seed,
    }
    return 0, _emit(args, "depend", result)


def _cmd_rewrite(args) -> tuple[int, str]:
    c = ckt.parse_file(args.circuit)
    rewritten, a = algdep.rewrite_circuit(c, seed=args.seed,
                                          term_cap=args.cap_expansion)
    text = ckt.serialize(rewritten)
    if args.out:
        write_text(args.out, text)
    result = {
        "a": _point(a, c.domain),
        "gates": [{"inner_count": len(g.inner)} for g in rewritten.gates],
        "declared": {"d": rewritten.declared.d, "k": rewritten.declared.k,
                     "delta": rewritten.declared.delta},
        "out": args.out,
        "circuit": None if args.out else json.loads(text),
        "seed": args.seed,
    }
    return 0, _emit(args, "rewrite", result)


def _cmd_measure(args) -> tuple[int, str]:
    _, nvars, polys = _load_polys(args.poly_file)
    if not 0 <= args.index < len(polys):
        raise InvalidParams(
            f"--index {args.index} is out of range for {len(polys)} polynomial(s)")
    p = polys[args.index]
    spec = measure.MeasureSpec.multilinear(nvars, args.r, args.m)  # bad degrees: before any step
    if args.sweep:
        buf = io.StringIO()
        writer = csv.writer(buf)
        # wall-clock time only under --timings, as in the JSON report
        writer.writerow(["r", "m", "dimension", "rows", "cols"]
                        + ["millis"] * args.timings)
        for r in range(args.r + 1):
            for m in range(args.m + 1):
                rep, elapsed_ms = _timed(measure.psp_dimension, p,
                                         measure.MeasureSpec.multilinear(nvars, r, m),
                                         matrix_cap=args.cap_matrix)
                writer.writerow([r, m, rep.dimension, rep.rows, rep.cols]
                                + [f"{elapsed_ms:.3f}"] * args.timings)
        return 0, buf.getvalue()
    rep, elapsed_ms = _timed(measure.psp_dimension, p, spec, matrix_cap=args.cap_matrix)
    result = {
        "dimension": rep.dimension,
        "matrix_shape": {"rows": rep.rows, "cols": rep.cols},
        "rank_method": rep.rank_method,
        "timing_ms": elapsed_ms if args.timings else None,
        "r": args.r,
        "m": args.m,
        "derivative_count": rep.derivative_count,
    }
    return 0, _emit(args, "measure", result)


def _cmd_nw(args) -> tuple[int, str]:
    domain = _field_from_flag(args.field)
    base = nw.NWParams(args.n, args.q, args.e)
    gamma = 1 if args.gamma is None else args.gamma
    if args.p is None:
        poly = nw.hard_polynomial(nw.HardPolyParams(base, gamma), domain, args.cap_expansion)
        return 0, poly.to_text() + "\n"
    try:
        alive = Fraction(args.p)
    except (ValueError, ZeroDivisionError):
        raise InvalidParams(f"bad --p value {args.p!r} (a rational in (0, 1])") from None
    params = nw.HardPolyParams(base, gamma=gamma, p=alive)
    stats = nw.survival_experiment(params, trials=args.trials, seed=args.seed)
    result = {
        "n": args.n, "q": args.q, "e": args.e,
        "gamma": params.gamma, "p": params.p,
        **stats,
        "seed": args.seed,
    }
    return 0, _emit(args, "nw", result)


def _cmd_pit(args) -> tuple[int, str]:
    c = ckt.parse_file(args.circuit)
    report, elapsed_ms = _timed(pit.pit_test, c, mode=args.mode, seed=args.seed,
                                point_cap=args.cap_points, rounds=args.rounds,
                                certify_rank=args.certify_rank,
                                expansion_term_cap=args.cap_expansion)
    result = {
        "verdict": report.verdict,
        "witness": None if report.witness is None else _point(report.witness, c.domain),
        "ell": report.ell,
        "ell_used": report.ell_used,
        "clamped": report.clamped,
        "hitting_set_size": report.hitting_set_size,
        "mode": report.mode,
        "rank_certified": report.rank_certified,
        "oracle": None if report.oracle is None else {
            "nonzero": report.oracle.nonzero,
            "witness": (None if report.oracle.witness is None
                        else _point(report.oracle.witness, c.domain)),
            "rounds": report.oracle.rounds,
            "sample_size": report.oracle.sample_size,
            "error_bound": report.oracle.error_bound,
        },
        "expansion_nonzero": report.expansion_nonzero,
        "consistent": report.consistent,
        "timings": elapsed_ms if args.timings else None,
        "seed": args.seed,
    }
    code = 1 if report.verdict == "nonzero" else 0
    return code, _emit(args, "pit", result)


def _cmd_bench(args) -> tuple[int, str]:
    domain = _field_from_flag(args.field)
    base = nw.NWParams(args.n, args.q, args.e)
    poly = nw.hard_polynomial(nw.HardPolyParams(base, 1), domain, args.cap_expansion)
    spec = measure.MeasureSpec.multilinear(poly.nvars, args.r, args.m)
    rep = measure.psp_dimension(poly, spec, matrix_cap=args.cap_matrix)
    bound = measure.circuit_measure_bound(args.T, poly.nvars, args.k, args.n,
                                          args.r, args.m, args.s)
    result = {
        "nw": {"n": args.n, "q": args.q, "e": args.e, "nvars": poly.nvars,
               "monomials": poly.num_terms()},
        "phi": rep.dimension,
        "circuit_bound": bound,
        "bound_inputs": {"T": args.T, "k": args.k, "r": args.r, "m": args.m,
                         "s": args.s},
        "ratio": Fraction(rep.dimension, bound) if bound else None,
        "note": "toy-scale comparison; no asymptotic claim",
    }
    return 0, _emit(args, "bench", result)


# ----------------------------------------------------------------------

@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="rankpit",
                     description="Exact rank certificates, dependence witnesses, "
                                 "measure computations, and hitting-set identity tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="algebraic-rank certificate")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--mode", choices=["randomized", "symbolic"], default="randomized")
    _add_common(p)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("annihilate", help="minimal-degree annihilating polynomial")
    p.add_argument("--poly-file", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_annihilate)

    p = sub.add_parser("depend", help="functional-dependence witness")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--max-retries", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=_cmd_depend)

    p = sub.add_parser("rewrite", help="rewrite gates over basis components")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", default=None, help="write the rewritten circuit here")
    _add_common(p)
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("measure", help="projected shifted partials dimension")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--index", type=int, default=0, help="which polynomial in the file")
    p.add_argument("--r", type=int, required=True, help="derivative degree")
    p.add_argument("--m", type=int, required=True, help="shift degree")
    p.add_argument("--sweep", action="store_true",
                   help="CSV sweep over all r' <= r, m' <= m")
    _add_common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("nw", help="design polynomial / restriction experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--p", default=None, help="alive probability: run the experiment")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--field", default=None, help="rational (default) or prime:P")
    _add_common(p)
    p.set_defaults(fn=_cmd_nw)

    p = sub.add_parser("pit", help="polynomial identity test")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=["hitting-set", "oracle", "both"],
                   default="hitting-set")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--certify-rank", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_pit)

    p = sub.add_parser("bench", help="toy-scale experiments")
    p.add_argument("experiment", choices=["separation"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--field", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_bench)

    return parser


def run(argv) -> tuple[int, str]:
    """Parse and dispatch; returns (exit code, stdout payload)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            try:
                args.seed = int(os.environ.get("RANKPIT_SEED", "0"))
            except ValueError:
                raise InvalidParams("bad RANKPIT_SEED value "
                                    f"{os.environ['RANKPIT_SEED']!r} (an integer)") from None
        # (flag, least value); a flag the subcommand lacks, or that was not
        # given and has no default, reads None
        for flag, least in (("cap_expansion", 0), ("cap_matrix", 0), ("cap_points", 0),
                            ("cap_annihilator", 1), ("rounds", 1), ("max_retries", 1),
                            ("trials", 1)):
            if (value := getattr(args, flag, None)) is not None and value < least:
                raise InvalidParams(f"--{flag.replace('_', '-')} must be >= {least}, "
                                    f"got {value}")
        return args.fn(args)
    except RankpitError as exc:
        # the documented attributes (sizes, caps, gate, JSON path, ...) ride along
        attrs = {k: v for k, v in vars(exc).items() if not k.startswith("_")}
        payload = {**attrs, "error": type(exc).__name__, "detail": str(exc)}
    except Exception as exc:  # a bug, never a verdict: exit 1 means "nonzero"
        payload = {"error": "InternalError",
                   "detail": f"{type(exc).__name__}: {exc}",
                   "traceback": "".join(traceback.format_exception(exc))}
    return ERROR_EXIT, json.dumps(_fmt(payload), sort_keys=True, default=str) + "\n"


def main(argv=None) -> int:
    try:
        code, out = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    stream = sys.stderr if code == ERROR_EXIT else sys.stdout
    stream.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
