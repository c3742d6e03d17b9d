"""Command-line interface: one binary, subcommand per capability.

JSON is the machine interface and is byte-deterministic for identical
(argv, seed): reports carry only exact values (integers and decimal/fraction
strings), embed the fully resolved run configuration, and omit wall-clock
timings unless --timings opts in.  A --json report is the bytes of
json.dumps(report, indent=2, sort_keys=True), Fractions and floats as
strings, written in one walk (`_report_json`).  Text output renders the same
data for humans.  Exit codes: 0 success (or pit verdict "zero"), 1 pit verdict
"nonzero", 2 computation error, 64 usage error.

`run` hands argv after a subcommand's name to that subcommand's own parser,
in one pass; an empty argv, an unknown name and top-level help go through
the top-level parser and its usage, help and errors.  No parser accepts a
prefix of a flag for the flag (`--cap` is not `--cap-expansion`).
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
from .domains import PrimeField, Rationals, parse_rational
from .errors import InvalidParams, RankpitError
from .poly import DEFAULT_TERM_CAP
from .util import read_text, write_text

USAGE_EXIT = 64
ERROR_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # top level and every subcommand: no flag prefixes
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _exact(value):
    """A Fraction as str(value), a float as repr(value): exact report text.
    Any other leaf is returned as it is."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return value


def _fmt(value):
    """Render report values as exact JSON-safe data."""
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return _exact(value)


_quote = json.encoder.encode_basestring_ascii  # json.dumps's, under ensure_ascii


def _report_json(value, pad: str = "\n") -> str:
    """json.dumps(_fmt(value), indent=2, sort_keys=True), written in one walk.

    An indented json.dumps needs the `_fmt` copy and runs json's generator
    encoder; this walk keeps json's rules.  Keys are `_fmt`'s (str(k), a
    later duplicate wins), sorted; strings go through json's own quoting;
    bool and None come before int, and ints are int.__repr__; other leaves
    are `_exact`'s, and what it leaves as it is raises json's TypeError.
    `pad` is a newline and the indent of the enclosing level."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            value = {str(k): v for k, v in value.items()}
        # a str value is quoted in place: most leaves are, and a call costs more
        parts = [_quote(k) + ": " + (_quote(v) if type(v) is str else _report_json(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_quote(v) if type(v) is str else _report_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    text = _exact(value)
    if text is value:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return _quote(text)


def _point(values, domain):
    return [domain.format(v) for v in values]


# each cap's config key: (flag, default, least value, help); a subcommand
# registers the caps it applies, read as args.<key>, and its report echoes those
_CAPS = {
    "expansion_terms": ("--cap-expansion", DEFAULT_TERM_CAP, 0, "expansion term cap"),
    "matrix_cells": ("--cap-matrix", measure.DEFAULT_MATRIX_CAP, 0, "measure matrix cell cap"),
    "hitting_set_points": ("--cap-points", pit.DEFAULT_POINT_CAP, 0, "hitting-set point cap"),
    "annihilator_degree": ("--cap-annihilator", None, 1, "degree cap (default t*d^(t-1))"),
}

# run()'s checks, attribute: (flag, least value); an attribute the subcommand
# lacks, or that was not given and has no default, reads None
_LEAST = {key: (flag, low) for key, (flag, _, low, _) in _CAPS.items()} | {
    "rounds": ("--rounds", 1), "max_retries": ("--max-retries", 1), "trials": ("--trials", 1)}


def _add_common(p: _Parser, *caps: str):
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed (default: $RANKPIT_SEED or 0)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect (every scan "
                        "is sequential)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    for key in caps:
        flag, default, _, help_text = _CAPS[key]
        p.add_argument(flag, type=int, default=default, help=help_text, dest=key)


def _resolved_config(args) -> dict:
    # --workers is not part of the report: it has no effect, and reports
    # must be byte-identical whatever value it is given
    return {
        "seed": args.seed,
        "output": "json" if args.json else "text",
        "timings": bool(args.timings),
        "caps": {key: getattr(args, key) for key in _CAPS if hasattr(args, key)},
    }


def _emit(args, command: str, result: dict) -> str:
    report = {"command": command, "config": _resolved_config(args), "result": result}
    if args.json:
        return _report_json(report) + "\n"
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
                                 term_cap=args.expansion_terms)
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
    ann = algdep.find_annihilator(polys, cap=args.annihilator_degree,
                                  term_cap=args.expansion_terms)
    result = {
        "annihilator": ann.R.to_text(var_prefix="z"),
        "degree": ann.degree,
        "tuple_size": len(polys),
    }
    return 0, _emit(args, "annihilate", result)


def _cmd_depend(args) -> tuple[int, str]:
    domain, nvars, polys = _load_polys(args.poly_file)
    cert = algdep.algebraic_rank(polys, mode="symbolic", seed=args.seed,
                                 term_cap=args.expansion_terms)
    sampler = algdep.TranslationSampler.for_tuple(
        len(polys), cert.rank, max(1, max(q.degree() for q in polys)),
        seed=args.seed, max_retries=args.max_retries)
    # a is the first draw at which the witness exists and checks
    a, (witness,) = algdep._witness_translation([(polys, cert.basis_indices)], domain,
                                                nvars, sampler, args.expansion_terms)
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
                                          term_cap=args.expansion_terms)
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
                                         matrix_cap=args.matrix_cells)
                writer.writerow([r, m, rep.dimension, rep.rows, rep.cols]
                                + [f"{elapsed_ms:.3f}"] * args.timings)
        return 0, buf.getvalue()
    rep, elapsed_ms = _timed(measure.psp_dimension, p, spec, matrix_cap=args.matrix_cells)
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
        poly = nw.hard_polynomial(nw.HardPolyParams(base, gamma), domain, args.expansion_terms)
        return 0, poly.to_text() + "\n"
    try:
        alive = parse_rational(args.p)
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
                                point_cap=args.hitting_set_points, rounds=args.rounds,
                                certify_rank=args.certify_rank,
                                expansion_term_cap=args.expansion_terms)
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
    poly = nw.hard_polynomial(nw.HardPolyParams(base, 1), domain, args.expansion_terms)
    spec = measure.MeasureSpec.multilinear(poly.nvars, args.r, args.m)
    rep = measure.psp_dimension(poly, spec, matrix_cap=args.matrix_cells)
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

@functools.cache  # one parser tree per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="rankpit",
                     description="Exact rank certificates, dependence witnesses, "
                                 "measure computations, and hitting-set identity tests")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands = {}  # name: its parser, which run() hands argv[1:]

    p = commands["rank"] = sub.add_parser("rank", help="algebraic-rank certificate")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--mode", choices=["randomized", "symbolic"], default="randomized")
    _add_common(p, "expansion_terms")
    p.set_defaults(fn=_cmd_rank)

    p = commands["annihilate"] = sub.add_parser("annihilate",
                                                help="minimal-degree annihilating polynomial")
    p.add_argument("--poly-file", required=True)
    _add_common(p, "expansion_terms", "annihilator_degree")
    p.set_defaults(fn=_cmd_annihilate)

    p = commands["depend"] = sub.add_parser("depend", help="functional-dependence witness")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--max-retries", type=int, default=10)
    _add_common(p, "expansion_terms")
    p.set_defaults(fn=_cmd_depend)

    p = commands["rewrite"] = sub.add_parser("rewrite", help="rewrite gates over basis components")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", default=None, help="write the rewritten circuit here")
    _add_common(p, "expansion_terms")
    p.set_defaults(fn=_cmd_rewrite)

    p = commands["measure"] = sub.add_parser("measure",
                                                help="projected shifted partials dimension")
    p.add_argument("--poly-file", required=True)
    p.add_argument("--index", type=int, default=0, help="which polynomial in the file")
    p.add_argument("--r", type=int, required=True, help="derivative degree")
    p.add_argument("--m", type=int, required=True, help="shift degree")
    p.add_argument("--sweep", action="store_true",
                   help="CSV sweep over all r' <= r, m' <= m")
    _add_common(p, "matrix_cells")
    p.set_defaults(fn=_cmd_measure)

    p = commands["nw"] = sub.add_parser("nw", help="design polynomial / restriction experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--p", default=None, help="alive probability: run the experiment")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--field", default=None, help="rational (default) or prime:P")
    _add_common(p, "expansion_terms")
    p.set_defaults(fn=_cmd_nw)

    p = commands["pit"] = sub.add_parser("pit", help="polynomial identity test")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=["hitting-set", "oracle", "both"],
                   default="hitting-set")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--certify-rank", action="store_true")
    _add_common(p, "expansion_terms", "hitting_set_points")
    p.set_defaults(fn=_cmd_pit)

    p = commands["bench"] = sub.add_parser("bench", help="toy-scale experiments")
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
    _add_common(p, "expansion_terms", "matrix_cells")
    p.set_defaults(fn=_cmd_bench)

    return parser


def run(argv) -> tuple[int, str]:
    """Parse and dispatch; returns (exit code, stdout payload)."""
    parser = build_parser()
    if argv and argv[0] in parser.commands:  # one pass: the subcommand's own parser
        args = parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # no subcommand, an unknown one or top-level help: the top-level errors
        args = parser.parse_args(argv)
    try:
        if args.seed is None:
            try:
                args.seed = int(os.environ.get("RANKPIT_SEED", "0"))
            except ValueError:
                raise InvalidParams("bad RANKPIT_SEED value "
                                    f"{os.environ['RANKPIT_SEED']!r} (an integer)") from None
        for dest, (flag, low) in _LEAST.items():
            if (value := getattr(args, dest, None)) is not None and value < low:
                raise InvalidParams(f"{flag} must be >= {low}, got {value}")
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
