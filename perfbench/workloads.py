"""The four workloads: loading, one operation, and the exact checks.

Every workload turns a generated manifest into a warm-up group and the
batch, one flat list of operations.  `run(op)` is the timed call through
rankpit's public API; `key(output)` is a comparable form of its result
(traced and untraced passes must agree on it); `check(ops, outputs)` runs
the exact checks outside the timed region and returns the positions of the
operations that failed them.

Operations that belong together (the Q and F_p measure of one polynomial)
form a group of `group` consecutive operations, checked as a whole.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from rankpit import algdep, cli, measure, nw, pit
from rankpit.circuit import evaluate_circuit, expand, parse_file
from rankpit.domains import PrimeField, Rationals, domain_from_json
from rankpit.poly import Polynomial, compose

Q = Rationals()
FP = PrimeField(1_000_003)


def load_tuple(path: Path) -> list:
    """A polynomial-tuple file, read with rankpit's own term loader."""
    obj = json.loads(path.read_text())
    dom = domain_from_json(obj["field"])
    return [Polynomial.terms_from_json(dom, obj["nvars"], terms)
            for terms in obj["polys"]]


def load_batch(manifest: dict, ops) -> tuple[list, list]:
    """(warm-up ops, batch ops); `ops(entry)` makes an entry's group."""
    return (ops(manifest["warmup"]),
            [op for entry in manifest["batch"] for op in ops(entry)])


class PitCorpus:
    """pit.pit_test in hitting-set mode on corpus circuits over F_1000003."""

    group = 1

    def load(self, manifest: dict, root: Path):
        def ops(entry):
            return [parse_file(str(root / entry["circuit"]))]
        return load_batch(manifest, ops)

    def run(self, c):
        report = pit.pit_test(c)
        return report.verdict, report.witness

    def key(self, out):
        return out

    def outcome(self, out) -> str:
        """Zero verdicts scan the whole hitting set; the rest stop at a witness."""
        return "zero" if out[0] == "zero" else "witness"

    def check(self, ops, outputs) -> list:
        bad = []
        expected = {}
        for pos, (c, (verdict, witness)) in enumerate(zip(ops, outputs)):
            if id(c) not in expected:
                expected[id(c)] = not expand(c).is_zero()
            ok = (verdict == "nonzero") == expected[id(c)]
            if witness is not None:
                ok = ok and not c.domain.is_zero(evaluate_circuit(c, witness))
            elif verdict == "nonzero":
                ok = False
            if not ok:
                bad.append(pos)
        return bad


class DependenceQ:
    """Good translation, dependence witnesses and the Newton lift over Q."""

    group = 1

    def load(self, manifest: dict, root: Path):
        def ops(entry):
            return [(load_tuple(root / entry["tuple"]), tuple(entry["basis"]),
                     entry["sampler_seed"])]
        return load_batch(manifest, ops)

    def run(self, op):
        polys, basis, seed = op
        d = max(1, max(q.degree() for q in polys))
        sampler = algdep.TranslationSampler.for_tuple(
            len(polys), len(basis), d, seed=seed, max_retries=10)
        a = algdep.sample_good_translation(polys, basis, sampler)
        witness = algdep.reconstruct_dependence(polys, basis, a)
        newton = {i: algdep.newton_reconstruct(polys, basis, a, i)
                  for i in sorted(witness.F)}
        return witness, newton

    def key(self, out):
        witness, newton = out
        return (witness.a, sorted((i, f.to_text()) for i, f in witness.F.items()),
                sorted((i, p.to_text()) for i, p in newton.items()))

    def check(self, ops, outputs) -> list:
        bad = []
        for pos, ((polys, basis, _), (witness, newton)) in enumerate(zip(ops, outputs)):
            a = witness.a
            shifted = [polys[b].translate(a) for b in basis]
            ok = set(witness.F) == set(range(len(polys))) - set(basis)
            ok = ok and set(newton) == set(witness.F)
            for i, f_i in witness.F.items():
                d_i = witness.truncation_degrees[i]
                lhs = polys[i].translate(a).homogeneous_le(d_i)
                ok = (ok and compose(f_i, shifted).homogeneous_le(d_i) == lhs
                      and newton[i] == lhs)
            if not ok:
                bad.append(pos)
        return bad


class CertifyFp:
    """One tuple certified three ways through cli.run: `rank --mode
    symbolic`, `rank` and `annihilate`, each `--json --workers 1`."""

    group = 1

    def load(self, manifest: dict, root: Path):
        def ops(entry):
            common = ["--poly-file", str(root / entry["tuple"]), "--json",
                      "--workers", "1", "--seed", str(entry["rank_seed"])]
            argvs = (["rank", "--mode", "symbolic"] + common, ["rank"] + common,
                     ["annihilate"] + common)
            return [(argvs, entry["t"], entry["dependent"])]
        return load_batch(manifest, ops)

    def run(self, op):
        return [cli.run(argv) for argv in op[0]]

    def key(self, out):
        return out

    def check(self, ops, outputs) -> list:
        """Agreement of the three oracles.  (That every invocation prints
        the same JSON each time is checked across the harness's passes.)"""
        return [pos for pos, ((_, t, dependent), outs) in enumerate(zip(ops, outputs))
                if not self._agree(t, dependent, outs)]

    @staticmethod
    def _agree(t, dependent, outs) -> bool:
        """Randomized rank == symbolic rank == the annihilator oracle's rank."""
        (c_sym, sym), (c_rand, rand), (c_ann, ann) = outs
        if c_sym or c_rand:
            return False
        rank_sym = json.loads(sym)["result"]["rank"]
        rank_rand = json.loads(rand)["result"]["rank"]
        if c_ann == 0:
            oracle = t - 1
        elif c_ann == 2 and json.loads(ann)["error"] == "NoAnnihilatorWithinCap":
            oracle = t
        else:
            return False
        return rank_rand == rank_sym == oracle == (t - 1 if dependent else t)


class MeasureNW:
    """psp_dimension over Q and over F_p of NW design polynomials."""

    group = 2

    def load(self, manifest: dict, root: Path):
        def ops(spec):
            return [(spec, Q), (spec, FP)]
        return load_batch(manifest, ops)

    def run(self, op):
        spec, dom = op
        poly = self.polynomial(spec, dom)
        mspec = measure.MeasureSpec.multilinear(poly.nvars, spec["r"], spec["m"])
        return measure.psp_dimension(poly, mspec), poly

    @staticmethod
    def polynomial(spec, dom) -> Polynomial:
        """NW(n,q,e), or its projection from a restricted hard polynomial."""
        base = nw.NWParams(spec["n"], spec["q"], spec["e"])
        if spec["hard"] is None:
            return nw.nw_polynomial(base, dom)
        hard = spec["hard"]
        params = nw.HardPolyParams(base, hard["gamma"], Fraction(hard["p"]))
        g = nw.hard_polynomial(params, dom)
        rho = nw.sample_restriction(g.nvars, params.p, hard["restriction_seed"])
        return nw.extract_nw_projection(nw.restrict(g, rho.alive), params, rho)

    def key(self, out):
        rep, poly = out
        return rep.dimension, rep.rows, rep.cols, rep.rank_method, poly.to_text()

    def check(self, ops, outputs) -> list:
        if not self.worked_example():
            return list(range(len(ops)))  # no dimension here can be trusted
        bad = []
        for start in range(0, len(ops), 2):
            spec = ops[start][0]
            (rep_q, poly_q), (rep_p, poly_p) = outputs[start:start + 2]
            same = ({m: int(c) for m, c in poly_q.terms.items()}
                    == {m: int(c) for m, c in poly_p.terms.items()})
            ok = (same and rep_p.dimension <= rep_q.dimension
                  <= min(rep_q.rows, rep_q.cols))
            if spec["hard"] is not None:
                base = nw.NWParams(spec["n"], spec["q"], spec["e"])
                ok = ok and poly_q == nw.nw_polynomial(base, Q)
            if not ok:
                bad.extend((start, start + 1))
        return bad

    @staticmethod
    def worked_example() -> bool:
        """Criterion 7: x1*x2 + x3*x4 with M = {x1, x3}, m = 1 has dimension 5."""
        v = [Polynomial.variable(Q, 4, i) for i in range(4)]
        spec = measure.MeasureSpec.of([((0, 1),), ((2, 1),)], 1)
        return measure.psp_dimension(v[0] * v[1] + v[2] * v[3], spec).dimension == 5


WORKLOADS = {"pit_corpus": PitCorpus(), "dependence_q": DependenceQ(),
             "certify_fp": CertifyFp(), "measure_nw": MeasureNW()}
