"""Seeded input generators for the four benchmark workloads.

`generate(workload, seed, seconds, out_dir)` writes the workload's inputs as
rankpit JSON (circuit files and polynomial-tuple files) plus a
`manifest.json` that lists the operations in their fixed order.  The same
seed and seconds always yield the same bytes.

The generator logic is adapted from the acceptance corpus in
`tests/_corpus.py` and kept here, so that edits to the tests never move the
benchmark.  One change is deliberate: every instance draws its *shape*
(variable count, degrees, fan-ins, DAG structure, monomial supports, tuple
kind) from a schedule fixed by its position in the batch, and only its
coefficient *values* from the workload seed.  The cost of an operation is
set by its shape (hitting-set size, matrix size, annihilator degree), so
the load repeats across seeds while every seed yields different
polynomials.  With free shapes, one other seed offset made the acceptance
PIT corpus take twice as long.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from rankpit.algdep import algebraic_rank
from rankpit.circuit import Circuit, DeclaredBounds, Gate, OuterExpr, serialize
from rankpit.domains import PrimeField, Rationals
from rankpit.nw import HardPolyParams, NWParams, sample_restriction
from rankpit.poly import Polynomial, compose

FP = PrimeField(1_000_003)
Q = Rationals()
COEFFS = (-3, -2, -1, 1, 2, 3)
LINEAR_COEFFS = (-2, -1, 1, 2)

# Batch positions per second of --seconds, set so that the harness's five
# passes over the batch take about --seconds at the seed commit.  The batch
# is fixed by the seed and --seconds alone, never by how fast the program
# runs.
POSITIONS_PER_SECOND = {"pit_corpus": 12, "dependence_q": 4.0,
                        "certify_fp": 8.2, "measure_nw": 1.6}


NONZERO_GRID_BUDGET = 60_000
ZERO_GRID_BUDGET = 16_000


def batch_size(workload: str, seconds: float) -> int:
    return max(2, round(seconds * POSITIONS_PER_SECOND[workload]))


def shape_rng(workload: str, index) -> random.Random:
    """Seed-independent stream for the shape of instance `index`."""
    return random.Random(f"{workload}/shape/{index}")


def content_rng(workload: str, key, index) -> random.Random:
    """Stream for the coefficient values of instance `index` under a content
    key (the workload seed and the batch number)."""
    return random.Random(f"{workload}/{key}/{index}")


def derived_seed(workload: str, key, index) -> int:
    return content_rng(workload, key, f"op-seed/{index}").getrandbits(32)


# ----------------------------------------------------------------------
# polynomials: a template (the monomials) from the shape stream, then
# coefficient values from the content stream

def poly_template(srng, nvars, deg, max_terms=5) -> list:
    """Distinct monomials of a random polynomial; the first has degree deg.

    Distinct, so that no choice of coefficients cancels a term: the support
    of every polynomial filled in from a template is the template.
    """
    monos = []
    for j in range(srng.randrange(1, max_terms + 1)):
        mono = {}
        for _ in range(deg if j == 0 else srng.randrange(deg + 1)):
            v = srng.randrange(nvars)
            mono[v] = mono.get(v, 0) + 1
        monos.append(tuple(sorted(mono.items())))
    return list(dict.fromkeys(monos))


def linear_template(srng, nvars) -> list:
    """Monomials of a random affine form with at least one variable."""
    monos = [((v, 1),) for v in range(nvars) if srng.random() < 0.8]
    if not monos:
        monos.append(((srng.randrange(nvars), 1),))
    if srng.random() < 0.4:
        monos.append(())
    return monos


def fill(rng, dom, nvars, monos, coeffs=COEFFS) -> Polynomial:
    return Polynomial(dom, nvars, {m: rng.choice(coeffs) for m in monos})


def fill_linear(rng, dom, nvars, monos) -> Polynomial:
    return fill(rng, dom, nvars, monos, LINEAR_COEFFS)


def corpus_degree(srng, max_deg):
    """A degree distributed like the top degree of the corpus's random_poly:
    the largest of 1 to 5 monomial degrees, each uniform in [0, max_deg]."""
    return max(srng.randrange(max_deg + 1) for _ in range(srng.randrange(1, 6)))


def draw(srng, rng, template, realize, ok):
    """One instance: structure from srng, coefficient values from rng.

    A structure is kept only if a reference realization with values from
    srng passes `ok`, so the structure never depends on the seed; the
    seeded values are then redrawn until they pass `ok` too.
    """
    while True:
        templ = template(srng)
        if ok(realize(templ, srng)):
            break
    while True:
        inst = realize(templ, rng)
        if ok(inst):
            return inst


# ----------------------------------------------------------------------
# pit_corpus: rank-bounded circuits shaped like the acceptance corpus

def _grid_budget_shape(srng, budget):
    """(nvars, d, t) with (t*d + 1)^nvars within the point budget."""
    nvars = srng.randrange(2, 11)
    while True:
        delta_max = int(budget ** (1.0 / nvars)) - 1
        if delta_max >= 1:
            break
        nvars -= 1
    delta_max = min(delta_max, 12)
    d = srng.randrange(1, min(3, delta_max) + 1)
    t = srng.randrange(1, min(4, max(1, delta_max // d)) + 1)
    return nvars, d, t


def _dag_template(srng, t, max_extra=3):
    """DAG nodes over t inputs; constants are placeholders filled per seed."""
    nodes = [("input", i) for i in range(t)]
    for _ in range(srng.randrange(1, max_extra + 1)):
        kind = srng.random()
        avail = len(nodes)
        if kind < 0.35:
            nodes.append(("const", None))
        elif kind < 0.65:
            args = tuple(srng.randrange(avail)
                         for _ in range(srng.randrange(2, 4)))
            nodes.append(("add", args))
        else:
            nodes.append(("mul", tuple(srng.randrange(avail) for _ in range(2))))
    # root: combine the last node with every input so all inputs matter
    nodes.append(("add", tuple(range(t)) + (len(nodes) - 1,)))
    return nodes


def _formal_degree(gate: dict) -> int:
    if gate["templ"] is None:
        return sum(gate["degs"])
    nodes = [("const", 1) if n[0] == "const" else n for n in gate["templ"]]
    return OuterExpr(len(gate["degs"]), nodes, len(nodes) - 1) \
        .formal_degree(gate["degs"])


def circuit_shape(index: int) -> dict:
    """Shape of corpus position `index`: one in 7 planted zero, one in 6 DAG."""
    srng = shape_rng("pit_corpus", index)
    zero = index % 7 == 0
    dag = index % 6 == 5
    budget = ZERO_GRID_BUDGET if zero else NONZERO_GRID_BUDGET
    while True:
        nvars, d, t = _grid_budget_shape(srng, budget)
        k = srng.randrange(1, 3)
        t_top = srng.randrange(1, 3) if zero else srng.randrange(1, 5)
        gates = [{"templ": _dag_template(srng, t) if dag else None,
                  "small": t <= k and srng.random() < 0.4,
                  "degs": [corpus_degree(srng, d) for _ in range(t)]}
                 for _ in range(t_top)]
        delta = max(1, max(_formal_degree(g) for g in gates))
        if (delta + 1) ** nvars <= budget:
            return {"nvars": nvars, "d": d, "k": k, "zero": zero,
                    "gates": gates, "delta": delta, "srng": srng}


def _gate_inner(srng, rng, nvars, k, gate) -> list:
    """Inner polynomials of the gate's exact degrees; rank <= k unless the
    fan-in is already at most k."""
    degs = gate["degs"]
    if gate["small"]:
        return draw(srng, rng,
                    lambda r: [poly_template(r, nvars, deg) for deg in degs],
                    lambda ts, r: [fill(r, FP, nvars, m) for m in ts],
                    lambda qs: [q.degree() for q in qs] == degs)

    def realize(templ, r):
        seeds = [fill_linear(r, FP, nvars, m) for m in templ[0]]
        return [compose(fill(r, FP, k, m), seeds) for m in templ[1]]

    return draw(srng, rng,
                lambda r: ([linear_template(r, nvars) for _ in range(k)],
                           [poly_template(r, k, deg) for deg in degs]),
                realize, lambda qs: [q.degree() for q in qs] == degs)


def random_circuit(key, index: int) -> Circuit:
    shape = circuit_shape(index)
    srng, rng = shape["srng"], content_rng("pit_corpus", key, index)
    nvars, k = shape["nvars"], shape["k"]
    gates = []
    for g in shape["gates"]:
        inner = _gate_inner(srng, rng, nvars, k, g)
        if g["templ"] is None:
            gates.append(Gate("product", inner))
        else:
            nodes = [("const", FP.coerce(rng.choice([-2, -1, 1, 2, 3])))
                     if n[0] == "const" else n for n in g["templ"]]
            gates.append(Gate(OuterExpr(len(inner), nodes, len(nodes) - 1), inner))
    if shape["zero"]:
        # an identical negated twin of every gate: the sum is identically zero
        for g in list(gates):
            if g.is_product:
                gates.append(Gate("product", [g.inner[0].scale(-1)] + g.inner[1:]))
            else:
                base = len(g.outer.nodes)
                nodes = list(g.outer.nodes) + [("const", FP.coerce(-1)),
                                               ("mul", (g.outer.root, base))]
                gates.append(Gate(OuterExpr(g.outer.arity, nodes, base + 1), g.inner))
    return Circuit(FP, nvars, DeclaredBounds(d=shape["d"], k=k, delta=shape["delta"]),
                   gates)


# ----------------------------------------------------------------------
# dependence_q: dependent tuples over Q shaped like criterion 5

def _symbolic_rank(polys) -> int:
    return algebraic_rank(polys, mode="symbolic").rank


def dependent_tuple(key, index) -> tuple[list, tuple]:
    """(polys, basis) with planted exact dependence, k <= 2, degrees <= 3."""
    srng = shape_rng("dependence_q", index)
    k = srng.randrange(1, 3)
    nvars = srng.randrange(2, 5)
    linear = srng.random() < 0.6
    if linear:
        # a degree-3 function of linear seeds in 4 variables can take 50x a
        # typical tuple and would dominate a run: linear seeds get <= 3
        nvars = min(nvars, 3)
    seed_deg = 1 if linear else srng.choice([2, 3])
    extra_degs = [corpus_degree(srng, 3 if linear else 1)
                  for _ in range(srng.randrange(1, 3))]

    def template(r):
        seeds = [linear_template(r, nvars) if linear
                 else poly_template(r, nvars, seed_deg) for _ in range(k)]
        return seeds, [poly_template(r, k, deg) for deg in extra_degs]

    def realize(templ, r):
        seeds = [(fill_linear if linear else fill)(r, Q, nvars, m) for m in templ[0]]
        return seeds, [compose(fill(r, Q, k, m), seeds) for m in templ[1]]

    def ok(inst):
        seeds, extras = inst
        return ([q.degree() for q in seeds] == [seed_deg] * k
                and [q.degree() for q in extras] == [seed_deg * e for e in extra_degs]
                and _symbolic_rank(seeds) == k)

    seeds, extras = draw(srng, content_rng("dependence_q", key, index),
                         template, realize, ok)
    return seeds + extras, tuple(range(k))


# ----------------------------------------------------------------------
# certify_fp: rank-oracle tuples over F_p shaped like criterion 3

def rank_oracle_tuple(key, index) -> tuple[list, bool]:
    """(polys, dependent) with rank t-1 (dependent) or t (independent).

    The symbolic rank is verified, so that "rank = t-1 iff an annihilator
    exists at the cap" holds; the heavy cap-exhausting kind (t = 3, d = 2)
    stays at 3 variables.
    """
    srng = shape_rng("certify_fp", index)
    rng = content_rng("certify_fp", key, index)
    dependent = srng.random() < 0.55
    t = srng.choice([2, 2, 3])
    if dependent:
        nvars = srng.randrange(2, 5)
        linear = srng.random() < 0.5
        extra_deg = corpus_degree(srng, 2)

        def template(r):
            if linear:
                return ([linear_template(r, nvars) for _ in range(t - 1)],
                        poly_template(r, t - 1, extra_deg))
            return [poly_template(r, nvars, 2) for _ in range(t - 1)], None

        def realize(templ, r):
            if linear:
                seeds = [fill_linear(r, FP, nvars, m) for m in templ[0]]
                return seeds + [compose(fill(r, FP, t - 1, templ[1]), seeds)]
            seeds = [fill(r, FP, nvars, m) for m in templ[0]]
            extra = Polynomial.zero(FP, nvars)
            for s in seeds:
                extra = extra + s.scale(r.choice(LINEAR_COEFFS))
            return seeds + [extra]

        def ok(polys):
            seed_deg = 1 if linear else 2
            return (all(q.degree() == seed_deg for q in polys[:-1])
                    and (not linear or polys[-1].degree() == extra_deg)
                    and _symbolic_rank(polys[:-1]) == t - 1)

        return draw(srng, rng, template, realize, ok), True
    if t == 3 and srng.random() < 0.12:
        nvars, d = 3, 2
    elif t == 3:
        nvars, d = srng.randrange(3, 5), 1
    else:
        nvars, d = srng.randrange(2, 5), srng.choice([1, 2])
    polys = draw(srng, rng,
                 lambda r: [poly_template(r, nvars, d, max_terms=3) for _ in range(t)],
                 lambda ts, r: [fill(r, FP, nvars, m) for m in ts],
                 lambda ps: (all(q.degree() == d for q in ps)
                             and _symbolic_rank(ps) == t))
    return polys, False


# ----------------------------------------------------------------------
# measure_nw: a fixed (instance, r, m) grid; the seed draws the restrictions

# (n, q, e, r, m).  The first four rows give rational matrices the modular
# pre-pass cannot certify (exact elimination over Q runs), two costs of
# about 0.3 s each; a third of the rational measures are this kind, so the
# tail percentile falls inside one class instead of between two.  Keep the
# grid well below NW(3,7,2) at r=1, m=3, which takes minutes.
MEASURE_GRID = (
    (3, 5, 2, 1, 2), (2, 7, 2, 1, 2), (3, 5, 2, 1, 2), (2, 7, 2, 1, 2),
    (2, 5, 2, 1, 2), (3, 5, 2, 2, 2), (3, 7, 1, 1, 2), (2, 7, 2, 2, 2),
    (4, 5, 2, 1, 1), (2, 7, 2, 1, 1), (3, 5, 2, 1, 1), (3, 3, 2, 2, 2),
)
RESTRICTION_GAMMA = 2
RESTRICTION_P = Fraction(3, 4)


def measure_instance(key, index: int) -> dict:
    """Grid row index mod len(grid); every other sweep of the grid restricts
    the hard variant."""
    n, q, e, r, m = MEASURE_GRID[index % len(MEASURE_GRID)]
    spec = {"n": n, "q": q, "e": e, "r": r, "m": m, "hard": None}
    if (index // len(MEASURE_GRID)) % 2:
        params = HardPolyParams(NWParams(n, q, e), RESTRICTION_GAMMA, RESTRICTION_P)
        rng = content_rng("measure_nw", key, index)
        while True:
            rseed = rng.getrandbits(32)
            alive = sample_restriction(params.nvars, params.p, rseed).alive
            if all(any(params.var(i, j, c) in alive for c in range(params.gamma))
                   for i in range(n) for j in range(q)):
                break  # no slot died, so the projection exists
        spec["hard"] = {"gamma": params.gamma, "p": str(params.p),
                        "restriction_seed": rseed}
    return spec


# ----------------------------------------------------------------------
# files

def _write_tuple(path: Path, dom, polys) -> None:
    obj = {"field": dom.to_json(), "nvars": polys[0].nvars,
           "polys": [p.terms_to_json() for p in polys]}
    path.write_text(json.dumps(obj, indent=1) + "\n")


def _pit_entry(key, idx, path: Path) -> dict:
    path = path.with_suffix(".json")
    path.write_text(serialize(random_circuit(key, idx)))
    return {"circuit": path.name}


def _dependence_entry(key, idx, path: Path) -> dict:
    polys, basis = dependent_tuple(key, idx)
    path = path.with_suffix(".json")
    _write_tuple(path, Q, polys)
    return {"tuple": path.name, "basis": list(basis),
            "sampler_seed": derived_seed("dependence_q", key, idx)}


def _certify_entry(key, idx, path: Path) -> dict:
    polys, dependent = rank_oracle_tuple(key, idx)
    path = path.with_suffix(".json")
    _write_tuple(path, FP, polys)
    return {"tuple": path.name, "t": len(polys), "dependent": dependent,
            "rank_seed": derived_seed("certify_fp", key, idx)}


def _measure_entry(key, idx, path: Path) -> dict:
    return measure_instance(key, idx)


_ENTRY = {"pit_corpus": _pit_entry, "dependence_q": _dependence_entry,
          "certify_fp": _certify_entry, "measure_nw": _measure_entry}


def generate(workload: str, seed: int, seconds: float, out_dir: Path) -> Path:
    """Write the workload's inputs and manifest under out_dir; return the manifest.

    The manifest holds one warm-up instance and the batch (content key
    "<seed>/b").  The warm-up instance is the position after the batch,
    except on measure_nw, whose grid repeats: there it is the grid's last,
    cheapest row, since every timed pass starts with it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    entry = _ENTRY[workload]
    size = batch_size(workload, seconds)
    warm = len(MEASURE_GRID) - 1 if workload == "measure_nw" else size
    manifest = {"workload": workload, "seed": seed,
                "warmup": entry(f"{seed}/w", warm, out_dir / "warmup"),
                "batch": [entry(f"{seed}/b", i, out_dir / f"b{i}")
                          for i in range(size)]}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path
