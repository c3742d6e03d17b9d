"""Rank-bounded sum-of-gates circuits.

A circuit is a top sum of gates; each gate applies an outer function (a plain
product, or an expression DAG over its inputs) to a list of sparse inner
polynomials given by monomial expansion.  The file format, blackbox
evaluation, full expansion, and the degree-slice transform live here.

Outer expression DAGs are never expanded into polynomials: gates are
evaluated by first evaluating the inner polynomials and then folding the DAG
over scalars.  A "call" node applies a stored polynomial to subexpressions,
which is how rewritten circuits compose an old outer with dependence
witnesses without any blow-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .domains import domain_from_json
from .errors import (BoundViolation, CircuitSyntaxError, DimensionMismatch,
                     DomainMismatch, ExpansionTooLarge, InsufficientField,
                     InvalidParams)
from .linalg import solve_dense
from .poly import DEFAULT_TERM_CAP, Polynomial, compose
from .util import read_text

# what reading a malformed JSON value as a number, a list or an object raises
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError,
              ZeroDivisionError, OverflowError)


class OuterExpr:
    """Expression DAG over t formal inputs: +, *, constants, polynomial calls.

    Nodes are tuples stored in topological order (children before parents):

        ("input", i)           formal input i, 0 <= i < arity
        ("const", c)           a domain scalar
        ("add", (ids...))      sum of earlier nodes
        ("mul", (ids...))      product of earlier nodes
        ("call", poly, (ids...))  poly applied to earlier nodes
    """

    __slots__ = ("arity", "nodes", "root")

    def __init__(self, arity: int, nodes: list, root: int):
        self.arity = arity
        self.nodes = tuple(nodes)
        self.root = root
        self._validate()

    def _validate(self):
        for idx, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                if not 0 <= node[1] < self.arity:
                    raise InvalidParams(f"node {idx}: input {node[1]} out of range")
            elif op == "const":
                pass
            elif op in ("add", "mul"):
                if not node[1] or any(not 0 <= j < idx for j in node[1]):
                    raise InvalidParams(f"node {idx}: bad argument list {node[1]}")
            elif op == "call":
                poly, args = node[1], node[2]
                if poly.nvars != len(args):
                    raise InvalidParams(
                        f"node {idx}: call arity {len(args)} != poly variables {poly.nvars}")
                if any(not 0 <= j < idx for j in args):
                    raise InvalidParams(f"node {idx}: bad argument list {args}")
            else:
                raise InvalidParams(f"node {idx}: unknown op {op!r}")
        if not 0 <= self.root < len(self.nodes):
            raise InvalidParams(f"root {self.root} out of range")

    def evaluate(self, args: list, domain):
        """Fold the DAG over scalar inputs."""
        if len(args) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} inputs, got {len(args)}")
        vals: list = [None] * len(self.nodes)
        for idx, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                vals[idx] = args[node[1]]
            elif op == "const":
                vals[idx] = node[1]
            elif op == "add":
                acc = domain.zero
                for j in node[1]:
                    acc = domain.add(acc, vals[j])
                vals[idx] = acc
            elif op == "mul":
                acc = domain.one
                for j in node[1]:
                    acc = domain.mul(acc, vals[j])
                vals[idx] = acc
            else:  # call
                poly, arg_ids = node[1], node[2]
                vals[idx] = poly.evaluate([vals[j] for j in arg_ids])
        return vals[self.root]

    def expand(self, inners: list[Polynomial], term_cap: int | None) -> Polynomial:
        """Fold the DAG over polynomial inputs (the expansion oracle)."""
        if len(inners) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} inputs, got {len(inners)}")
        dom = inners[0].domain
        nvars = inners[0].nvars
        vals: list = [None] * len(self.nodes)
        for idx, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                vals[idx] = inners[node[1]]
            elif op == "const":
                vals[idx] = Polynomial.constant(dom, nvars, node[1])
            elif op == "add":
                acc = Polynomial.zero(dom, nvars)
                for j in node[1]:
                    acc = acc + vals[j]
                vals[idx] = acc
            elif op == "mul":
                acc = Polynomial.constant(dom, nvars, dom.one)
                for j in node[1]:
                    acc = acc.mul(vals[j], term_cap=term_cap)
                vals[idx] = acc
            else:
                poly, arg_ids = node[1], node[2]
                vals[idx] = compose(poly, [vals[j] for j in arg_ids], term_cap=term_cap)
        return vals[self.root]

    def formal_degree(self, weights: list[int]) -> int:
        """Degree of the DAG when input i carries degree weights[i]."""
        deg: list[int] = [0] * len(self.nodes)
        for idx, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                deg[idx] = weights[node[1]]
            elif op == "const":
                deg[idx] = 0
            elif op == "add":
                deg[idx] = max(deg[j] for j in node[1])
            elif op == "mul":
                deg[idx] = sum(deg[j] for j in node[1])
            else:
                poly, arg_ids = node[1], node[2]
                best = 0
                for mono in poly.terms:
                    best = max(best, sum(e * deg[arg_ids[v]] for v, e in mono))
                deg[idx] = best
        return deg[self.root]

    def to_json(self, domain) -> dict:
        nodes_json = []
        for node in self.nodes:
            op = node[0]
            if op == "input":
                nodes_json.append({"op": "input", "index": node[1] + 1})
            elif op == "const":
                nodes_json.append({"op": "const", "value": domain.format(node[1])})
            elif op in ("add", "mul"):
                nodes_json.append({"op": op, "args": list(node[1])})
            else:
                nodes_json.append({"op": "call",
                                   "poly": node[1].terms_to_json(),
                                   "args": list(node[2])})
        return {"dag": {"arity": self.arity, "nodes": nodes_json, "root": self.root}}

    @classmethod
    def from_json(cls, obj, domain, path: str) -> "OuterExpr":
        dag = obj.get("dag") if isinstance(obj, dict) else None
        if not isinstance(dag, dict):
            raise CircuitSyntaxError("outer must be \"product\" or {\"dag\": ...}", path=path)
        try:
            arity = int(dag["arity"])
            nodes_json = dag["nodes"]
            root = int(dag["root"])
        except _MALFORMED as exc:
            raise CircuitSyntaxError(f"bad dag object: {exc}", path=path) from None
        if not isinstance(nodes_json, list):
            raise CircuitSyntaxError("dag nodes must be a list", path=path)
        nodes = []
        for i, nj in enumerate(nodes_json):
            try:
                nodes.append(_node_from_json(nj, domain))
            except (InvalidParams, *_MALFORMED) as exc:
                raise CircuitSyntaxError(f"bad dag node: {exc}",
                                         path=f"{path}.nodes[{i}]") from None
        try:
            return cls(arity, nodes, root)
        except InvalidParams as exc:
            raise CircuitSyntaxError(str(exc), path=path) from None


def _node_from_json(nj: dict, domain) -> tuple:
    """One DAG node tuple; malformed JSON raises InvalidParams or a _MALFORMED error."""
    op = nj.get("op")
    if op == "input":
        return ("input", int(nj["index"]) - 1)
    if op == "const":
        return ("const", domain.parse(nj["value"]))
    if op in ("add", "mul"):
        return (op, tuple(int(a) for a in nj["args"]))
    if op == "call":
        args = tuple(int(a) for a in nj["args"])
        return ("call", Polynomial.terms_from_json(domain, len(args), nj["poly"]), args)
    raise InvalidParams(f"unknown dag op {op!r}")


class Gate:
    """One summand: an outer (product or DAG) over a nonempty inner list."""

    __slots__ = ("outer", "inner", "rank_bound")

    def __init__(self, outer, inner: list[Polynomial], rank_bound: int | None = None):
        if not inner:
            raise InvalidParams("gate needs at least one inner polynomial")
        dom, nv = inner[0].domain, inner[0].nvars
        for q in inner:
            if q.domain != dom:
                raise DomainMismatch("inner polynomials on different domains")
            if q.nvars != nv:
                raise DimensionMismatch("inner polynomials on different variable counts")
        if outer != "product" and not isinstance(outer, OuterExpr):
            raise InvalidParams("outer must be \"product\" or an OuterExpr")
        if isinstance(outer, OuterExpr) and outer.arity != len(inner):
            raise InvalidParams(
                f"outer arity {outer.arity} != {len(inner)} inner polynomials")
        self.outer = outer
        self.inner = list(inner)
        self.rank_bound = rank_bound

    @property
    def is_product(self) -> bool:
        return self.outer == "product"

    def evaluate(self, point):
        dom = self.inner[0].domain
        vals = [q.evaluate(point) for q in self.inner]
        if self.is_product:
            acc = dom.one
            for v in vals:
                acc = dom.mul(acc, v)
            return acc
        return self.outer.evaluate(vals, dom)

    def expand(self, term_cap: int | None) -> Polynomial:
        if self.is_product:
            acc = Polynomial.constant(self.inner[0].domain, self.inner[0].nvars,
                                      self.inner[0].domain.one)
            for q in self.inner:
                acc = acc.mul(q, term_cap=term_cap)
            return acc
        return self.outer.expand(self.inner, term_cap)

    def formal_degree(self) -> int:
        weights = [q.degree() for q in self.inner]
        if self.is_product:
            return sum(weights)
        return self.outer.formal_degree(weights)


@dataclass(frozen=True)
class DeclaredBounds:
    d: int      # max degree of any inner polynomial
    k: int      # per-gate algebraic-rank bound (certified on demand)
    delta: int  # formal-degree bound for every gate


@dataclass
class Circuit:
    domain: object
    nvars: int
    declared: DeclaredBounds
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for idx, g in enumerate(self.gates):
            for q in g.inner:
                if q.nvars != self.nvars:
                    raise DimensionMismatch(
                        f"gate {idx}: inner polynomial on {q.nvars} variables, circuit has {self.nvars}")
                if q.domain != self.domain:
                    raise DomainMismatch(f"gate {idx}: inner polynomial domain differs")
                if q.degree() > self.declared.d:
                    raise BoundViolation(idx, "d", self.declared.d, q.degree())
            fd = g.formal_degree()
            if fd > self.declared.delta:
                raise BoundViolation(idx, "delta", self.declared.delta, fd)

    @property
    def top_fanin(self) -> int:
        return len(self.gates)


def circuit_size(c: Circuit) -> int:
    """max(T, number of distinct inner monomials across the whole circuit)."""
    monos: set = set()
    for g in c.gates:
        for q in g.inner:
            monos |= q.support_monomials()
    return max(len(c.gates), len(monos))


def evaluate_circuit(c: Circuit, point):
    """Blackbox evaluation: inner polynomials first, then the outers; never expands."""
    if len(point) != c.nvars:
        raise DimensionMismatch(f"point has {len(point)} coords, circuit has {c.nvars}")
    dom = c.domain
    pt = [dom.coerce(x) for x in point]
    total = dom.zero
    for g in c.gates:
        total = dom.add(total, g.evaluate(pt))
    return total


def expand(c: Circuit, term_cap: int | None = DEFAULT_TERM_CAP) -> Polynomial:
    """The polynomial computed by the circuit, fully expanded (test oracle)."""
    acc = Polynomial.zero(c.domain, c.nvars)
    for g in c.gates:
        acc = acc + g.expand(term_cap)
        if term_cap is not None and acc.num_terms() > term_cap:
            raise ExpansionTooLarge(acc.num_terms(), term_cap)
    return acc


def homogeneous_component_circuit(c: Circuit, ell: int) -> Circuit:
    """A circuit computing the degree-ell slice of expand(c).

    Substituting X -> z*X for delta+1 distinct scalars z and taking the
    interpolating linear combination multiplies the top fan-in by exactly
    delta+1 while each new inner polynomial is a scaling of an old one, so
    neither the inner-degree bound nor any per-gate rank bound changes.
    """
    if ell < 0:
        raise InvalidParams("negative degree slice")
    dom = c.domain
    delta = c.declared.delta
    npts = delta + 1
    try:
        zs = dom.scalars(npts) if dom.characteristic else [dom.coerce(i + 1) for i in range(npts)]
    except Exception as exc:
        raise InsufficientField(
            f"need {npts} distinct scalars for interpolation: {exc}") from None
    # lam solves sum_u lam_u * z_u^j = [j == ell] for 0 <= j <= delta
    rows = [[dom.pow(z, j) for z in zs] for j in range(npts)]
    rhs = [dom.one if j == ell else dom.zero for j in range(npts)]
    lam = solve_dense(rows, rhs, dom)
    if lam is None:
        lam = [dom.zero] * npts  # ell > delta: the slice is identically zero
    new_gates: list[Gate] = []
    for z, lam_u in zip(zs, lam):
        for g in c.gates:
            scaled = [q.dilate(z) for q in g.inner]
            t = len(scaled)
            nodes: list = [("input", i) for i in range(t)]
            if g.is_product:
                nodes.append(("mul", tuple(range(t))))
            else:
                base = len(nodes)
                for node in g.outer.nodes:
                    nodes.append(_shift_node(node, base, input_map=list(range(t))))
                nodes.append(("add", (base + g.outer.root,)))  # alias for clarity
            body_root = len(nodes) - 1
            nodes.append(("const", dom.coerce(lam_u)))
            nodes.append(("mul", (body_root, len(nodes) - 1)))
            outer = OuterExpr(t, nodes, len(nodes) - 1)
            new_gates.append(Gate(outer, scaled, rank_bound=g.rank_bound))
    return Circuit(dom, c.nvars, c.declared, new_gates)


def _shift_node(node, base: int, input_map: list[int]):
    """Re-root a DAG node at offset `base`, mapping inputs to existing node ids."""
    op = node[0]
    if op == "input":
        # grafted DAGs read their inputs from pre-built nodes
        return ("add", (input_map[node[1]],))
    if op == "const":
        return node
    if op in ("add", "mul"):
        return (op, tuple(j + base for j in node[1]))
    return ("call", node[1], tuple(j + base for j in node[2]))


# ----------------------------------------------------------------------
# JSON file format

def serialize(c: Circuit) -> str:
    """Canonical circuit text: fixed key order, terms descending, 2-space indent."""
    obj = {
        "field": c.domain.to_json(),
        "nvars": c.nvars,
        "declared": {"d": c.declared.d, "k": c.declared.k, "delta": c.declared.delta},
        "gates": [_gate_to_json(g, c.domain) for g in c.gates],
    }
    return json.dumps(obj, indent=2) + "\n"


def _gate_to_json(g: Gate, domain) -> dict:
    out: dict = {}
    out["outer"] = "product" if g.is_product else g.outer.to_json(domain)
    out["inner"] = [q.terms_to_json() for q in g.inner]
    if g.rank_bound is not None:
        out["k"] = g.rank_bound
    return out


def parse_nvars(value) -> int:
    """The "nvars" entry of a circuit or poly file: a nonnegative int."""
    if not isinstance(value, int) or value < 0:
        raise CircuitSyntaxError("nvars must be a nonnegative integer", path="$.nvars")
    return value


def parse(text: str) -> Circuit:
    """Parse a circuit file; validates the declared d and delta bounds."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(obj, dict):
        raise CircuitSyntaxError("top level must be an object", path="$")
    for key in ("field", "nvars", "declared", "gates"):
        if key not in obj:
            raise CircuitSyntaxError(f"missing key {key!r}", path="$")
    try:
        domain = domain_from_json(obj["field"])
    except (InvalidParams, *_MALFORMED) as exc:
        raise CircuitSyntaxError(str(exc), path="$.field") from None
    nvars = parse_nvars(obj["nvars"])
    dec = obj["declared"]
    try:
        declared = DeclaredBounds(d=int(dec["d"]), k=int(dec["k"]), delta=int(dec["delta"]))
    except _MALFORMED as exc:
        raise CircuitSyntaxError(f"bad declared bounds: {exc}", path="$.declared") from None
    if not isinstance(obj["gates"], list):
        raise CircuitSyntaxError("gates must be a list", path="$.gates")
    gates = []
    for gi, gobj in enumerate(obj["gates"]):
        path = f"$.gates[{gi}]"
        if not isinstance(gobj, dict) or "outer" not in gobj or "inner" not in gobj:
            raise CircuitSyntaxError("gate needs \"outer\" and \"inner\"", path=path)
        if not isinstance(gobj["inner"], list):
            raise CircuitSyntaxError("inner must be a list", path=f"{path}.inner")
        inner = []
        for pi, terms in enumerate(gobj["inner"]):
            try:
                inner.append(Polynomial.terms_from_json(domain, nvars, terms))
            except (InvalidParams, *_MALFORMED) as exc:
                raise CircuitSyntaxError(str(exc), path=f"{path}.inner[{pi}]") from None
        if gobj["outer"] == "product":
            outer = "product"
        else:
            outer = OuterExpr.from_json(gobj["outer"], domain, path=f"{path}.outer")
        rank_bound = gobj.get("k")
        try:
            gates.append(Gate(outer, inner, rank_bound=rank_bound))
        except InvalidParams as exc:
            raise CircuitSyntaxError(str(exc), path=path) from None
    return Circuit(domain, nvars, declared, gates)


def parse_file(path: str) -> Circuit:
    return parse(read_text(path))
