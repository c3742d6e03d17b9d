"""Rank-bounded sum-of-gates circuits.

A circuit is a top sum of gates; each gate applies an outer expression DAG
to a list of sparse inner polynomials given by monomial expansion.  A plain
product Q_1...Q_t is the DAG with one "mul" node over its inputs; "product"
is only its spelling in the file format.  Both JSON file formats (circuit
and polynomial-tuple files), blackbox evaluation, full expansion, and the
degree-slice transform live here.

Outer expression DAGs are never expanded into polynomials: gates are
evaluated by first evaluating the inner polynomials and then folding the DAG
over scalars.  A "call" node applies a stored polynomial to subexpressions,
which is how rewritten circuits compose an old outer with dependence
witnesses without any blow-up.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from .domains import domain_from_json, json_int
from .errors import (BoundViolation, CircuitSyntaxError, DimensionMismatch,
                     DomainMismatch, ExpansionTooLarge, InvalidParams)
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

    __slots__ = ("arity", "nodes", "root", "_steps", "_root")

    def __init__(self, arity: int, nodes: list, root: int):
        self.arity = arity
        self.nodes = tuple(nodes)
        self.root = root
        self._validate()
        # the fold's program: ids 0..arity-1 are the inputs, the steps follow
        steps = [("input", i) for i in range(arity)]
        self._root = _graft(steps, self, range(arity))
        self._steps = tuple(steps[arity:])

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

    def _fold(self, inputs: list, const, call, add, mul):
        """The root's value when input i holds inputs[i]: a const node maps
        through const(c), a call node through call(poly, values), and add and
        mul nodes combine their arguments from left to right."""
        if len(inputs) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} inputs, got {len(inputs)}")
        vals = list(inputs)
        # add and mul each have their own call site: one shared site that
        # alternates between them ran slower on the benchmark's origin path
        for node in self._steps:
            op, args = node[0], node[-1]
            if op == "mul":
                acc = vals[args[0]]
                for j in args[1:]:
                    acc = mul(acc, vals[j])
            elif op == "add":
                acc = vals[args[0]]
                for j in args[1:]:
                    acc = add(acc, vals[j])
            elif op == "call":
                acc = call(node[1], [vals[j] for j in args])
            else:
                acc = const(node[1])
            vals.append(acc)
        return vals[self._root]

    def evaluate(self, args: list, domain):
        """Fold the DAG over scalar inputs; a DAG built in code may hold any
        int as a constant, so constants are coerced into the domain."""
        return self._fold(args, domain.coerce, lambda poly, vals: poly.evaluate(vals),
                          domain.add, domain.mul)

    def expand(self, inners: list[Polynomial], term_cap: int | None) -> Polynomial:
        """Fold the DAG over polynomial inputs (the expansion oracle)."""
        if len(inners) != self.arity:  # before inners[0] is read
            raise DimensionMismatch(f"expected {self.arity} inputs, got {len(inners)}")
        dom, nvars = inners[0].domain, inners[0].nvars
        return self._fold(
            inners, lambda c: Polynomial.constant(dom, nvars, c),
            lambda poly, args: compose(poly, args, term_cap=term_cap),
            Polynomial.__add__, lambda a, b: a.mul(b, term_cap=term_cap))

    def formal_degree(self, weights: list[int]) -> int:
        """Degree of the DAG when input i carries degree weights[i]."""
        return self._fold(
            weights, lambda c: 0,
            lambda poly, degs: max((sum(e * degs[v] for v, e in mono)
                                    for mono in poly.terms), default=0),
            max, int.__add__)

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
        arity, root = _located(path, lambda: (json_int(dag["arity"]), json_int(dag["root"])))
        if not isinstance(dag.get("nodes"), list):
            raise CircuitSyntaxError("dag nodes must be a list", path=path)
        nodes = [_located(f"{path}.nodes[{i}]", _node_from_json, nj, domain)
                 for i, nj in enumerate(dag["nodes"])]
        return _located(path, cls, arity, nodes, root)


def _graft(nodes: list, outer: OuterExpr, input_ids) -> int:
    """Append `outer`'s non-input nodes to `nodes`, reading its input i from
    node input_ids[i]; returns the id of `outer`'s root within `nodes`."""
    ids: list[int] = []
    for node in outer.nodes:
        op = node[0]
        if op == "input":
            ids.append(input_ids[node[1]])
            continue
        if op in ("add", "mul"):
            node = (op, tuple(ids[j] for j in node[1]))
        elif op == "call":
            node = ("call", node[1], tuple(ids[j] for j in node[2]))
        ids.append(len(nodes))
        nodes.append(node)
    return ids[outer.root]


@functools.cache
def _product_dag(t: int) -> OuterExpr:
    """The one-"mul" DAG over t inputs; immutable, so product gates share it."""
    return OuterExpr(t, [("input", i) for i in range(t)] + [("mul", tuple(range(t)))], t)


def _node_from_json(nj: dict, domain) -> tuple:
    """One DAG node tuple; malformed JSON raises InvalidParams or a _MALFORMED error."""
    op = nj.get("op")
    if op == "input":
        return ("input", json_int(nj["index"]) - 1)
    if op == "const":
        return ("const", domain.parse(nj["value"]))
    if op in ("add", "mul"):
        return (op, tuple(map(json_int, nj["args"])))
    if op == "call":
        args = tuple(map(json_int, nj["args"]))
        return ("call", Polynomial.terms_from_json(domain, len(args), nj["poly"]), args)
    raise InvalidParams(f"unknown dag op {op!r}")


class Gate:
    """One summand: an outer DAG over a nonempty inner list.

    `Gate("product", inner)` builds the one-"mul" DAG over the inner list and
    records `is_product`, so that serialize writes it back as "product".
    """

    __slots__ = ("outer", "inner", "rank_bound", "is_product")

    def __init__(self, outer, inner: list[Polynomial], rank_bound: int | None = None):
        if not inner:
            raise InvalidParams("gate needs at least one inner polynomial")
        dom, nv = inner[0].domain, inner[0].nvars
        for q in inner:
            if q.domain != dom:
                raise DomainMismatch("inner polynomials on different domains")
            if q.nvars != nv:
                raise DimensionMismatch("inner polynomials on different variable counts")
        self.is_product = outer == "product"
        if self.is_product:
            outer = _product_dag(len(inner))
        elif not isinstance(outer, OuterExpr):
            raise InvalidParams("outer must be \"product\" or an OuterExpr")
        if outer.arity != len(inner):
            raise InvalidParams(
                f"outer arity {outer.arity} != {len(inner)} inner polynomials")
        self.outer = outer
        self.inner = list(inner)
        self.rank_bound = rank_bound

    def evaluate(self, point):
        dom, nvars = self.inner[0].domain, self.inner[0].nvars
        if len(point) != nvars:
            raise DimensionMismatch(f"point has {len(point)} coords, nvars={nvars}")
        return self._value([dom.coerce(x) for x in point])

    def _value(self, pt):
        """The gate's value at canonical coordinates `pt` (see Polynomial._value)."""
        return self.outer.evaluate([q._value(pt) for q in self.inner],
                                   self.inner[0].domain)

    def expand(self, term_cap: int | None) -> Polynomial:
        return self.outer.expand(self.inner, term_cap)

    def formal_degree(self) -> int:
        return self.outer.formal_degree([q.degree() for q in self.inner])


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
            monos.update(q.terms)
    return max(len(c.gates), len(monos))


def evaluate_circuit(c: Circuit, point):
    """Blackbox evaluation: inner polynomials first, then the outers; never expands."""
    if len(point) != c.nvars:
        raise DimensionMismatch(f"point has {len(point)} coords, circuit has {c.nvars}")
    dom = c.domain
    pt = [dom.coerce(x) for x in point]
    total = dom.zero
    for g in c.gates:
        total = dom.add(total, g._value(pt))
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
    # over F_p, dom.scalars raises FieldTooSmall when p < npts
    zs = dom.scalars(npts) if dom.characteristic else [dom.coerce(i + 1) for i in range(npts)]
    # ell > delta: every weight is zero, and so is the slice
    lam = _interpolation_weights(zs, ell, dom)
    new_gates: list[Gate] = []
    for z, lam_u in zip(zs, lam):
        for g in c.gates:
            scaled = [q.dilate(z) for q in g.inner]
            t = len(scaled)
            nodes: list = [("input", i) for i in range(t)]
            body_root = _graft(nodes, g.outer, range(t))
            nodes.append(("const", dom.coerce(lam_u)))
            nodes.append(("mul", (body_root, len(nodes) - 1)))
            outer = OuterExpr(t, nodes, len(nodes) - 1)
            new_gates.append(Gate(outer, scaled, rank_bound=g.rank_bound))
    return Circuit(dom, c.nvars, c.declared, new_gates)


def _interpolation_weights(zs: list, ell: int, dom) -> list:
    """The weights mu with sum_u mu_u * z_u^j = [j = ell] for
    0 <= j < len(zs): one solution, the Vandermonde rows on distinct z's
    being independent."""
    rows = [[dom.pow(z, j) for z in zs] for j in range(len(zs))]
    return solve_dense(rows, [dom.one if j == ell else dom.zero for j in range(len(zs))], dom)


# ----------------------------------------------------------------------
# JSON file formats

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


def _json_object(text: str, keys) -> dict:
    """The file's top-level JSON object, which must hold every key in `keys`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise CircuitSyntaxError("values nested too deeply", path="$") from None
    if not isinstance(obj, dict):
        raise CircuitSyntaxError("top level must be an object", path="$")
    for key in keys:
        if key not in obj:
            raise CircuitSyntaxError(f"missing key {key!r}", path="$")
    return obj


def _located(path: str, fn, *args):
    """fn(*args), with InvalidParams or a _MALFORMED error raised as a
    CircuitSyntaxError at the JSON path of the value being read."""
    try:
        return fn(*args)
    except (InvalidParams, *_MALFORMED) as exc:
        raise CircuitSyntaxError(f"{type(exc).__name__}: {exc}", path=path) from None


def _count(value) -> int:
    """A JSON integer >= 0: nvars, a declared bound or a gate's k."""
    if json_int(value) < 0:
        raise InvalidParams(f"must be nonnegative, got {value}")
    return value


def _header(obj: dict) -> tuple:
    """The domain and variable count of a circuit or poly file."""
    return (_located("$.field", domain_from_json, obj["field"]),
            _located("$.nvars", _count, obj["nvars"]))


def parse(text: str) -> Circuit:
    """Parse a circuit file; validates the declared d and delta bounds."""
    obj = _json_object(text, ("field", "nvars", "declared", "gates"))
    domain, nvars = _header(obj)
    declared = _located("$.declared", lambda dec: DeclaredBounds(
        *(_count(dec[key]) for key in ("d", "k", "delta"))), obj["declared"])
    if not isinstance(obj["gates"], list):
        raise CircuitSyntaxError("gates must be a list", path="$.gates")
    gates = []
    for gi, gobj in enumerate(obj["gates"]):
        path = f"$.gates[{gi}]"
        if not isinstance(gobj, dict) or "outer" not in gobj or "inner" not in gobj:
            raise CircuitSyntaxError("gate needs \"outer\" and \"inner\"", path=path)
        if not isinstance(gobj["inner"], list):
            raise CircuitSyntaxError("inner must be a list", path=f"{path}.inner")
        inner = [_located(f"{path}.inner[{pi}]", Polynomial.terms_from_json,
                          domain, nvars, terms)
                 for pi, terms in enumerate(gobj["inner"])]
        outer = gobj["outer"]
        if outer != "product":
            outer = OuterExpr.from_json(outer, domain, path=f"{path}.outer")
        rank_bound = None if gobj.get("k") is None else _located(path, _count, gobj["k"])
        gates.append(_located(path, Gate, outer, inner, rank_bound))
    return Circuit(domain, nvars, declared, gates)


def parse_file(path: str) -> Circuit:
    return parse(read_text(path))


def parse_polys(text: str) -> tuple:
    """Parse a polynomial-tuple file into (domain, nvars, polys)."""
    obj = _json_object(text, ("field", "nvars", "polys"))
    domain, nvars = _header(obj)
    if not isinstance(obj["polys"], list):
        raise CircuitSyntaxError("polys must be a list", path="$.polys")
    return domain, nvars, [_located(f"$.polys[{i}]", Polynomial.terms_from_json,
                                    domain, nvars, terms)
                           for i, terms in enumerate(obj["polys"])]
