"""Exact sparse multivariate polynomial arithmetic.

A monomial is a sorted tuple of (variable, exponent) pairs with strictly
positive exponents; the empty tuple is 1.  A polynomial maps monomials to
nonzero coefficients in an explicit domain (rationals or a prime field), so
every operation here is exact: no floating point anywhere.

Variables are 0-based internally; the text form (output only) and the JSON
form (read and written) use the 1-based names x1, x2, ...  Monomials are
ordered one way, graded-lex (`grlex_key`): total degree first, then lex
with X_1 > X_2 > ...  It sorts the text and JSON forms and picks the
trailing monomial.

Every product runs one loop, `_packed_product`, on integer numerators and
packed monomials (`_Layout`: one int each, a field per variable that occurs
in the operands), and builds one Fraction per output term: `Polynomial.mul`,
substitution by Horner's rule, one variable at a time (`compose`, and
`Polynomial.translate`), and `_CompositionTable`, the power products q^alpha
that `algdep` searches.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add

from .errors import (ArityMismatch, DimensionMismatch, DomainMismatch,
                     ExpansionTooLarge, InvalidParams, ZeroPolynomial)

# Monomial: ((var, exp), ...) sorted by var, all exps > 0.  () is 1.
Mono = tuple

DEFAULT_TERM_CAP = 10**7


def mono_from_dict(d: dict) -> Mono:
    return tuple(sorted((v, e) for v, e in d.items() if e))


def mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def mono_support(a: Mono) -> tuple:
    return tuple(v for v, _ in a)


def check_derivative(gamma: Mono, nvars: int | None = None) -> None:
    """Refuse gamma unless its variables ascend strictly in range(nvars) with exponents >= 1."""
    vs = [v for v, _ in gamma]
    if vs != sorted(set(vs)) or min(vs, default=0) < 0 or any(e < 1 for _, e in gamma):
        raise InvalidParams(f"derivative {gamma!r} needs ascending variables and exponents >= 1")
    if nvars is not None and vs and vs[-1] >= nvars:
        raise InvalidParams(f"derivative variable {vs[-1]} out of range for {nvars} variables")


def _clear_denominators(values) -> tuple[list[int], int]:
    """A collection of Fractions (or ints) as their numerators over the lcm
    of their denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def grlex_key(m: Mono) -> tuple:
    """The sort key of graded-lex, the one monomial order: total degree
    first, then lex under the precedence X_1 > X_2 > ...; 1 is minimal."""
    # (-var, exp) per pair makes tuple comparison agree with that lex order
    return mono_degree(m), tuple((-v, e) for v, e in m)


class Polynomial:
    """Immutable sparse polynomial over an explicit coefficient domain."""

    __slots__ = ("domain", "nvars", "terms", "_int", "_hash", "_degree")

    def __init__(self, domain, nvars: int, terms: dict, *, _normalized: bool = False):
        self.domain = domain
        self.nvars = nvars
        self._int = self._hash = self._degree = None  # filled on first use
        if _normalized:
            self.terms = terms
        else:
            clean = {}
            for mono, c in terms.items():
                c = domain.coerce(c)
                if domain.is_zero(c):
                    continue
                prev = -1  # variables strictly ascending, each once
                for v, e in mono:
                    if e <= 0 or not prev < v < nvars:
                        raise InvalidParams(f"bad monomial {mono} for nvars={nvars}")
                    prev = v
                clean[mono] = c
            self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, domain, nvars: int) -> "Polynomial":
        return cls(domain, nvars, {}, _normalized=True)

    @classmethod
    def constant(cls, domain, nvars: int, c) -> "Polynomial":
        c = domain.coerce(c)
        if domain.is_zero(c):
            return cls.zero(domain, nvars)
        return cls(domain, nvars, {(): c}, _normalized=True)

    @classmethod
    def variable(cls, domain, nvars: int, v: int) -> "Polynomial":
        if not 0 <= v < nvars:
            raise InvalidParams(f"variable {v} out of range for nvars={nvars}")
        return cls(domain, nvars, {((v, 1),): domain.one}, _normalized=True)

    # ------------------------------------------------------------------
    # basic structure

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if self._degree is None:
            self._degree = max((mono_degree(m) for m in self.terms), default=0)
        return self._degree

    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, mono: Mono):
        return self.terms.get(mono, self.domain.zero)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.domain == other.domain
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):  # `terms` is never written after construction: hash once
        if self._hash is None:
            self._hash = hash((self.domain, self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Polynomial({self.to_text()} over {self.domain}, nvars={self.nvars})"

    def _int_form(self) -> tuple[list, int]:
        """([(mono, degree, int coeff), ...], den) in term order, computed once
        (`terms` is never written after construction): the residues with
        den = 1 over F_p, or over Q the numerators over the lcm den of the
        denominators."""
        if self._int is None:
            coeffs, den = ((self.terms.values(), 1) if self.domain.characteristic
                           else _clear_denominators(self.terms.values()))
            self._int = ([(m, mono_degree(m), c) for m, c in zip(self.terms, coeffs)], den)
        return self._int

    def _check_compat(self, other: "Polynomial"):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain} vs {other.domain}")
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"nvars {self.nvars} vs {other.nvars}")

    # ------------------------------------------------------------------
    # ring arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.domain.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, self.domain.sub)

    def _combine(self, other: "Polynomial", op) -> "Polynomial":
        self._check_compat(other)
        dom = self.domain
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = op(out.get(m, dom.zero), c)
            if dom.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(dom, self.nvars, out, _normalized=True)

    def __neg__(self) -> "Polynomial":
        dom = self.domain
        return Polynomial(dom, self.nvars,
                          {m: dom.neg(c) for m, c in self.terms.items()},
                          _normalized=True)

    def scale(self, c) -> "Polynomial":
        dom = self.domain
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Polynomial.zero(dom, self.nvars)
        return Polynomial(dom, self.nvars,
                          {m: dom.mul(co, c) for m, co in self.terms.items()},
                          _normalized=True)

    def mul(self, other: "Polynomial", term_cap: int | None = None,
            degree_cap: int | None = None) -> "Polynomial":
        """Product, optionally truncated to total degree <= degree_cap.

        Raises ExpansionTooLarge if the result would exceed term_cap terms.
        One `_packed_product` of both operands' `_int_form`; a sum over the
        common denominator is zero iff the Fraction sum is, so terms and
        their order are exact."""
        self._check_compat(other)
        p = self.domain.characteristic
        (a, den_a), (b, den_b) = self._int_form(), other._int_form()
        layout = _Layout((a, b), 2, degree_cap)
        out = _packed_product(dict(layout.pack(a)), layout.pack(b), p, layout.limit, term_cap)
        return Polynomial(self.domain, self.nvars,
                          layout.unpack(out, None if p else den_a * den_b), _normalized=True)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise InvalidParams("negative power")
        result = Polynomial.constant(self.domain, self.nvars, self.domain.one)
        for _ in range(k):
            result = result.mul(self)
        return result

    __pow__ = pow

    # ------------------------------------------------------------------
    # the operations the rest of the package is built on

    def trailing_monomial(self) -> Mono:
        """The graded-lex-minimal monomial of the support; error on zero."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no trailing monomial")
        return min(self.terms, key=grlex_key)

    def homogeneous_component(self, i: int) -> "Polynomial":
        """The degree-i part; zero when i is out of range."""
        return Polynomial(self.domain, self.nvars,
                          {m: c for m, c in self.terms.items() if mono_degree(m) == i},
                          _normalized=True)

    def homogeneous_le(self, i: int) -> "Polynomial":
        return Polynomial(self.domain, self.nvars,
                          {m: c for m, c in self.terms.items() if mono_degree(m) <= i},
                          _normalized=True)

    def translate(self, point, term_cap: int | None = None) -> "Polynomial":
        """P(X + a), composed with X_j + a_j; ExpansionTooLarge past term_cap terms."""
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coords, nvars={self.nvars}")
        a = [self.domain.coerce(c) for c in point]  # each one, so a bad one raises
        # X_j + a_j, a_j = N_j/D_j, as [(X_j, D_j), (1, N_j)] over D_j, for each j that occurs
        forms = {j: ([(((j, 1),), 1, a[j].denominator)] + [((), 0, a[j].numerator)] * bool(a[j]),
                     a[j].denominator) for j in {v for m in self.terms for v, _ in m}}
        return _horner(self, forms, self.nvars, term_cap, None)

    def dilate(self, z) -> "Polynomial":
        """P(z*X): each degree-j term picks up a factor z^j."""
        dom = self.domain
        z = dom.coerce(z)
        out: dict = {}
        for m, c in self.terms.items():
            c2 = dom.mul(c, dom.pow(z, mono_degree(m)))
            if not dom.is_zero(c2):
                out[m] = c2
        return Polynomial(dom, self.nvars, out, _normalized=True)

    def partial_derivative(self, gamma: Mono) -> "Polynomial":
        """Iterated formal derivative with respect to the monomial gamma."""
        check_derivative(gamma, self.nvars)
        dom = self.domain
        out: dict = {}
        for mono, c in self.terms.items():
            md = dict(mono)
            factor = 1  # the falling factorials, as one plain int
            for v, g in gamma:
                e = md.get(v, 0)
                if e < g:
                    break
                factor *= math.perm(e, g)
                if e == g:
                    del md[v]
                else:
                    md[v] = e - g
            else:
                if factor != 1:
                    c = dom.mul(c, dom.coerce(factor))
                    if dom.is_zero(c):  # over F_p, p divides the factor
                        continue
                # m -> m - gamma is injective: no two terms land on one monomial
                out[tuple(sorted(md.items()))] = c
        return Polynomial(dom, self.nvars, out, _normalized=True)

    def evaluate(self, point):
        """Exact evaluation at a point of the domain."""
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coords, nvars={self.nvars}")
        dom = self.domain
        return self._value([dom.coerce(x) for x in point])

    def _value(self, pt):
        """The value at `pt`, whose coordinates are canonical domain elements
        (residues in [0, p) or `Fraction`s).  A term stops at its first zero
        coordinate; over F_p each product is reduced as it grows, and the sum
        once, at the end."""
        p = self.domain.characteristic
        mod, total = p or None, self.domain.zero
        for mono, c in self.terms.items():
            for v, e in mono:
                x = pt[v]
                if not x:
                    break
                c = c * pow(x, e, mod)
                if p:
                    c %= p
            else:
                total += c
        return total % p if p else total

    # ------------------------------------------------------------------
    # text and JSON forms

    def to_text(self, var_prefix: str = "x") -> str:
        """Canonical text: terms descending under graded-lex, exact coefficients."""
        if not self.terms:
            return "0"
        dom = self.domain
        monos = sorted(self.terms, key=grlex_key, reverse=True)
        pieces: list[str] = []
        for idx, m in enumerate(monos):
            c = self.terms[m]
            c_str = dom.format(c)
            negative = c_str.startswith("-")
            if negative:
                c_str = c_str[1:]
            body = _term_text(c_str, m, var_prefix)
            if idx == 0:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append((" - " if negative else " + ") + body)
        return "".join(pieces)

    def terms_to_json(self) -> list:
        """Term list with exact string coefficients and 1-based variables."""
        dom = self.domain
        monos = sorted(self.terms, key=grlex_key, reverse=True)
        return [{"coeff": dom.format(self.terms[m]),
                 "mono": {str(v + 1): e for v, e in m}} for m in monos]

    @classmethod
    def terms_from_json(cls, domain, nvars: int, items) -> "Polynomial":
        terms: dict = {}
        for item in items:
            c = domain.parse(item["coeff"])
            mono_d = {}
            for v_str, e in item.get("mono", {}).items():
                v = int(v_str) - 1
                if isinstance(e, bool) or not isinstance(e, int):
                    raise TypeError(f"exponent of x{v_str} is not an integer: {e!r}")
                if str(v + 1) != v_str or not (0 <= v < nvars) or e <= 0:
                    raise InvalidParams(f"bad monomial entry {v_str}:{e}")
                mono_d[v] = e
            m = mono_from_dict(mono_d)
            prev = terms.get(m)
            terms[m] = c if prev is None else domain.add(prev, c)
        # every monomial and coefficient is checked above: drop zero sums only
        return cls(domain, nvars, {m: c for m, c in terms.items() if not domain.is_zero(c)},
                   _normalized=True)


def _term_text(c_str: str, m: Mono, var_prefix: str) -> str:
    mono_str = "*".join(
        f"{var_prefix}{v + 1}^{e}" if e > 1 else f"{var_prefix}{v + 1}" for v, e in m)
    if not mono_str:
        return c_str
    if c_str == "1":
        return mono_str
    return f"{c_str}*{mono_str}"


class _Layout:
    """The one packed monomial format, for products of up to `top` terms of
    `forms`, lists of `_int_form` terms: x^e is the int sum_i e_v*2^(width*i)
    + deg(x^e)*2^shift, v = frame[i], the variables that occur in `forms`.
    A monomial product is a sum of keys, kept iff key < limit, i.e. degree <=
    bound (degree_cap, or else `top` times the largest degree) < 2^width, so
    no field of a kept key carries."""

    def __init__(self, forms, top: int, degree_cap: int | None = None):
        self.frame = tuple(sorted({v for ts in forms for m, _, _ in ts for v, _ in m}))
        bound = (top * max((deg for ts in forms for _, deg, _ in ts), default=0)
                 if degree_cap is None else degree_cap)
        self.width = width = bound.bit_length()
        self.offsets = {v: width * i for i, v in enumerate(self.frame)}
        self.shift = width * len(self.frame)
        self.limit = (bound + 1) << self.shift

    def pack(self, terms, f: int = 1) -> list:
        """`_int_form` terms [(mono, degree, c), ...] as [(key, f*c), ...];
        KeyError on a variable outside the frame."""
        offsets, shift, out = self.offsets, self.shift, []
        for m, deg, c in terms:
            key = deg << shift
            for v, e in m:
                key += e << offsets[v]
            out.append((key, f * c))
        return out

    def unpack(self, packed: dict, den: int | None) -> dict:
        """{key: c} as {mono: c}, each c over den, or left as it is (over F_p)
        when den is None."""
        frame, width = self.frame, self.width
        out, mask, low = {}, (1 << width) - 1, (1 << self.shift) - 1
        for key, c in packed.items():
            mono, key = [], key & low  # read the fields that are set, lowest first
            while key:
                i = ((key & -key).bit_length() - 1) // width
                e = key >> width * i & mask
                mono.append((frame[i], e))
                key ^= e << width * i
            out[tuple(mono)] = c if den is None else Fraction(c, den)
        return out


def _packed_product(a: dict, b: list, p: int, limit: int, term_cap: int | None) -> dict:
    """a * b on packed keys (`_Layout`), the one product loop: keys >= limit
    dropped, sums reduced mod p when p, and term_cap checked after each
    term of a."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b:
            m = ma + mb
            if m >= limit:
                continue
            s = out.get(m, 0) + ca * cb
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        if term_cap is not None and len(out) > term_cap:
            raise ExpansionTooLarge(len(out), term_cap)
    return out


def _dense_to_mono(alpha: tuple) -> Mono:
    return mono_from_dict({v: e for v, e in enumerate(alpha) if e})


class _CompositionTable:
    """Memoized products q^alpha = prod_j q_j^alpha_j, |alpha| <= cap, packed
    (order <= cap-1 times a q_j), optionally truncated to total degree <=
    degree_cap: the columns of the annihilator and witness searches.

    Over Q, q_j enters as N_j = D_j*q_j (`_int_form`), the entry is
    N^alpha = D^alpha*q^alpha, and scaling column alpha by D^alpha != 0
    keeps every linear dependence (`combination` maps one back).
    """

    def __init__(self, qs: list[Polynomial], cap: int, degree_cap: int | None = None,
                 term_cap: int | None = DEFAULT_TERM_CAP, weights: list | None = None):
        self.domain, self.p = qs[0].domain, qs[0].domain.characteristic
        self.cap, self.term_cap, self.alphas = cap, term_cap, []
        self.weights = weights or [1] * len(qs)  # of the z_j, in `columns`
        int_forms = [q._int_form() for q in qs]
        self.layout = _Layout([terms for terms, _ in int_forms], cap, degree_cap)
        self.factors = [self.layout.pack(terms) for terms, _ in int_forms]
        self.dens = [den for _, den in int_forms]
        self.memo = {(0,) * len(qs): {0: 1}}

    def pack(self, terms) -> dict | None:
        """`_int_form` terms in this table's packed keys, or None if they
        have a variable that no q_j has: then no column combines to them."""
        try:
            return dict(self.layout.pack(terms))
        except KeyError:
            return None

    def den(self, alpha: tuple) -> int:  # D^alpha, 1 over F_p
        return math.prod(map(pow, self.dens, alpha))

    def get(self, alpha: tuple) -> dict:
        memo = self.memo
        if alpha in memo:
            return memo[alpha]
        j = max(i for i, e in enumerate(alpha) if e)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        memo[alpha] = _packed_product(self.get(prev), self.factors[j], self.p,
                                      self.layout.limit, self.term_cap)
        return memo[alpha]

    def columns(self):
        """The columns q^alpha, |alpha| <= cap, built as they are yielded by
        weighted degree sum_j w_j*alpha_j (all 1 is graded-lex), ties in graded-lex
        order of z^alpha; a heap holds the successors alpha + e_j, j >= the last
        index alpha uses, of those yielded, so the work follows the output."""
        t = len(self.factors)
        steps = [(w, tuple(int(i == j) for i in range(t)))  # w_j, e_j
                 for j, w in enumerate(self.weights)]
        heap = [(0, 0, (0,) * t, 0)]
        while heap:
            weight, deg, alpha, last = heapq.heappop(heap)
            self.alphas.append(alpha)
            yield self.get(alpha)
            for j in range(last, t) if deg < self.cap else ():
                w, e = steps[j]
                heapq.heappush(heap, (weight + w, deg + 1, tuple(map(add, alpha, e)), j))

    def combination(self, x: dict, den) -> Polynomial:
        """sum_i x_i * D^alpha_i / den * z^alpha_i: the combination x of the
        streamed packed columns, over den != 0, as a polynomial in the q_j."""
        alphas, p = self.alphas, self.p
        if p:
            inv = pow(den, -1, p)
            x = {i: c * inv % p for i, c in x.items()}
        else:
            x = {i: c * self.den(alphas[i]) / den for i, c in x.items()}
        return Polynomial(self.domain, len(self.factors),
                          {_dense_to_mono(alphas[i]): c for i, c in x.items()},
                          _normalized=True)


def compose(outer: Polynomial, inners: list, term_cap: int | None = DEFAULT_TERM_CAP,
            degree_cap: int | None = None) -> Polynomial:
    """Exact substitution of `inners` into `outer`, fully expanded.

    outer lives in t variables; inners are t polynomials over one shared
    domain.  Horner's rule, one variable at a time, makes every product one
    by a single inner polynomial, never of two large partial products; it
    runs in one loop per variable, with no recursion, on packed integers and
    builds one Fraction per output term (`_horner`).
    Raises ArityMismatch / DomainMismatch / ExpansionTooLarge.
    """
    if outer.nvars != len(inners):
        raise ArityMismatch(f"outer has {outer.nvars} variables, got {len(inners)} inners")
    if not inners:
        # 0-variate outer is a constant; the caller supplies the target space
        raise ArityMismatch("compose needs at least one inner polynomial")
    dom = inners[0].domain
    nvars = inners[0].nvars
    for q in inners:
        if q.domain != dom:
            raise DomainMismatch("inner polynomials on different domains")
        if q.nvars != nvars:
            raise DimensionMismatch("inner polynomials on different variable counts")
    if outer.domain != dom:
        raise DomainMismatch("outer and inner polynomials on different domains")
    used = {v for m in outer.terms for v, _ in m}
    return _horner(outer, {v: inners[v]._int_form() for v in used}, nvars, term_cap, degree_cap)


def _horner(outer: Polynomial, forms: dict, nvars: int, term_cap: int | None,
            degree_cap: int | None) -> Polynomial:
    """outer(inners), forms[v] = (N_v, D_v) the integer form of inner v for
    every variable v that occurs in outer, on packed keys over the variables
    of those inners (`_Layout`).

    Horner's rule one variable at a time, in ascending order: `parts` maps
    the rest of each monomial, its variables above v, to a packed partial
    sum, and the parts whose monomials differ only in their exponent e of v
    fold into sum_e part_e * inner_v^e.  `led` files each part under its
    leading variable, so the pass for v visits only the parts that hold v
    (`_by_rest`), and a sum costs its smaller operand (`_add`).  The inners
    are brought to one den L, and a term c*z^m of outer enters as
    c*L^(D-|m|), D = deg(outer): then each partial sum is a power of L times
    the one over Q, so terms cancel where the Fraction sums do; term_cap is
    checked after each sum and on the result too.  A part is dropped once it
    is folded in, and one Fraction is built per output term.  The order of
    the output terms is unspecified."""
    p = outer.domain.characteristic
    terms, den_outer = outer._int_form()
    top = max((deg for _, deg, _ in terms), default=0)
    den = math.lcm(*(den for _, den in forms.values()))
    layout = _Layout([ts for ts, _ in forms.values()], top, degree_cap)
    # parts: rest -> packed sum; led: leading variable (None for the rest 1) -> its rests
    parts, led = {}, {}
    for m, deg, c in terms:
        parts[m] = {0: c * den ** (top - deg)}
        led.setdefault(m[0][0] if m else None, []).append(m)
    for v in sorted(forms):
        ts, d_v = forms[v]
        factor = layout.pack(ts, den // d_v)
        for rest, by_exp in _by_rest(parts, led.pop(v)).items():
            acc = by_exp[high := max(by_exp)]
            for e in range(high - 1, -1, -1):
                acc = _packed_product(acc, factor, p, layout.limit, term_cap)
                if e in by_exp:
                    acc = _add(acc, by_exp[e], p)
                    if term_cap is not None and len(acc) > term_cap:
                        raise ExpansionTooLarge(len(acc), term_cap)
            if rest not in parts:
                led.setdefault(rest[0][0] if rest else None, []).append(rest)
            parts[rest] = acc
    total = parts.get((), {})
    if term_cap is not None and len(total) > term_cap:  # also where no product ran
        raise ExpansionTooLarge(len(total), term_cap)
    return Polynomial(outer.domain, nvars,
                      layout.unpack(total, None if p else den ** top * den_outer),
                      _normalized=True)


def _add(a: dict, b: dict, p: int) -> dict:
    """a + b: the smaller one is added into the larger in place, and that
    one is returned, so a sum costs the smaller size."""
    if len(a) < len(b):
        a, b = b, a
    for m, c in b.items():
        s = a.get(m, 0) + c
        if p:
            s %= p
        if s:
            a[m] = s
        else:  # c != 0, so m was in a
            del a[m]
    return a


def _by_rest(parts: dict, monos: list) -> dict:
    """The parts at `monos`, which all lead with one variable v, popped and
    grouped as {rest: {e: part}}, with the part at the rest as e = 0 (it
    stays in `parts`)."""
    groups: dict = {}
    for mono in monos:
        groups.setdefault(mono[1:], {})[mono[0][1]] = parts.pop(mono)
    for rest, by_exp in groups.items():
        if rest in parts:
            by_exp[0] = parts[rest]
    return groups
