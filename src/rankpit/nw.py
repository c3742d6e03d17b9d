"""Design-based hard polynomial families and random restrictions.

The Nisan-Wigderson polynomial NW_{n,q,e} sums, over all univariate
polynomials p of degree < e over F_q, the multilinear monomial
X_{1,p(1)} ... X_{n,p(n)}.  Any two of its monomials agree on fewer than e
slots.  The hard variant replaces each variable by a gamma-fold sum of fresh
copies, which makes the family robust under random restrictions that keep
each variable alive independently with probability p: a slot dies only when
all gamma copies die, and a surviving instance projects back onto NW by
keeping one alive copy per slot.  NW is the gamma = 1 member of the hard
family, and one loop, `hard_polynomial`, builds them all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from operator import mul

from .domains import Rationals, is_prime
from .errors import ExpansionTooLarge, InvalidParams, SlotDied
from .poly import DEFAULT_TERM_CAP, Polynomial
from .util import derive_seed


@dataclass(frozen=True)
class NWParams:
    """Index parameters: q prime, n <= q slots, degree bound e <= min(n, q)."""

    n: int
    q: int
    e: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParams(f"q = {self.q} must be prime")
        if not 1 <= self.n <= self.q:
            raise InvalidParams(f"need 1 <= n <= q, got n={self.n}, q={self.q}")
        if not 0 <= self.e <= self.q:
            raise InvalidParams(f"need 0 <= e <= q, got e={self.e}")
        if self.e > self.n:
            # distinct index polynomials would collide on the n evaluation
            # points, breaking the exact q^e monomial count
            raise InvalidParams(f"need e <= n, got e={self.e}, n={self.n}")

    @property
    def nvars(self) -> int:
        return self.q * self.n

    def var(self, slot: int, element: int) -> int:
        """Flat index of X_{slot+1, element}, slot in [0,n), element in F_q."""
        return slot * self.q + element


@dataclass(frozen=True)
class HardPolyParams:
    """NW composed with gamma-fold variable sums; p drives restrictions.

    gamma = 1 is NW itself, and the default p = 1 keeps every variable alive.
    The asymptotic instantiation ties gamma = N^(1+delta) and p = N^(-delta);
    at desk scale gamma and p are independent knobs so survival statistics
    are actually testable.
    """

    base: NWParams
    gamma: int
    p: Fraction = Fraction(1)

    def __post_init__(self):
        if self.gamma < 1:
            raise InvalidParams("gamma must be >= 1")
        if not 0 < self.p <= 1:
            raise InvalidParams("need 0 < p <= 1")

    @property
    def nvars(self) -> int:
        return self.base.nvars * self.gamma

    def var(self, slot: int, element: int, copy: int) -> int:
        return (slot * self.base.q + element) * self.gamma + copy


@dataclass(frozen=True)
class RestrictionSample:
    """Alive-variable set drawn by independent Bernoulli(p) per variable."""

    alive: frozenset
    seed: int
    p: Fraction


def nw_polynomial(params: NWParams, domain=Rationals()) -> Polynomial:
    """Sum over all q^e low-degree index polynomials of their slot monomials.

    Exactly q^e monomials, each multilinear of degree n, all coefficients 1;
    e = 0 gives the empty sum 0.  This is the gamma = 1 hard polynomial.
    """
    return hard_polynomial(HardPolyParams(params, 1), domain, term_cap=None)


def hard_polynomial(params: HardPolyParams, domain=Rationals(),
                    term_cap: int | None = DEFAULT_TERM_CAP) -> Polynomial:
    """NW with each slot variable replaced by a gamma-fold sum of copies.

    The q^e * gamma^n monomials (none when e = 0) are listed per index
    polynomial, then per choice of one copy for each slot; refused past
    term_cap before any is built.
    """
    base, gamma = params.base, params.gamma
    n, q, e = base.n, base.q, base.e
    if e == 0:
        return Polynomial.zero(domain, params.nvars)  # no polynomials of degree < 0
    count = q ** e * gamma ** n
    if term_cap is not None and count > term_cap:
        raise ExpansionTooLarge(count, term_cap)
    # [q] identified with F_q: slot i reads the index polynomial at i
    powers = [[pow(x, k, q) for k in range(e)] for x in range(1, n + 1)]
    # copies[slot][element]: the gamma copies of X_{slot+1, element}
    copies = [[[(params.var(slot, element, c), 1) for c in range(gamma)]
               for element in range(q)] for slot in range(n)]
    one = domain.one
    terms = {}
    for coeffs in _cartesian(range(q), repeat=e):
        chosen = [table[sum(map(mul, coeffs, pw)) % q] for table, pw in zip(copies, powers)]
        # one copy per slot; variables ascend with the slot, so each is sorted
        for mono in _cartesian(*chosen):
            terms[mono] = one
    return Polynomial(domain, params.nvars, terms, _normalized=True)


def sample_restriction(nvars: int, p, seed: int) -> RestrictionSample:
    """Keep each variable alive independently with probability p."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise InvalidParams("need 0 < p <= 1")
    rng = random.Random(seed)
    threshold = float(p)
    alive = frozenset(v for v in range(nvars) if rng.random() < threshold)
    return RestrictionSample(alive=alive, seed=seed, p=p)


def restrict(poly: Polynomial, alive) -> Polynomial:
    """Set every variable outside `alive` to zero."""
    alive = set(alive)
    kept = {m: c for m, c in poly.terms.items() if alive.issuperset([v for v, _ in m])}
    return Polynomial(poly.domain, poly.nvars, kept, _normalized=True)


def _alive_copy(params: HardPolyParams, slot: int, element: int, alive):
    """The lowest-index copy of slot (slot, element) in `alive`, or None."""
    return next((copy for copy in range(params.gamma)
                 if params.var(slot, element, copy) in alive), None)


def extract_nw_projection(g_restricted: Polynomial, params: HardPolyParams,
                          restriction: RestrictionSample) -> Polynomial:
    """Project a restricted hard polynomial back onto the base NW family.

    For each slot (i, j) the lowest-index alive copy is kept and every other
    copy is set to zero; the result is relabeled onto the base slot
    variables.  Raises SlotDied((i, j)) when some slot lost all its copies
    (the restriction's failure event); i is 1-based, j is a field element.
    """
    base = params.base
    keep: dict[int, int] = {}
    for slot in range(base.n):
        for element in range(base.q):
            chosen = _alive_copy(params, slot, element, restriction.alive)
            if chosen is None:
                raise SlotDied((slot + 1, element))
            keep[params.var(slot, element, chosen)] = base.var(slot, element)
    dom = g_restricted.domain
    terms: dict = {}
    for mono, coeff in g_restricted.terms.items():
        new_mono = []
        dead = False
        for v, e in mono:
            target = keep.get(v)
            if target is None:
                dead = True
                break
            new_mono.append((target, e))
        if dead:
            continue
        # keep is injective on variables: no two terms land on one monomial
        terms[tuple(sorted(new_mono))] = coeff
    return Polynomial(dom, base.nvars, terms, _normalized=True)


def survival_experiment(params: HardPolyParams, trials: int, seed: int) -> dict:
    """Seeded slot-death statistics against the (1-p)^gamma per-slot rate."""
    if trials < 1:
        raise InvalidParams("survival experiment needs trials >= 1")
    base = params.base
    slots = base.n * base.q
    dead_total = 0
    extraction_failures = 0
    for trial in range(trials):
        sample = sample_restriction(params.nvars, params.p,
                                    derive_seed(seed, "trial", trial))
        dead_here = 0
        for slot in range(base.n):
            for element in range(base.q):
                if _alive_copy(params, slot, element, sample.alive) is None:
                    dead_here += 1
        dead_total += dead_here
        if dead_here:
            extraction_failures += 1
    expected = (1 - Fraction(params.p)) ** params.gamma
    observed = Fraction(dead_total, trials * slots)
    variance = expected * (1 - expected) / (trials * slots)
    sigma = math.sqrt(float(variance))
    return {
        "trials": trials,
        "slots": slots,
        "dead_slot_fraction": observed,
        "expected_fraction": expected,
        "sigma": sigma,
        "within_3_sigma": abs(float(observed - expected)) <= 3 * sigma,
        "restrictions_with_dead_slot": extraction_failures,
    }


@dataclass(frozen=True)
class NWInstantiation:
    """The displayed asymptotic parameter choices, evaluated in certified
    interval arithmetic; validity requires the dilution rate below 1."""

    n: int
    q: int
    r: int
    s: int
    e: int
    nvars: int
    epsilon: tuple        # certified (lower, upper) decimal strings
    m: tuple              # certified (lower, upper) for (N/2)(1 - eps)
    valid: bool
    qr_constraint_ok: bool
    slack_exponent: tuple  # log_q of the q^(e-r) display slack, (lower, upper)


def instantiate_parameters(n: int) -> NWInstantiation:
    """Evaluate the standard instantiation at width n (logarithms base e).

    eps = 4*ln(n)/sqrt(n), r = sqrt(n), q = n^10, s = sqrt(n)/100 (at least
    1), m = (N/2)(1-eps) with N = q*n.  The flag goes false when eps >= 1.
    The constraint q^r >= (1+eps)^(2(n-r)) is checked; e is chosen so that
    q^(e-r) tracks (2/(1+eps))^(n-r), and the leftover factor is reported as
    an exponent of q rather than enforced.
    """
    if n < 2:
        raise InvalidParams("need n >= 2")
    import mpmath
    iv = mpmath.iv
    old_prec = iv.prec
    iv.prec = 120
    try:
        n_iv = iv.mpf(n)
        eps = 4 * iv.log(n_iv) / iv.sqrt(n_iv)
        r = round(math.sqrt(n))
        s = max(1, round(math.sqrt(n) / 100))
        q = n ** 10
        nvars = q * n
        m_iv = iv.mpf(nvars) / 2 * (1 - eps)
        valid = mpmath.mpf(eps.b) < 1
        # q^r >= (1+eps)^(2(n-r))  <=>  r*ln q >= 2(n-r)*ln(1+eps)
        lhs = r * iv.log(iv.mpf(q))
        rhs = 2 * (n - r) * iv.log(1 + eps)
        qr_ok = mpmath.mpf(lhs.a) >= mpmath.mpf(rhs.b)
        # e with q^(e-r) = (2/(1+eps))^(n-r) up to poly(q)
        target = (n - r) * iv.log(2 / (1 + eps)) / iv.log(iv.mpf(q))
        e = r + int(mpmath.nint((mpmath.mpf(target.a) + mpmath.mpf(target.b)) / 2))
        slack = iv.mpf(e - r) - target
        return NWInstantiation(
            n=n, q=q, r=r, s=s, e=e, nvars=nvars,
            epsilon=(mpmath.nstr(mpmath.mpf(eps.a), 12),
                     mpmath.nstr(mpmath.mpf(eps.b), 12)),
            m=(mpmath.nstr(mpmath.mpf(m_iv.a), 12),
               mpmath.nstr(mpmath.mpf(m_iv.b), 12)),
            valid=valid,
            qr_constraint_ok=qr_ok,
            slack_exponent=(mpmath.nstr(mpmath.mpf(slack.a), 12),
                            mpmath.nstr(mpmath.mpf(slack.b), 12)),
        )
    finally:
        iv.prec = old_prec
