"""Blackbox identity testing with explicit low-support hitting sets.

A nonzero polynomial computed by a rank-bounded circuit always carries a
monomial of small support, so the grid of points with few nonzero
coordinates is a certified hitting set for the class.  The demo derives the
support bound, builds the point set, tests a planted zero and a nonzero
circuit, and compares with the randomized evaluation oracle; it closes with
a random-restriction experiment on the replicated design polynomial.

Run:  python demos/04_hitting_set_pit.py
"""

from fractions import Fraction

from rankpit import (Circuit, DeclaredBounds, Gate, HardPolyParams, NWParams,
                     Polynomial, Rationals, hitting_set, hitting_set_size,
                     pit_test, schwartz_zippel_test, support_bound,
                     survival_experiment)

Q = Rationals()
x1 = Polynomial.variable(Q, 2, 0)
x2 = Polynomial.variable(Q, 2, 1)

sb = support_bound(d=1, k=1, top_fanin=1, delta=1, variant="general")
print("support bound at (d=1, k=1, T=1, delta=1):", sb.ell)
print("hitting set size at (N=6, delta=4, ell=2):", hitting_set_size(6, 4, 2))
hs = hitting_set(6, 4, 2, Q)
print("first five points:", [tuple(int(v) for v in p) for p in hs.points[:5]])

# planted zero: (x1+x2)(x1-x2) - (x1^2 - x2^2)
zero = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=2), [
    Gate("product", [x1 + x2, x1 - x2]),
    Gate("product", [Polynomial.constant(Q, 2, -1), x1 * x1 - x2 * x2]),
])
rep = pit_test(zero, mode="both", expansion_term_cap=10_000)
print("\nplanted zero:", rep.verdict,
      "| cross-checks consistent:", rep.consistent,
      "| hitting-set size:", rep.hitting_set_size)

nonzero = Circuit(Q, 2, DeclaredBounds(d=1, k=2, delta=2),
                  [Gate("product", [x1, x2])])
rep = pit_test(nonzero)
print("nonzero circuit:", rep.verdict, "| witness:",
      tuple(str(v) for v in rep.witness))

oracle = schwartz_zippel_test(nonzero, rounds=10, seed=3)
print("randomized oracle agrees:", oracle.nonzero)

params = HardPolyParams(NWParams(2, 3, 1), gamma=4, p=Fraction(1, 3))
stats = survival_experiment(params, trials=1000, seed=11)
print("\nrestriction experiment (gamma=4, p=1/3):",
      f"dead-slot rate {float(stats['dead_slot_fraction']):.4f}",
      f"vs (1-p)^gamma = {float(stats['expected_fraction']):.4f},",
      "within 3 sigma:", stats["within_3_sigma"])
