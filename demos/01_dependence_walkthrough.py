"""From algebraic dependence to functional dependence, step by step.

The tuple (x1+x2, x1*x2, x1^2+x2^2) has algebraic rank 2: the third
polynomial is algebraically dependent on the first two.  This walkthrough
certifies the rank, exhibits the minimal annihilator, samples a good
translation, reconstructs the dependent polynomial as an exact truncated
function of the basis, and cross-checks the witness with the power-series
Newton lift.

Run:  python demos/01_dependence_walkthrough.py
"""

from rankpit import (Polynomial, Rationals, TranslationSampler, algebraic_rank,
                     compose, find_annihilator, newton_reconstruct,
                     reconstruct_dependence, sample_good_translation)

Q = Rationals()
x1 = Polynomial.variable(Q, 2, 0)
x2 = Polynomial.variable(Q, 2, 1)

triple = [x1 + x2, x1 * x2, x1 * x1 + x2 * x2]
print("tuple:")
for i, q in enumerate(triple):
    print(f"  q{i + 1} =", q.to_text())

# 1. rank certificate (both routes agree): the certified rank is proved by a
#    Jacobian point (>=) and, here, by 2 variables (<=); a rank below the
#    number of variables needs a checked annihilator per non-basis q_i
sym = algebraic_rank(triple, mode="symbolic")
rand = algebraic_rank(triple, mode="randomized", seed=0)
print("\ncertified rank:", sym.rank, "basis:", [b + 1 for b in sym.basis_indices],
      f"({sym.method})")
print("randomized rank:", rand.rank, "(error bound", rand.error_bound, ")")

# 2. the minimal annihilator: the first dependent column in graded order
ann = find_annihilator(triple)
print("\nannihilator R =", ann.R.to_text(var_prefix="z"), "of degree", ann.degree)
print("R(q1, q2, q3) =", compose(ann.R, triple).to_text())

# 3. a good translation: dR/dY must not vanish at (q1(a), q2(a), q3(a))
sampler = TranslationSampler.for_tuple(t=3, k=2, d=2, seed=1)
a = sample_good_translation(triple, sym.basis_indices, sampler)
print("\ngood translation a =", tuple(str(v) for v in a),
      f"(grid size {sampler.grid_size})")

# 4. reconstruct q3(X+a) as a truncated polynomial in the translated basis
witness = reconstruct_dependence(triple, sym.basis_indices, a)
f3 = witness.F[2]
print("witness F3 =", f3.to_text(var_prefix="z"),
      "truncated at degree", witness.truncation_degrees[2])

lhs = triple[2].translate(a)
rhs = compose(f3, [triple[0].translate(a), triple[1].translate(a)])
print("q3(X+a) == h^<=2[F3(q1(X+a), q2(X+a))]:",
      lhs == rhs.homogeneous_le(2))

# 5. independent cross-check: Newton root-lifting of the annihilator
newton = newton_reconstruct(triple, sym.basis_indices, a, 2)
print("Newton lift agrees:", newton == lhs)
