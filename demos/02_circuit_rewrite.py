"""Rewriting a circuit over the homogeneous components of its gate bases.

Each gate of a rank-bounded circuit can be re-expressed, after one shared
translation a, so that its inputs are the at most k(d+1) homogeneous
components of a transcendence basis of its original inputs.  Each
dependent input is recovered through its functional-dependence witness F:
one call, inside the outer expression DAG, of F applied to the sums of the
components, keeping only the terms whose weighted degree (a component of
degree j weighs j) is at most the input's degree.  The expansion identity
expand(C')(X) = expand(C)(X+a) is checked on the nose, over Q and then over
the prime field F_1000003: no step of the rewrite depends on the characteristic.

Run:  python demos/02_circuit_rewrite.py
"""

from rankpit import (Circuit, DeclaredBounds, Gate, Polynomial, PrimeField,
                     Rationals, circuit_size, expand, rewrite_circuit)


def demo_circuit(dom):
    x1 = Polynomial.variable(dom, 2, 0)
    x2 = Polynomial.variable(dom, 2, 1)
    # gate 1: the dependent triple; gate 2: a dependent pair
    g1 = Gate("product", [x1 + x2, x1 * x2, x1 * x1 + x2 * x2])
    g2 = Gate("product", [x1, x1 * x1])
    return Circuit(dom, 2, DeclaredBounds(d=2, k=2, delta=5), [g1, g2])


circuit = demo_circuit(Rationals())

print("original circuit: T =", circuit.top_fanin,
      "| size =", circuit_size(circuit))
print("expansion:", expand(circuit).to_text())

rewritten, a = rewrite_circuit(circuit, seed=7)
print("\nshared translation a =", tuple(str(v) for v in a))
for gi, gate in enumerate(rewritten.gates):
    bound = circuit.declared.k * (circuit.declared.d + 1)
    print(f"gate {gi + 1}: {len(gate.inner)} inner components"
          f" (bound k(d+1) = {bound})")
    for q in gate.inner:
        print("   ", q.to_text())

lhs = expand(rewritten)
rhs = expand(circuit).translate(a)
print("\nexpand(C')(X) == expand(C)(X + a):", lhs == rhs)

fp_circuit = demo_circuit(PrimeField(1_000_003))
fp_rewritten, fp_a = rewrite_circuit(fp_circuit, seed=7)
print("\nover F_1000003: a =", tuple(str(v) for v in fp_a), "| inner counts",
      [len(gate.inner) for gate in fp_rewritten.gates])
print("expand(C')(X) == expand(C)(X + a):",
      expand(fp_rewritten) == expand(fp_circuit).translate(fp_a))
