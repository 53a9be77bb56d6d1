"""Exact termination probabilities for three weighted specs.

The fair parallel spec is a probability distribution at every state and
terminates almost surely; the self-loop never terminates; the leaky chain
terminates with probability just under 2/3, which the estimator pins down
as an exact fraction. Run with: python3 demos/probabilistic_termination.py
"""

from fractions import Fraction

from desimone import (
    ast_estimate,
    check_probabilistic,
    fs_total,
    load_spec,
    parse_term,
    trace_bounded,
)

prob = load_spec("prob_par")
print("=== fair probabilistic parallel ===")
report = check_probabilistic(prob, 5)
print(f"stochasticity: {report.describe(prob.semiring)}")

t = parse_term(prob.signature, "par(pre_a(nil), pre_b(nil))")
table = trace_bounded(prob, t, 3)
print("completed traces of a.nil || b.nil at depth 3:")
for word, w in table.sorted_items():
    print(f"  {''.join(word):<4} {w}")
print(f"total mass {fs_total(table)} -> terminates almost surely")
print()

loop = load_spec("loop")
print("=== a pure self-loop ===")
rep = ast_estimate(loop, parse_term(loop.signature, "c"), 10)
print(f"verdict: {rep.verdict}; exact limit {rep.limit} ({rep.detail})")
print()

leaky = load_spec("leaky")
print("=== the thirty-cell leaky chain ===")
c0 = parse_term(leaky.signature, "c0")
rep = ast_estimate(leaky, c0, 30)
for depth, mass in rep.masses:
    if depth in (1, 2, 5, 10, 30):
        print(f"  mass by depth {depth:>2}: {mass}  (~{float(mass):.6f})")
print(f"verdict: {rep.verdict}")
print(f"exact limit: {rep.limit}  (~{float(rep.limit):.9f})")
print(f"gap below 2/3: {Fraction(2, 3) - rep.limit}")
# cell n stops with 1/(2^n+2); summing only the first two cells gives
# exactly 1/2, so coarse summaries of this chain land on 1/2 instead
two_cells = Fraction(1, 3) + Fraction(2, 3) * Fraction(1, 4)
print(f"two-cell truncation of the same sum: {two_cells}")
