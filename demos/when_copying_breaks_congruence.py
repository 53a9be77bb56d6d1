"""Why rule targets must not duplicate variables.

Two demonstrations of the same defect at different levels. The algebraic
one: on a rule whose target copies a successor variable, the two evaluation
orders of the law disagree (distributing a two-element sum before or after
the copy gives the full square versus the diagonal). The operational one:
the copying spec has two trace-equivalent terms that a one-hole context
tells apart, so bounded trace equivalence stops being a congruence.
Run with: python3 demos/when_copying_breaks_congruence.py
"""

import time

from desimone import (
    STOP,
    counterexample_search,
    load_spec,
    naturality_check,
    print_term,
    trace_direct,
    validate_format,
)

spec = load_spec("pair_nonaffine")
print("=== the algebraic failure ===")
for v in validate_format(spec):
    print(f"validator: line {v.line} {v.severity} {v.condition}: {v.fragment}")

result = naturality_check(spec, carrier_size=2)
w = result.witness
print(f"witness on operator {w.op}:")


def leg_lines(leg):
    out = []
    for e, wt in leg.sorted_items():
        out.append("-> *" if e is STOP else f"-{e.label}-> {print_term(e.target)}")
    return out


print("  law applied to the uncollapsed sum:")
for line in leg_lines(w.law_first):
    print(f"    {line}")
print("  sum collapsed first, then the law:")
for line in leg_lines(w.args_first):
    print(f"    {line}")
print("the copy correlates the two slots: diagonal only, not the full square")
print()

copy = load_spec("copy_nonaffine")
print("=== the operational failure ===")
start = time.perf_counter()
violation = counterexample_search(copy, size_bound=7, depth=4)
elapsed = time.perf_counter() - start
d = violation.describe(copy)
print(f"search over terms of size <= 7 took {elapsed:.1f}s")
print(f"  pair:    {d['pair'][0]}  vs  {d['pair'][1]}")
print(f"  context: {d['context']}")
print(f"  word:    {d['word']}  weights {d['left_weight']} vs {d['right_weight']}")

# confirm by brute-force path summation, independent of the search machinery
left = violation.context.apply(violation.left)
right = violation.context.apply(violation.right)
print("recheck by explicit path sums:")
print(f"  {print_term(left)} performs abc: {trace_direct(copy, left, 3).weight(violation.word)}")
print(f"  {print_term(right)} performs abc: {trace_direct(copy, right, 3).weight(violation.word)}")
