"""Walk one boolean spec from file to trace tables.

Loads the bundled CCS-style parallel/choice spec, validates it against the
rule format, steps a couple of terms, and compares two terms' bounded trace
tables. Run with: python3 demos/tour_of_a_spec.py
"""

from desimone import (
    STOP,
    first_difference,
    load_spec,
    parse_term,
    print_term,
    spec_text,
    step,
    trace_bounded,
    validate_format,
)

spec = load_spec("de_simone_par")

print("=== the spec file ===")
print(spec_text("de_simone_par"))

print("=== validation ===")
violations = validate_format(spec)
print(f"{len(violations)} format violations" if violations else "clean: every rule fits the format")
print()

t = parse_term(spec.signature, "par(pre_a(nil), plus(pre_b(nil), nil))")
print(f"=== one step of {print_term(t)} ===")
for e, w in step(spec, t).sorted_items():
    if e is STOP:
        print("  -> *")
    else:
        print(f"  -{e.label}-> {print_term(e.target)}")
print()

print("=== bounded trace tables ===")
# depth d holds completed words of length <= d - 1
for depth in (1, 2, 4):
    words = sorted("".join(w) or "(empty)" for w in trace_bounded(spec, t, depth).payloads())
    print(f"  depth {depth}: {', '.join(words)}")
print()

def compare(l_text, r_text):
    left = parse_term(spec.signature, l_text)
    right = parse_term(spec.signature, r_text)
    print(f"=== {print_term(left)}  vs  {print_term(right)} ===")
    for depth in (2, 3, 5):
        difference = first_difference(spec, left, right, depth)
        if difference is None:
            print(f"  depth {depth}: equal tables")
        else:
            word, wl, wr = difference
            print(f"  depth {depth}: differ on word {''.join(word) or '(empty)'}: {wl} vs {wr}")
    print()


# early versus late choice: trace tables cannot tell these apart
compare("plus(pre_a(nil), pre_a(pre_b(nil)))", "pre_a(plus(nil, pre_b(nil)))")
# a genuine difference shows up as soon as the tables are deep enough
compare("pre_a(pre_b(nil))", "pre_a(nil)")
