"""Byte-identity of ``parse_spec``'s outcomes across refactors.

Parses about a thousand seeded mutants of the bundled specs (chains of one
to three ``test_rulespec._mutate`` edits) and a few hand-written malformed
rule lines, and compares the sha256 of each outcome with
``parse_pins.json``. An outcome is either the ground rules (operator,
premises, label, weight, printed target and line) or the ``SpecParseError``
message, line and column. Only parsing is pinned, not ``validate_format``.
A change that alters the parser's answers on purpose rewrites the pins with

    PYTHONPATH=src python tests/test_parse_pins.py --write

and says in its description which outcomes moved.
"""

import random
from pathlib import Path

from desimone import SPEC_NAMES, SpecParseError, parse_spec, print_term, spec_text
from pins import check_pins, digest, write_pins
from test_rulespec import _mutate

PINS = Path(__file__).with_name("parse_pins.json")
CHAINS = 1000

_HEADER = "dialect weighted\nsemiring rational\nlabels a, b\nop nil : 0\nop p : 2\n"
MALFORMED = [
    "rule p(x1, x2 -a[1]-> nil",
    "rule p(x1, x2) -a[1]-> nil when x1 -a-> y1, x2 -> *, x1 -b-> y2",
    "rule p(x1, x2) -a[1]-> nil when x1 -c-> y1",
    "rule p(x1, x2) -c[1]-> nil",
    "rule p(x1, x2) -a[]-> nil",
    "rule p(x1, x2) -a[-1]-> nil",
    "rule p(x1, x2) -[1/2]-> nil",
    "rule p(x1, x2) -@l[1]-> nil forall @l, @l",
    "rule p(x1, x2) -@l[1]-> nil forall @m, @l, @m",
    "rule p(x1, x2) -@l[1]-> nil",
    "rule p(x1, x2) -a[1]-> nil forall @l",
    "rule p(x1, x2) -a[1]-> nil when x1 -a[1]-> y1",
    "rule p(x1, x2) -a[1]-> nil when y1 -a-> y1",
    "rule p(x1, x2) -a[1]-> nil when x1 -a-> x1",
    "rule p(x1, x2) -a[1]-> nil when",
    "rule p(x1, x2) -a[1]-> nil when x1 -> nil",
    "rule p(x1, x2) -a[1]-> nil nil",
    "rule p(x2, x1) -a[1]-> nil",
    "rule p(x1, y2) -a[1]-> nil",
    "rule q(x1) -a[1]-> nil",
    "rule p(x1, x2) -a[1]-> p(nil)",
    "rule p(x1, x2) -a[1]-> nil forall",
    "rule p(x1, x2) -a[1]-> nil $",
]


def texts():
    """Every pinned spec text, in a fixed order."""
    rng = random.Random(19)
    bundled = [spec_text(name) for name in SPEC_NAMES]
    out = []
    for _ in range(CHAINS):
        text = rng.choice(bundled)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        out.append(text)
    out.extend(_HEADER + line + "\n" for line in MALFORMED)
    out.append(
        "dialect desimone\nsemiring boolean\nlabels a\nop nil : 0\n"
        "rule nil -a[1]-> nil\n"  # a weight outside the weighted dialect
    )
    return out


def outcome(text):
    """The parse outcome of ``text`` as plain data."""
    try:
        spec = parse_spec(text)
    except SpecParseError as exc:
        return ["refused", str(exc), exc.line, exc.col]
    return [
        [
            r.op,
            [p.show() for p in r.premises],
            r.label,
            spec.semiring.show(r.weight),
            None if r.target is None else print_term(r.target),
            r.line,
        ]
        for r in spec.rules
    ]


def _digests():
    return {f"{i:04d}": digest(outcome(t)) for i, t in enumerate(texts())}


def test_parse_outcomes_match_the_pins():
    check_pins(PINS, _digests())


if __name__ == "__main__":
    write_pins(PINS, _digests)
