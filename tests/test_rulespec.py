"""Parsing the rule DSL, metavariable expansion, and format validation."""

import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from desimone import (
    Leaf,
    Node,
    Premise,
    Rule,
    RuleTargetError,
    SPEC_NAMES,
    SpecParseError,
    Var,
    ast_estimate,
    enumerate_closed_terms,
    expand_forall,
    format_errors,
    leaky_spec_text,
    load_spec,
    parse_spec,
    parse_term,
    spec_path,
    spec_text,
    step,
    trace_bounded,
    validate_format,
)
from oracles import recheck_conditions

F = Fraction


# --- the bundled corpus ------------------------------------------------------

EXPECTED_RULE_COUNTS = {
    "de_simone_par": 10,
    "prob_par": 9,
    "leaky": 61,
    "copy_nonaffine": 12,
    "loop": 1,
    "pair_affine": 1,
    "pair_nonaffine": 1,
}


def test_bundled_names_are_stable():
    assert SPEC_NAMES == tuple(EXPECTED_RULE_COUNTS)


@pytest.mark.parametrize("name", sorted(EXPECTED_RULE_COUNTS))
def test_bundled_specs_parse_with_pinned_rule_counts(name):
    spec = load_spec(name)
    assert len(spec.rules) == EXPECTED_RULE_COUNTS[name]
    assert spec.dialect in ("desimone", "weighted")
    if spec.dialect == "desimone":
        assert spec.semiring.name == "boolean"


def test_load_spec_matches_text_and_path():
    for name in SPEC_NAMES:
        text = spec_text(name)
        assert Path(spec_path(name)).read_text(encoding="utf-8") == text
        assert len(parse_spec(text).rules) == len(load_spec(name).rules)


def test_only_the_nonaffine_specs_fail_validation():
    for name in SPEC_NAMES:
        errors = format_errors(load_spec(name))
        if name.endswith("_nonaffine"):
            assert errors, name
            assert all(v.condition == "affine-target" for v in errors)
        else:
            assert errors == [], name


def test_leaky_file_is_byte_identical_to_its_generator():
    assert spec_text("leaky") == leaky_spec_text(30)


def test_leaky_generator_structure():
    spec = parse_spec(leaky_spec_text(3))
    assert spec.signature.names() == ["c0", "c1", "c2", "c3"]
    assert len(spec.rules) == 7  # a stop rule per state, a hop for all but the last
    weights = {(r.label, r.target is None): r.weight for r in spec.rules_for("c0")}
    assert weights == {(None, True): F(1, 3), ("a", False): F(2, 3)}
    last = spec.rules_for("c3")
    assert len(last) == 1 and last[0].target is None


# --- header and declaration errors -------------------------------------------

HEADER = "dialect weighted\nsemiring rational\nlabels a, b\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("semiring rational\nlabels a\nop c : 0\n", "dialect"),
        ("dialect weighted\n", "semiring"),
        ("dialect weighted\nsemiring rational\nop c : 0\n", "labels"),
        ("dialect desimone\nsemiring rational\nlabels a\nop c : 0\n", "boolean"),
        (HEADER + "op c : 0\nop c : 1\n", "twice"),
        (HEADER + "op x1 : 0\n", "variable"),
        (HEADER + "flavour sour\n", "unknown"),
        (HEADER + "rule d -a[1]-> d\n", "d"),
        (HEADER + "op c : 0\nrule c -z[1]-> c\n", "z"),
        (HEADER + "op c : 0\nrule c -a[2/0]-> c\n", "2/0"),
        (HEADER + "op c : 0\nrule c -a[-1]-> c\n", "-1"),
        (HEADER + "op f : 2\nop c : 0\nrule f(x1) -a[1]-> c\n", "exactly"),
        (HEADER + "op c : 0\nrule c -@m[1]-> c\n", "@m"),
        ("dialect desimone\nsemiring boolean\nlabels a\nop c : 0\nrule c -a[1]-> c\n", "weight"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_spec(HEADER + "op c : 0\nrule c -a[2/0]-> c\n")
    assert err.value.line == 5


@pytest.mark.parametrize(
    "line, col, fragment",
    [
        ("rule c -a[1]-> zz", 16, "unknown operator 'zz'"),
        ("   rule   c -z[1]-> c", 13, "undeclared label 'z'"),
        ("\trule c -a[1]-> c(c", 18, "unclosed argument list"),
        ("rule c -a[1]-> c $  # comment", 18, "unexpected character '$'"),
        ("op d : 1 $", 10, "unexpected character '$'"),
        ("rule c -a[1]-> c -a->", 18, "trailing input an arrow"),
    ],
)
def test_parse_error_columns_count_from_the_line_start(line, col, fragment):
    with pytest.raises(SpecParseError) as err:
        parse_spec(HEADER + "op c : 0\n" + line + "\n")
    assert (err.value.line, err.value.col) == (5, col)
    assert fragment in str(err.value)


def test_x0_is_an_operator_name_not_a_variable():
    # variable indices start at 1, so x0 is an ordinary identifier
    spec = parse_spec(HEADER + "op x0 : 0\nop f : 1\nrule f(x1) -a[1]-> x0\n")
    assert spec.rules[0].target == Node("x0", [])
    with pytest.raises(SpecParseError) as err:
        parse_spec(HEADER + "op f : 1\nrule f(x1) -a[1]-> x0\n")
    assert "unknown operator 'x0'" in str(err.value)


def test_comments_and_blank_lines_are_ignored():
    spec = parse_spec(
        "# leading comment\n\ndialect weighted\nsemiring rational\n"
        "labels a  # trailing comment\n\nop c : 0\nrule c -a[1]-> c\n"
    )
    assert len(spec.rules) == 1 and spec.labels == ("a",)


# --- metavariable expansion --------------------------------------------------

def test_forall_expands_one_rule_per_label():
    spec = parse_spec(
        HEADER + "op c : 0\nop f : 1\n"
        "rule f(x1) -@l[1]-> y1 when x1 -@l-> y1 forall @l\n"
    )
    assert sorted(r.label for r in spec.rules) == ["a", "b"]
    for rule in spec.rules:
        assert [p.label for p in rule.premises] == [rule.label]


def test_forall_with_two_metavariables_takes_the_product():
    spec = parse_spec(
        HEADER + "op f : 2\nop c : 0\n"
        "rule f(x1, x2) -@m[1]-> f(y1, y2) when x1 -@m-> y1, x2 -@n-> y2 forall @m, @n\n"
    )
    assert len(spec.rules) == 4
    combos = {
        (r.premises[0].label, r.premises[1].label) for r in spec.rules
    }
    assert combos == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_expand_forall_on_a_ground_schema_is_identity():
    rule = Rule(
        op="c", arity=0, premises=(), label="a", weight=F(1),
        target=Node("c", []), line=1,
    )
    rules = expand_forall(rule, ("a", "b"))
    assert len(rules) == 1 and rules[0].label == "a"
    assert rules == [rule]


def test_expand_forall_direct_call():
    rule = Rule(
        op="par", arity=2, premises=(Premise(1, "@l"),), label="@l",
        weight=F(1, 2),
        target=Node("par", [Leaf(Var("y", 1)), Leaf(Var("x", 2))]),
        forall=("@l",), line=3,
    )
    rules = expand_forall(rule, ("a", "b"))
    assert [(r.label, r.premises[0].label) for r in rules] == [("a", "a"), ("b", "b")]
    assert all(r.line == 3 and r.weight == F(1, 2) for r in rules)
    # ground premises sort by source, a transition before a termination
    stop = Rule(
        op="par", arity=2, label=None, weight=F(1), target=None,
        premises=(Premise(2, None), Premise(2, "@l"), Premise(1, "@l")),
        forall=("@l",), line=4,
    )
    assert [r.premises for r in expand_forall(stop, ("a", "b"))] == [
        (Premise(1, "a"), Premise(2, "a"), Premise(2, None)),
        (Premise(1, "b"), Premise(2, "b"), Premise(2, None)),
    ]


def test_rules_differing_only_in_their_line_are_one_rule():
    fields = dict(op="c", arity=0, premises=(), label="a", weight=F(1), target=None)
    first, second = Rule(**fields, line=1), Rule(**fields, line=9)
    assert first == second and hash(first) == hash(second)
    assert first != Rule(**fields, line=1, forall=("@l",))
    assert Rule(*fields.values()).line == 0 and Rule(*fields.values()).forall == ()
    assert repr(Premise(1, None)) == "Premise(index=1, label=None)"
    with pytest.raises(AttributeError, match="^cannot assign to field 'line'$"):
        first.line = 2
    with pytest.raises(AttributeError, match="^cannot assign to field 'label'$"):
        Premise(1, "a").label = "b"


# --- duplicate rules ---------------------------------------------------------

def test_identical_weighted_rules_merge_additively():
    spec = parse_spec(HEADER + "op c : 0\nrule c -a[1/3]-> c\nrule c -a[1/3]-> c\n")
    assert [(r.label, r.weight) for r in spec.rules] == [("a", F(2, 3))]
    c = parse_term(spec.signature, "c")
    assert list(step(spec, c).items())[0][1] == F(2, 3)


def test_identical_boolean_rules_merge_idempotently():
    spec = parse_spec(
        "dialect desimone\nsemiring boolean\nlabels a\nop c : 0\n"
        "rule c -a-> c\nrule c -a-> c\n"
    )
    assert [(r.label, r.weight) for r in spec.rules] == [("a", 1)]


# --- format validation against an independent recheck ------------------------

DS = "dialect desimone\nsemiring boolean\nlabels a, b\n"
WT = "dialect weighted\nsemiring rational\nlabels a, b\n"

# each entry: spec text and whether the validator should report any errors
VALIDATION_CORPUS = [
    ("ds axiom", DS + "op c : 0\nrule c -a-> c\n", False),
    ("ds prefix", DS + "op c : 0\nop p : 1\nrule p(x1) -a-> x1\n", False),
    ("ds closed target", DS + "op c : 0\nop f : 1\nrule f(x1) -b-> c when x1 -a-> y1\n", False),
    ("ds term premise", DS + "op c : 0\nop f : 1\nrule f(x1) -a-> c when x1 -> *\n", True),
    ("ds termination", DS + "op c : 0\nrule c -> *\n", True),
    ("ds labelled termination", DS + "op c : 0\nrule c -a-> *\n", True),
    ("ds duplicate premise", DS + "op f : 2\nop c : 0\n"
     "rule f(x1, x2) -a-> c when x1 -a-> y1, x1 -b-> y1\n", True),
    ("ds premise range", DS + "op f : 1\nop c : 0\n"
     "rule f(x1) -a-> c when x2 -a-> y2\n", True),
    ("ds nonaffine target", DS + "op f : 1\nop g : 2\n"
     "rule f(x1) -a-> g(y1, y1) when x1 -a-> y1\n", True),
    ("ds unpremised successor", DS + "op f : 2\nop c : 0\n"
     "rule f(x1, x2) -a-> y2 when x1 -a-> y1\n", True),
    ("ds copied premise source", DS + "op f : 1\nop g : 2\n"
     "rule f(x1) -a-> g(y1, x1) when x1 -a-> y1\n", True),
    ("ds target var range", DS + "op f : 1\nop g : 2\n"
     "rule f(x1) -a-> g(y1, x2) when x1 -a-> y1\n", True),
    ("ds two faults at once", DS + "op f : 2\nop g : 2\n"
     "rule f(x1, x2) -a-> g(y1, y1) when x1 -a-> y1, x1 -b-> y1\n", True),
    ("wt axiom weight zero", WT + "op c : 0\nrule c -a[0]-> c\n", False),
    ("wt plain termination", WT + "op c : 0\nrule c -[1]-> *\n", False),
    ("wt labelled termination", WT + "op c : 0\nrule c -a[1/2]-> *\n", True),
    # inf weight is flagged but only as a warning
    ("wt infinite weight", WT + "op c : 0\nrule c -a[inf]-> c\n", False),
    ("wt term premise ok", WT + "op f : 2\nop c : 0\n"
     "rule f(x1, x2) -[1/2]-> * when x1 -> *\n", False),
    ("wt keep unpremised arg", WT + "op f : 2\n"
     "rule f(x1, x2) -a[1]-> f(y1, x2) when x1 -a-> y1\n", False),
    ("wt copy terminated arg", WT + "op f : 2\nop c : 0\n"
     "rule f(x1, x2) -a[1]-> f(x1, y2) when x1 -> *, x2 -a-> y2\n", True),
    ("wt successor of termination", WT + "op f : 1\nop c : 0\n"
     "rule f(x1) -a[1]-> y1 when x1 -> *\n", True),
    ("wt mixed premises twice", WT + "op f : 1\nop c : 0\n"
     "rule f(x1) -a[1]-> c when x1 -a-> y1, x1 -> *\n", True),
    ("wt nonaffine", WT + "op f : 1\nop g : 2\n"
     "rule f(x1) -a[1]-> g(y1, y1) when x1 -a-> y1\n", True),
    ("wt premise range", WT + "op f : 1\nop c : 0\n"
     "rule f(x1) -a[1]-> c when x3 -a-> y3\n", True),
    ("wt nonaffine on sources", WT + "op f : 2\nop g : 2\n"
     "rule f(x1, x2) -a[1]-> g(x2, x2) when x1 -a-> y1\n", True),
]


@pytest.mark.parametrize(
    "text, dirty", [(t, d) for _, t, d in VALIDATION_CORPUS],
    ids=[name for name, _, _ in VALIDATION_CORPUS],
)
def test_validator_agrees_with_independent_recheck(text, dirty):
    spec = parse_spec(text)
    violations = validate_format(spec)
    assert bool(format_errors(spec)) == dirty
    reported = {(v.line, v.condition) for v in violations}
    expected = set()
    for rule in spec.rules:
        for condition in recheck_conditions(spec.dialect, rule):
            expected.add((rule.line, condition))
    assert reported == expected
    # each violation's rule text parses back to the ground rule it names
    head = "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("rule")
    )
    for v in violations:
        shown = parse_spec(head + "rule " + v.rule + "\n").rules
        assert list(shown) == [r for r in spec.rules if r.line == v.line]


def test_corpus_is_large_enough():
    assert len(VALIDATION_CORPUS) >= 20


def test_violations_name_the_rule_and_severity():
    spec = load_spec("copy_nonaffine")
    (v,) = validate_format(spec)
    assert v.condition == "affine-target"
    assert v.severity == "error"
    assert "g(y1, y1)" in v.fragment
    assert "f(x1)" in v.rule


def test_infinite_weight_is_a_warning_not_an_error():
    spec = parse_spec(WT + "op c : 0\nrule c -a[inf]-> c\n")
    (v,) = validate_format(spec)
    assert v.severity == "warning" and v.condition == "weight-inf"
    assert format_errors(spec) == []


def test_rules_for_groups_by_operator(de_simone_par):
    assert len(de_simone_par.rules_for("par")) == 4
    assert len(de_simone_par.rules_for("nil")) == 0
    assert all(r.op == "plus" for r in de_simone_par.rules_for("plus"))


def test_a_huge_declared_arity_is_neither_listed_nor_enumerated():
    text = WT + "op nil : 0\nop p : 20971541\nrule p(x1) -a-> x1\n"
    start = time.perf_counter()
    with pytest.raises(SpecParseError, match=r"exactly \(x1, \.\.\., x20971541\)"):
        parse_spec(text)
    assert time.perf_counter() - start < 1
    # declared without a rule, it parses, and the enumeration skips it
    spec = parse_spec(WT + "op nil : 0\nop p : 20971541\n")
    assert list(enumerate_closed_terms(spec.signature, 3)) == [Node("nil", [])]
    assert time.perf_counter() - start < 2
    with pytest.raises(SpecParseError, match=r"exactly \(x1, x2\)"):
        parse_spec(WT + "op p : 2\nrule p(x1) -a-> x1\n")


# --- a seeded mutation fuzz of the bundled specs -----------------------------

_TOKEN = re.compile(r"-\S*?->|\w+|[^\w\s]")  # an arrow is one token


def _kind(token):
    if re.fullmatch(r"[xy]\d+", token):
        return "variable"
    if token.endswith("->"):
        return "arrow"
    if token.isdigit():
        return "number"
    return "name" if re.fullmatch(r"\w+", token) else "punctuation"


def _mutate(rng, text):
    """One or two edits, nine in ten on a rule line: delete or duplicate the
    line, or delete a token, add one after it, glue one onto it, or swap it
    for one of the same kind. Added tokens come from the same spec."""
    lines = text.splitlines()
    pool = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        rules = [i for i, line in enumerate(lines) if line.startswith("rule")]
        if rules and rng.random() < 0.9:
            i = rng.choice(rules)
        else:
            i = rng.randrange(len(lines))
        edit = rng.randrange(7)
        if edit == 0:
            del lines[i]
            lines = lines or [""]
            continue
        if edit == 1:
            lines.insert(i, lines[i])
            continue
        spans = [m.span() for m in _TOKEN.finditer(lines[i])]
        if not spans:
            continue
        a, b = rng.choice(spans)
        old = lines[i][a:b]
        if edit == 2:
            new = ""
        elif edit == 3:
            new = old + " " + rng.choice(pool)
        elif edit == 4:
            new = old + rng.choice(pool)
        else:
            new = rng.choice([t for t in pool if _kind(t) == _kind(old)])
        lines[i] = lines[i][:a] + new + lines[i][b:]
    return "\n".join(lines) + "\n"


def test_mutated_specs_answer_or_refuse(monkeypatch):
    """Every mutant is refused at parse time, or each analysis on its small
    terms answers or refuses a fired rule with an unbound target variable.
    The one other refusal is ``ast_estimate``'s on a boolean spec."""
    import desimone.trace as trace_module

    monkeypatch.setattr(trace_module, "MAX_AST_STATES", 200)
    rng = random.Random(0)
    texts = [spec_text(name) for name in SPEC_NAMES]
    analyses = [
        step,
        lambda spec, term: trace_bounded(spec, term, 3),
        lambda spec, term: ast_estimate(spec, term, 4),
    ]
    outcomes = Counter()
    for _ in range(400):
        try:
            spec = parse_spec(_mutate(rng, rng.choice(texts)))
        except SpecParseError:
            outcomes["parse"] += 1
            continue
        validate_format(spec)
        for term in islice(enumerate_closed_terms(spec.signature, 3), 20):
            for analysis in analyses:
                try:
                    analysis(spec, term)
                    outcomes["answer"] += 1
                except RuleTargetError:
                    outcomes["target"] += 1
                except ValueError as exc:
                    assert analysis is analyses[2] and spec.semiring.name == "boolean"
                    assert "rational semiring" in str(exc)
                    outcomes["boolean"] += 1
    assert min(outcomes[k] for k in ("parse", "answer", "target", "boolean")) > 0


def test_spec_repr_and_corpus_refusals():
    assert repr(load_spec("prob_par")) == "RuleSpec(weighted/rational, 4 ops, 9 rules)"
    with pytest.raises(ValueError, match="^cutoff must be >= 0$"):
        leaky_spec_text(-1)
    with pytest.raises(KeyError) as exc:
        spec_text("nope")
    assert exc.value.args[0] == f"unknown bundled spec 'nope'; have {SPEC_NAMES}"
