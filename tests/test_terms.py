"""Signatures, term trees, substitution, and closed-term enumeration."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from desimone import (
    FormalSum,
    Leaf,
    Node,
    RATIONAL,
    SPEC_NAMES,
    Signature,
    SpecParseError,
    TermSyntaxError,
    UnboundVariableError,
    Var,
    closed_terms_of_size,
    dist_sigma_star,
    enumerate_closed_terms,
    fold,
    fs_total,
    fs_unit,
    graft,
    is_affine_term,
    leaves,
    load_spec,
    parse_spec,
    parse_term,
    print_term,
    substitute,
    term_vars,
)
from desimone.terms import (
    MAX_CLOSED_TERMS,
    closed_term_counts,
    parse_tokens,
    tokenize,
)
from oracles import count_closed_terms, map_leaves, term_key

F = Fraction


def parse_open(sig, text):
    """An open term: the whole of ``text`` parsed with variables allowed."""
    tokens = tokenize(text)
    term, pos = parse_tokens(sig, tokens, 0, allow_vars=True)
    assert pos == len(tokens)
    return term


# --- variables and trees -----------------------------------------------------

def test_var_identity():
    assert Var("x", 1) == Var("x", 1)
    assert Var("x", 1) != Var("y", 1)
    assert Var("x", 1) != Var("x", 2)
    assert Var("y", 3).name == "y3"
    assert len({Var("x", 1), Var("x", 1), Var("y", 1)}) == 2


def test_node_equality_and_size():
    t = Node("par", [Node("nil", []), Node("nil", [])])
    assert t == Node("par", [Node("nil", []), Node("nil", [])])
    assert t.size == 3
    assert Node("nil", []).size == 1
    assert leaves(t) == []
    assert leaves(Leaf(Var("x", 1))) == [Var("x", 1)]


def test_leaves_and_map_leaves():
    t = Node("f", [Leaf(1), Node("g", [Leaf(2)])])
    assert list(leaves(t)) == [1, 2]
    doubled = map_leaves(t, lambda n: n * 10)
    assert list(leaves(doubled)) == [10, 20]
    assert doubled.op == "f"


def test_graft_collapses_terms_of_terms():
    inner = Node("par", [Leaf("x"), Leaf("y")])
    t = Node("par", [Leaf(inner), Leaf(Leaf("z"))])
    assert graft(t) == Node("par", [inner, Leaf("z")])


# --- text round trips --------------------------------------------------------

@pytest.fixture(scope="module")
def sig(prob_par):
    return prob_par.signature


def test_parse_print_round_trip(sig):
    for text in ["nil", "pre_a(nil)", "par(pre_a(nil), par(nil, pre_b(nil)))"]:
        assert print_term(parse_term(sig, text)) == text


def test_parse_is_whitespace_insensitive(sig):
    a = parse_term(sig, "par( pre_a( nil ),nil )")
    assert a == parse_term(sig, "par(pre_a(nil), nil)")


def test_parse_variables_when_allowed(sig):
    t = parse_open(sig, "par(x1, y2)")
    assert t == Node("par", [Leaf(Var("x", 1)), Leaf(Var("y", 2))])
    assert print_term(t) == "par(x1, y2)"
    with pytest.raises(TermSyntaxError):
        parse_term(sig, "par(x1, nil)")


BAD_TEXTS = [
    "par(nil", "par(nil,)", "nil extra", "zzz", "par(nil)", "par(nil, nil, nil)",
    "", "par(,nil)", "pre_a nil",
]


@pytest.mark.parametrize("text", BAD_TEXTS)
def test_parse_rejects_bad_text(sig, text):
    with pytest.raises(TermSyntaxError):
        parse_term(sig, text)


def test_parse_errors_carry_position(sig):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(sig, "par(nil, zzz)")
    assert "column" in str(err.value)


def test_print_parse_identity_on_enumerated_terms(sig):
    for t in enumerate_closed_terms(sig, 5):
        assert parse_term(sig, print_term(t)) == t


# --- one grammar for closed terms and rule targets ---------------------------

def _target_spec(sig, targets):
    """A spec over ``sig`` plus a constant ``probe`` with one rule per target."""
    lines = ["dialect weighted", "semiring rational", "labels a"]
    lines += [f"op {name} : {arity}" for name, arity in sig.ops.items()]
    lines.append("op probe : 0")
    lines += [f"rule probe -a[1]-> {text}" for text in targets]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", BAD_TEXTS)
def test_bad_text_is_rejected_as_a_closed_term_and_as_a_rule_target(sig, text):
    with pytest.raises(TermSyntaxError):
        parse_term(sig, text)
    with pytest.raises(SpecParseError):
        parse_spec(_target_spec(sig, [text]))


def test_closed_terms_and_rule_targets_parse_alike(sig):
    terms = list(enumerate_closed_terms(sig, 5))
    spec = parse_spec(_target_spec(sig, [print_term(t) for t in terms]))
    targets = [rule.target for rule in spec.rules_for("probe")]
    assert targets == terms
    assert [parse_term(sig, print_term(t)) for t in terms] == terms


DEPTH = 10_000


def _deep_text(depth):
    return "pre_a(" * depth + "nil" + ")" * depth


def test_nesting_depth_is_not_bounded_by_the_recursion_limit(sig):
    assert parse_term(sig, _deep_text(DEPTH)).size == DEPTH + 1
    spec = parse_spec(_target_spec(sig, [_deep_text(DEPTH)]))
    assert spec.rules_for("probe")[0].target.size == DEPTH + 1


def test_walkers_do_not_recurse_on_term_depth(sig):
    text = _deep_text(DEPTH)
    t, u = parse_term(sig, text), parse_term(sig, text)
    assert t is not u and t == u
    assert t != parse_term(sig, _deep_text(DEPTH - 1))
    assert print_term(t) == text
    assert leaves(t) == []
    assert fold(t, lambda p: 0, lambda n, sizes: 1 + sum(sizes)) == DEPTH + 1
    open_term = parse_open(sig, text.replace("nil", "x1"))
    assert leaves(open_term) == [Var("x", 1)]
    assert leaves(map_leaves(open_term, lambda v: v.index + 6)) == [7]


def test_substitution_grafting_and_distribution_do_not_recurse_on_term_depth(sig):
    open_term = parse_open(sig, _deep_text(DEPTH).replace("nil", "x1"))
    nil = Node("nil")
    closed = parse_term(sig, _deep_text(DEPTH))
    assert substitute(open_term, {Var("x", 1): nil}) == closed
    assert graft(map_leaves(open_term, lambda v: nil)) == closed
    halves = FormalSum(RATIONAL, [("u", F(1, 2)), ("v", F(1, 2))])
    assert dist_sigma_star(RATIONAL, map_leaves(open_term, lambda v: halves)) == (
        FormalSum(
            RATIONAL,
            [(map_leaves(open_term, lambda v: p), F(1, 2)) for p in ("u", "v")],
        )
    )


def test_identifiers_follow_the_spec_token_set():
    spec = parse_spec(
        "dialect desimone\nsemiring boolean\nlabels a\nop café : 0\n"
        "op g : 1\nrule café -a-> g(café)\n"
    )
    t = parse_term(spec.signature, "g(café)")
    assert t == Node("g", [Node("café")])
    assert parse_term(spec.signature, print_term(t)) == t
    assert spec.rules[0].target == t


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("nil $", "unexpected character '$'", 5),
        ("par(nil", "unclosed argument list", 4),
        ("par(nil,)", "expected a term, got ')'", 9),
        ("par(nil nil)", "expected ',' or ')', got 'nil'", 9),
        ("pre_a(x1)", "variable 'x1' not allowed in a closed term", 7),
        ("nil -a-> nil", "trailing input an arrow", 5),
        ("", "unexpected end of term", None),
    ],
)
def test_syntax_errors_name_a_column(sig, text, message, col):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(sig, text)
    assert (err.value.message, err.value.col) == (message, col)
    assert str(err.value) == message + ("" if col is None else f" (column {col})")


def test_x0_names_no_variable(sig):
    with pytest.raises(TermSyntaxError) as err:
        parse_open(sig, "pre_a(x0)")
    assert err.value.message == "unknown operator 'x0'"
    assert parse_open(sig, "par(x01, y2)") == parse_open(sig, "par(x1, y2)")


# --- substitution ------------------------------------------------------------

def test_substitute_examples():
    x2, y1 = Var("x", 2), Var("y", 1)
    t = Node("f", [Leaf(y1), Leaf(x2)])
    out = substitute(t, {y1: Node("v", []), x2: Node("u", [])})
    assert out == Node("f", [Node("v", []), Node("u", [])])
    assert substitute(Leaf(Var("x", 1)), {Var("x", 1): Node("c", [])}) == Node("c", [])


def test_substitute_replaces_every_occurrence():
    y1 = Var("y", 1)
    t = Node("f", [Leaf(y1), Leaf(y1)])
    v = Node("v", [])
    assert substitute(t, {y1: v}) == Node("f", [v, v])


def test_substitute_unbound_variable():
    with pytest.raises(UnboundVariableError):
        substitute(Leaf(Var("x", 1)), {Var("x", 2): Node("c", [])})


def test_substitute_composes(sig):
    rng = random.Random(7)
    vars_ = [Var("x", 1), Var("x", 2), Var("y", 1)]
    closed = list(enumerate_closed_terms(sig, 3))

    def random_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return Leaf(rng.choice(vars_))
        op = rng.choice(["pre_a", "pre_b", "par"])
        k = sig.arity(op)
        return Node(op, [random_term(depth - 1) for _ in range(k)])

    for _ in range(50):
        t = random_term(3)
        sigma = {v: random_term(2) for v in vars_}
        tau = {v: rng.choice(closed) for v in vars_}
        composed = {v: substitute(img, tau) for v, img in sigma.items()}
        assert substitute(substitute(t, sigma), tau) == substitute(t, composed)


def test_term_vars_lists_occurrences():
    t = Node("f", [Leaf(Var("y", 1)), Leaf(Var("y", 1)), Leaf(Var("x", 2))])
    assert term_vars(t) == [Var("y", 1), Var("y", 1), Var("x", 2)]


def test_is_affine_term():
    assert is_affine_term(Node("f", [Leaf(Var("y", 1)), Leaf(Var("x", 2))]))
    assert not is_affine_term(Node("f", [Leaf(Var("y", 1)), Leaf(Var("y", 1))]))
    assert is_affine_term(Leaf(Var("x", 1)))
    assert is_affine_term(Node("nil", []))


def test_affine_substitution_is_multilinear():
    # pushing sums through an affine term multiplies totals exactly once each
    skewed = FormalSum(RATIONAL, [("x", F(1, 3)), ("y", F(1, 3))])
    unit = fs_unit(RATIONAL, "z")
    affine = Node("f", [Leaf(skewed), Node("g", [Leaf(unit)])])
    assert fs_total(dist_sigma_star(RATIONAL, affine)) == fs_total(skewed)
    # a repeated leaf squares the total instead
    squared = Node("f", [Leaf(skewed), Leaf(skewed)])
    assert fs_total(dist_sigma_star(RATIONAL, squared)) == fs_total(skewed) ** 2


# --- enumeration -------------------------------------------------------------

def test_enumeration_worked_examples():
    just_nil = Signature([("nil", 0)])
    assert list(enumerate_closed_terms(just_nil, 1)) == [Node("nil", [])]

    prefix = Signature([("nil", 0), ("a", 1)])
    assert list(enumerate_closed_terms(prefix, 2)) == [
        Node("nil", []),
        Node("a", [Node("nil", [])]),
    ]

    pairing = Signature([("nil", 0), ("par", 2)])
    assert list(enumerate_closed_terms(pairing, 3)) == [
        Node("nil", []),
        Node("par", [Node("nil", []), Node("nil", [])]),
    ]


def test_enumeration_without_nullary_ops_is_empty():
    assert list(enumerate_closed_terms(Signature([("f", 1)]), 4)) == []


def test_enumeration_has_no_duplicates_and_ascending_sizes(sig):
    seen = list(enumerate_closed_terms(sig, 6))
    assert len(seen) == len(set(seen))
    sizes = [t.size for t in seen]
    assert sizes == sorted(sizes)
    assert all(s <= 6 for s in sizes)


def test_enumeration_counts_match_direct_recursion(de_simone_par, prob_par):
    for spec in (de_simone_par, prob_par):
        signature = spec.signature
        for size in range(1, 7):
            got = len(list(closed_terms_of_size(signature, size)))
            assert got == count_closed_terms(signature, size)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_the_size_recurrence_counts_each_bundled_enumeration(name):
    signature = load_spec(name).signature
    expected = [
        sum(count_closed_terms(signature, n) for n in range(1, bound + 1))
        for bound in range(1, 12)
    ]
    assert list(closed_term_counts(signature, 11)) == expected
    assert expected[4] == len(list(enumerate_closed_terms(signature, 5)))


def test_the_size_recurrence_counts_wide_and_narrow_signatures():
    for ops in (
        [("a", 0), ("t", 3), ("b", 0), ("u", 1)],
        [("k", 0), ("w", 40)],
        [("k", 0)],
        [("f", 1)],
        [],
    ):
        signature = Signature(ops)
        expected = [
            sum(count_closed_terms(signature, n) for n in range(1, bound + 1))
            for bound in range(1, 9)
        ]
        assert list(closed_term_counts(signature, 8)) == expected
    # a constant and a unary operator: one term per size, up to a large size
    *_, last = closed_term_counts(Signature([("k", 0), ("f", 1)]), 2000)
    assert last == 2000


def test_an_enumeration_past_the_bound_is_refused_before_a_term_is_built():
    # copy_nonaffine has 1,933,985 closed terms of size <= 9 and 13,092,190
    # of size <= 10; a fresh signature holds no term yet
    signature = Signature(load_spec("copy_nonaffine").signature.ops.items())
    assert list(closed_term_counts(signature, 10))[-2:] == [1_933_985, 13_092_190]
    assert 1_933_985 <= MAX_CLOSED_TERMS < 13_092_190
    enumerate_closed_terms(signature, 9)  # lazy: checks the count, builds nothing
    with pytest.raises(ValueError) as exc:
        enumerate_closed_terms(signature, 10)
    assert str(exc.value) == (
        "there are 13,092,190 closed terms of size <= 10, more than 5,000,000"
    )
    # the count stops at the first size past the bound
    with pytest.raises(ValueError, match="13,092,190 closed terms of size <= 10,"):
        enumerate_closed_terms(signature, 10**6)
    assert signature._closed == {}


def test_enumeration_is_the_prefix_of_larger_bounds(sig):
    small = list(enumerate_closed_terms(sig, 4))
    large = list(islice(enumerate_closed_terms(sig, 6), len(small)))
    assert small == large


def test_enumeration_order_is_op_order_then_children(sig):
    by_size_2 = [t for t in enumerate_closed_terms(sig, 3) if t.size == 2]
    # unary ops in declaration order before anything else of that size
    assert by_size_2[:2] == [
        Node("pre_a", [Node("nil", [])]),
        Node("pre_b", [Node("nil", [])]),
    ]
    everything = list(enumerate_closed_terms(sig, 5))
    assert everything == sorted(everything, key=lambda t: term_key(t, sig))


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_each_bundled_enumeration_is_in_term_key_order(name):
    signature = load_spec(name).signature
    terms = list(enumerate_closed_terms(signature, 6))
    assert terms == sorted(terms, key=lambda t: term_key(t, signature))


def test_enumeration_with_a_ternary_operator_is_in_term_key_order():
    signature = Signature([("a", 0), ("t", 3), ("b", 0), ("u", 1)])
    terms = list(enumerate_closed_terms(signature, 6))
    assert len(terms) == sum(count_closed_terms(signature, n) for n in range(1, 7))
    assert terms == sorted(terms, key=lambda t: term_key(t, signature))


def test_closed_terms_of_size_partitions_enumeration(sig):
    merged = []
    for size in range(1, 6):
        merged.extend(closed_terms_of_size(sig, size))
    assert merged == list(enumerate_closed_terms(sig, 5))


def test_signature_rejects_duplicate_ops():
    with pytest.raises(ValueError):
        Signature([("nil", 0), ("nil", 1)])
