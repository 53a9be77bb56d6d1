"""Signatures, term trees, substitution, and closed-term enumeration."""

import time
import tracemalloc
from collections import Counter
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
    Var,
    dist_sigma_star,
    enumerate_closed_terms,
    fold,
    fs_total,
    fs_unit,
    graft,
    leaves,
    load_spec,
    parse_spec,
    parse_term,
    print_term,
    spec_text,
    term_vars,
)
import desimone.terms as terms_module
from desimone.terms import (
    MAX_CLOSED_TERMS,
    closed_term_at,
    closed_term_classes,
    enumeration_counts,
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


def test_a_variable_is_a_frozen_record():
    v = Var(kind="x", index=1)
    assert v == Var("x", 1) and hash(v) == hash(Var("x", 1)) and repr(v) == "x1"
    assert v != ("x", 1)
    with pytest.raises(AttributeError, match="^cannot assign to field 'index'$"):
        v.index = 2
    with pytest.raises(AttributeError):
        del v.kind
    assert v.index == 1 and not hasattr(v, "__dict__")
    for bad in [("x",), ("x", 1, 2)]:
        with pytest.raises(TypeError, match="^Var takes the fields kind, index$"):
            Var(*bad)
    for bad in [{"index": 1, "kind": "x", "name": "x1"}, {"kind": "x", "indx": 1}]:
        with pytest.raises(TypeError):
            Var(**bad)
    with pytest.raises(TypeError):
        Var("x", kind="y")


def test_every_record_is_frozen_and_hashable():
    import desimone.analysis, desimone.law, desimone.opmodel, desimone.trace  # noqa: F401
    from desimone.terms import Record

    classes = Record.__subclasses__()
    assert len(classes) == 12
    for cls in classes:
        record = cls.__new__(cls)
        for name in cls.__slots__:
            object.__setattr__(record, name, 0)
        twin = cls.__new__(cls)
        for name in cls.__slots__:
            object.__setattr__(twin, name, 0)
        assert record == twin and hash(record) == hash(twin), cls
        field = cls.__slots__[0]
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)


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


def test_grafting_and_distribution_do_not_recurse_on_term_depth(sig):
    open_term = parse_open(sig, _deep_text(DEPTH).replace("nil", "x1"))
    nil = Node("nil")
    closed = parse_term(sig, _deep_text(DEPTH))
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

def test_term_vars_lists_occurrences():
    t = Node("f", [Leaf(Var("y", 1)), Leaf(Var("y", 1)), Leaf(Var("x", 2))])
    assert term_vars(t) == [Var("y", 1), Var("y", 1), Var("x", 2)]


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
    assert list(enumerate_closed_terms(just_nil, 0)) == []
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
        by_size = Counter(t.size for t in enumerate_closed_terms(signature, 6))
        for size in range(1, 7):
            assert by_size[size] == count_closed_terms(signature, size)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_the_size_recurrence_counts_each_bundled_enumeration(name, monkeypatch):
    # copy_nonaffine has 89,767,409 closed terms of size <= 11, past the
    # refusal, which this count of the recurrence does not test
    monkeypatch.setattr(terms_module, "MAX_CLOSED_TERMS", 10**9)
    signature = load_spec(name).signature
    expected = [count_closed_terms(signature, n) for n in range(1, 12)]
    assert enumeration_counts(signature, 11)[0] == [0] + expected
    assert sum(expected[:5]) == len(list(enumerate_closed_terms(signature, 5)))


def test_the_size_recurrence_counts_wide_and_narrow_signatures():
    for ops in (
        [("a", 0), ("t", 3), ("b", 0), ("u", 1)],
        [("k", 0), ("w", 40)],
        [("k", 0)],
        [("f", 1)],
        [],
        [("k", 0), ("q", 4), ("f", 1), ("g", 2)],  # arity 3 missing
    ):
        signature = Signature(ops)
        expected = [count_closed_terms(signature, n) for n in range(1, 9)]
        assert enumeration_counts(signature, 8)[0] == [0] + expected
    # a constant and a unary operator: one term per size, up to a large size
    counts, _ = enumeration_counts(Signature([("k", 0), ("f", 1)]), 2000)
    assert counts == [0] + [1] * 2000


def test_the_term_at_each_index_is_the_listed_one():
    for ops, size in (
        (load_spec("copy_nonaffine").signature.ops.items(), 6),
        (load_spec("leaky").signature.ops.items(), 3),
        ([("a", 0), ("t", 3), ("b", 0), ("u", 1)], 8),
        ([("k", 0), ("q", 4), ("f", 1), ("g", 2)], 8),  # arity 3 missing
        ([("k", 0), ("w", 6)], 8),
        ([("f", 1)], 4),
    ):
        signature = Signature(ops)
        counts, rows = enumeration_counts(signature, size)
        listed = list(enumerate_closed_terms(signature, size))
        by_size = Counter(t.size for t in listed)
        assert counts == [by_size[n] for n in range(size + 1)]
        ranked = [closed_term_at(signature, counts, rows, i) for i in range(len(listed))]
        assert ranked == listed
    # the term's depth costs no recursion
    signature = Signature([("k", 0), ("f", 1)])
    counts, rows = enumeration_counts(signature, 5000)
    term = closed_term_at(signature, counts, rows, 4999)
    assert term.size == 5000 and print_term(term).count("f(") == 4999


def test_no_argument_tuple_is_built_before_an_operator_can_use_it():
    # a wide operator out of reach of the size leaves its narrower rows
    # unbuilt: listing all k-tuples of constants for k < 10 would hold
    # 31 + 31**2 + 31**3 + 31**4 tuples for leaky at size 5, and (3**11 - 1) / 2
    # unary chains at size 12
    leaky = parse_spec(spec_text("leaky") + "\nop w : 10\n")
    for ops, size, terms, limit in (
        (leaky.signature.ops.items(), 5, 31, 100_000),
        ([("nil", 0), ("a", 1), ("b", 1), ("w", 30)], 12, 4095, 2_000_000),
    ):
        signature = Signature(ops)
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumerate_closed_terms(signature, size)) == terms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_an_enumeration_past_the_bound_is_refused_before_a_term_is_built(monkeypatch):
    # copy_nonaffine has 1,933,985 closed terms of size <= 9 and 13,092,190
    # of size <= 10
    signature = load_spec("copy_nonaffine").signature
    assert sum(enumeration_counts(signature, 9)[0]) == 1_933_985
    assert 1_933_985 <= MAX_CLOSED_TERMS < 13_092_190

    def built(*args):
        raise AssertionError("a closed term was built")

    monkeypatch.setattr(terms_module, "Node", built)
    listing = enumerate_closed_terms(signature, 9)  # lazy: checks the count only
    with pytest.raises(AssertionError, match="a closed term was built"):
        next(listing)  # each size is built as it is read
    with pytest.raises(ValueError) as exc:
        enumerate_closed_terms(signature, 10)
    assert str(exc.value) == (
        "there are 13,092,190 closed terms of size <= 10, more than 5,000,000"
    )
    # the count stops at the first size past the bound
    with pytest.raises(ValueError, match="13,092,190 closed terms of size <= 10,"):
        enumerate_closed_terms(signature, 10**6)

    def classify(fresh):
        raise AssertionError("a class was asked for")

    # the count by class applies the same bound, at the call
    with pytest.raises(ValueError) as exc:
        closed_term_classes(signature, 10, classify)
    assert str(exc.value) == (
        "there are 13,092,190 closed terms of size <= 10, more than 5,000,000"
    )


def test_a_listing_holds_no_term_once_it_is_read():
    # the 44,361 closed terms of copy_nonaffine up to size 7 take 5.3 MB,
    # none of which the signature or the spent listing may keep
    signature = load_spec("copy_nonaffine").signature
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in enumerate_closed_terms(signature, 7)) == 44_361
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 500_000


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
    for ops in (
        [("a", 0), ("t", 3), ("b", 0), ("u", 1)],
        [("k", 0), ("q", 4), ("f", 1), ("g", 2)],  # arity 3 missing
    ):
        signature = Signature(ops)
        terms = list(enumerate_closed_terms(signature, 6))
        assert len(terms) == sum(count_closed_terms(signature, n) for n in range(1, 7))
        assert terms == sorted(terms, key=lambda t: term_key(t, signature))


def test_a_deep_size_is_built_without_recursion():
    start = time.perf_counter()
    *_, term = enumerate_closed_terms(Signature([("k", 0), ("f", 1)]), 5000)
    assert time.perf_counter() - start < 2.0
    assert term.size == 5000 and print_term(term).count("f(") == 4999


def test_operators_of_equal_arity_share_their_argument_tuples():
    signature = load_spec("copy_nonaffine").signature
    size_3 = [t for t in enumerate_closed_terms(signature, 3) if t.size == 3]
    unary = ["pre_a", "pre_b", "pre_c", "f", "h"]
    by_op = {op: [t.children for t in size_3 if t.op == op] for op in unary}
    first = by_op["pre_a"]
    assert len(first) == 5  # each over one of the five terms of size 2
    for op in unary[1:]:
        assert len(by_op[op]) == len(first)
        assert all(a is b for a, b in zip(by_op[op], first))


def test_signature_rejects_duplicate_ops():
    with pytest.raises(ValueError):
        Signature([("nil", 0), ("nil", 1)])


# --- refusals, reprs and leaves that are no variable ---------------------------

def test_a_variable_outside_x_and_y_or_below_index_one_is_refused():
    with pytest.raises(ValueError, match="^variable kind must be x or y, got 'z'$"):
        Var("z", 1)
    with pytest.raises(ValueError, match="^variable index must be >= 1, got 0$"):
        Var("x", 0)


def test_signature_rejects_a_negative_arity():
    with pytest.raises(ValueError, match="^negative arity for 'f'$"):
        Signature([("f", -1)])


def test_enumeration_refuses_a_negative_size():
    with pytest.raises(ValueError, match="^max_size must be >= 0$"):
        enumerate_closed_terms(Signature([("nil", 0)]), -1)
    with pytest.raises(ValueError, match="^max_size must be >= 0$"):
        closed_term_classes(Signature([("nil", 0)]), -1, list)


def test_terms_are_immutable():
    for term, name in ((Leaf(1), "Leaf"), (Node("nil"), "Node")):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            term.size = 5


def test_nodes_whose_hashes_collide_compare_their_leaf_payloads():
    # hash(-1) == hash(-2) in CPython, so both nodes pass the hash check
    left, right = Node("f", [Leaf(-1)]), Node("f", [Leaf(-2)])
    assert hash(left) == hash(right)
    assert left != right and left == Node("f", [Leaf(-1)])


def test_node_and_signature_reprs():
    assert repr(Node("f", [Leaf(Var("x", 1)), Node("nil")])) == (
        "Node('f', [Leaf(x1), Node('nil', [])])"
    )
    assert repr(Signature([("nil", 0), ("f", 2)])) == "Signature(nil/0, f/2)"


def test_graft_refuses_a_leaf_that_holds_no_term():
    with pytest.raises(TypeError, match="^graft on non-term leaf payload 'v'$"):
        graft(Node("f", [Leaf("v")]))
