"""Canonical weighted sums and the distribution operators built on them."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desimone import (
    BOOLEAN,
    HOLE,
    INF,
    FormalSum,
    Leaf,
    Node,
    Obs,
    Pure,
    RATIONAL,
    STOP,
    Step,
    Var,
    belem_map,
    dist_b,
    dist_b0,
    dist_sigma,
    dist_sigma_star,
    enumerate_closed_terms,
    fs_empty,
    fs_flatten,
    fs_map,
    fs_pair_join,
    fs_total,
    fs_unit,
    is_affine,
    load_spec,
    payload_key,
)
from oracles import as_set, fs_leq, set_flatten, set_product_terms

F = Fraction


def bool_sums(carrier):
    """Every boolean formal sum over the carrier, empty one included."""
    return [
        FormalSum(BOOLEAN, [(x, 1) for i, x in enumerate(carrier) if mask >> i & 1])
        for mask in range(2 ** len(carrier))
    ]


weight = st.one_of(
    st.fractions(min_value=0, max_value=3),
    st.just(INF),
)
rat_sum = st.lists(
    st.tuples(st.sampled_from("pqr"), weight), max_size=4
).map(lambda entries: FormalSum(RATIONAL, entries))
rat_nested = st.lists(st.tuples(rat_sum, weight), max_size=3).map(
    lambda entries: FormalSum(RATIONAL, entries)
)
rat_nested2 = st.lists(st.tuples(rat_nested, weight), max_size=3).map(
    lambda entries: FormalSum(RATIONAL, entries)
)


# --- canonical form ----------------------------------------------------------

def test_zero_entries_are_dropped_and_duplicates_merge():
    s = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(0)), ("x", F(1, 4))])
    assert dict(s.items()) == {"x": F(3, 4)}
    assert s.weight("y") == 0 and s.weight("z") == 0


def test_structural_equality_is_semantic_equality():
    a = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    b = FormalSum(RATIONAL, [("y", F(1, 2)), ("x", F(1, 4)), ("x", F(1, 4))])
    assert a == b and hash(a) == hash(b)
    assert a != fs_unit(RATIONAL, "x")


def test_rejects_negative_weights():
    with pytest.raises(ValueError):
        FormalSum(RATIONAL, [("x", F(-1, 2))])


def test_a_float_weight_is_stored_as_the_checked_fraction():
    s = FormalSum(RATIONAL, [("x", 0.5)])
    weight = s.weight("x")
    assert type(weight) is Fraction and weight == F(1, 2)
    assert repr(s) == "<'x': 1/2>"


def test_sorted_items_are_deterministic():
    s = FormalSum(RATIONAL, [("b", F(1)), ("a", F(2))])
    assert s.sorted_items() == [("a", F(2)), ("b", F(1))]


def test_payload_order_over_every_payload_kind_is_pinned():
    nil = Node("nil")
    half = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    inf_x = FormalSum(RATIONAL, [("x", INF)])
    empty = FormalSum(RATIONAL)
    hole_left = Node("par", [Leaf(HOLE), nil])
    hole_right = Node("par", [nil, Leaf(HOLE)])
    pre_nil = Node("pre_a", [nil])
    step_a, step_b = Step("a", pre_nil), Step("b", nil)
    obs_step = Obs(Step("a", half))
    items = [
        "b", ("b",), Obs(STOP), hole_left, F(1, 2), Var("y", 1), inf_x, step_b,
        3, Leaf("c"), ("a", "b"), STOP, Pure(half), INF, Leaf(HOLE), "a",
        Var("x", 2), pre_nil, obs_step, (), half, nil, step_a, 0, hole_right,
        Leaf(Var("x", 1)), empty,
    ]
    assert sorted(items, key=payload_key) == [
        Pure(half), Obs(STOP), obs_step, STOP, step_a, step_b,
        empty, half, inf_x,
        Leaf(HOLE), Leaf("c"), Leaf(Var("x", 1)),
        nil, hole_left, hole_right, pre_nil,
        0, F(1, 2), 3, INF, "a", "b", (), ("b",), ("a", "b"),
        Var("x", 2), Var("y", 1),
    ]


def test_sorted_items_of_a_deep_target():
    deep = Node("nil")
    for _ in range(1200):
        deep = Node("pre_a", [deep])
    s = FormalSum(RATIONAL, [(Step("a", deep), F(1, 2)), (STOP, F(1, 2))])
    assert s.sorted_items() == [(STOP, F(1, 2)), (Step("a", deep), F(1, 2))]


def _nested_key(x):
    """The term order as nested tuples, recursing on depth: the oracle of
    ``payload_key``'s flat term keys."""
    if isinstance(x, Leaf):
        return ("leaf", payload_key(x.payload))
    return ("node", x.op, tuple(_nested_key(c) for c in x.children))


def test_flat_term_keys_order_terms_as_nested_keys_do():
    terms = [
        t for name in ("de_simone_par", "copy_nonaffine")
        for t in enumerate_closed_terms(load_spec(name).signature, 6)
    ]
    terms += [Leaf("v"), Leaf(HOLE), Node("par", [Leaf(HOLE), Node("nil")])]
    terms += [Node("par", [Node("nil"), Leaf(Var("x", 1))]), Node("pre_a", [Leaf("v")])]
    random.Random(0).shuffle(terms)
    assert len(terms) > 7000
    assert sorted(terms, key=payload_key) == sorted(terms, key=_nested_key)


def test_terms_that_differ_only_in_their_last_leaf_sort_at_any_depth():
    # comparing nested keys recursed in C, two tuple levels per term level
    a, b = Node("a"), Node("b")
    for _ in range(2000):
        a, b = Node("pre_a", [a]), Node("pre_a", [b])
    assert sorted([b, a], key=payload_key) == [a, b]
    s = FormalSum(BOOLEAN, [(Step("x", b), 1), (Step("x", a), 1)])
    assert s.sorted_items() == [(Step("x", a), 1), (Step("x", b), 1)]


def test_the_coproduct_tags_are_distinct_frozen_records():
    assert Pure("v") != Obs("v") and Pure("v") == Pure("v") != Pure("w")
    assert len({Pure("v"), Obs("v"), Pure("v")}) == 2
    assert repr(Pure("v")) == "Pure(value='v')" and repr(Obs(STOP)) == "Obs(elem=STOP)"
    with pytest.raises(AttributeError, match="^cannot assign to field 'value'$"):
        Pure("v").value = "w"


def test_basic_constructors():
    assert fs_unit(BOOLEAN, "x").sorted_items() == [("x", 1)]
    assert fs_empty(RATIONAL).sorted_items() == []
    assert fs_total(fs_empty(RATIONAL)) == 0


def test_fs_map_merges_collisions():
    s = FormalSum(RATIONAL, [("x", F(1, 3)), ("y", F(1, 6))])
    assert fs_map(lambda _: "z", s) == FormalSum(RATIONAL, [("z", F(1, 2))])


def test_fs_leq_is_pointwise():
    small = FormalSum(RATIONAL, [("x", F(1, 4))])
    big = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1))])
    assert fs_leq(small, big) and not fs_leq(big, small)
    assert fs_leq(fs_empty(RATIONAL), small)


def test_is_affine_means_total_weight_one():
    assert is_affine(fs_unit(RATIONAL, "x"))
    assert is_affine(FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))]))
    assert not is_affine(fs_empty(RATIONAL))
    assert not is_affine(FormalSum(RATIONAL, [("x", F(1, 2))]))
    assert is_affine(FormalSum(BOOLEAN, [("x", 1), ("y", 1)]))
    assert not is_affine(fs_empty(BOOLEAN))


# --- monad laws --------------------------------------------------------------

def test_flatten_worked_example():
    inner1 = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    inner2 = fs_unit(RATIONAL, "x")
    nested = FormalSum(RATIONAL, [(inner1, F(1, 2)), (inner2, F(1, 2))])
    assert fs_flatten(nested) == FormalSum(RATIONAL, [("x", F(3, 4)), ("y", F(1, 4))])


def test_monad_unit_laws_boolean_exhaustive():
    for s in bool_sums("pqr"):
        assert fs_flatten(fs_unit(BOOLEAN, s)) == s
        assert fs_flatten(fs_map(lambda x: fs_unit(BOOLEAN, x), s)) == s


def test_monad_associativity_boolean():
    base = bool_sums("pq")
    nested = [
        FormalSum(BOOLEAN, [(s, 1) for i, s in enumerate(base) if mask >> i & 1])
        for mask in range(2 ** len(base))
    ]
    # outer layers over a fixed handful of nested sums keep this exhaustive
    picks = [nested[0], nested[1], nested[5], nested[10]]
    for mask in range(2 ** len(picks)):
        sss = FormalSum(BOOLEAN, [(n, 1) for i, n in enumerate(picks) if mask >> i & 1])
        assert fs_flatten(fs_flatten(sss)) == fs_flatten(fs_map(fs_flatten, sss))


@given(rat_sum)
def test_monad_unit_laws_rational(s):
    assert fs_flatten(fs_unit(RATIONAL, s)) == s
    assert fs_flatten(fs_map(lambda x: fs_unit(RATIONAL, x), s)) == s


@given(rat_nested2)
def test_monad_associativity_rational(sss):
    assert fs_flatten(fs_flatten(sss)) == fs_flatten(fs_map(fs_flatten, sss))


@given(rat_nested)
def test_total_is_a_homomorphism_under_flatten(ss):
    expected = RATIONAL.sum(
        RATIONAL.mul(outer, fs_total(inner)) for inner, outer in ss.items()
    )
    assert fs_total(fs_flatten(ss)) == expected


def test_boolean_flatten_is_union():
    base = bool_sums("xyz")
    for i, a in enumerate(base):
        for b in base[i:]:
            ss = FormalSum(BOOLEAN, [(a, 1), (b, 1)])
            assert as_set(fs_flatten(ss)) == set_flatten([as_set(a), as_set(b)])


# --- tagged pairing ----------------------------------------------------------

def split_tagged(j):
    lefts, rights = [], []
    for p, w in j.items():
        (lefts if isinstance(p, Pure) else rights).append(
            (p.value if isinstance(p, Pure) else p.elem, w)
        )
    return FormalSum(j.semiring, lefts), FormalSum(j.semiring, rights)


@given(rat_sum, rat_sum)
def test_pair_join_then_split_recovers_both(s, t):
    # the tags keep the two sums apart even on overlapping supports
    joined = fs_pair_join(s, t)
    assert split_tagged(joined) == (s, t)
    assert fs_total(joined) == RATIONAL.add(fs_total(s), fs_total(t))


def test_split_then_join_is_identity_on_tag_separable_sums():
    j = FormalSum(
        RATIONAL,
        [(Pure("x"), F(1, 3)), (Obs("u"), F(1, 6)), (Pure("y"), F(1, 2))],
    )
    s, t = split_tagged(j)
    assert fs_pair_join(s, t) == j


def test_pair_join_boolean_exhaustive():
    for s, t in product(bool_sums("pq"), bool_sums("uv")):
        joined = fs_pair_join(s, t)
        assert as_set(joined) == {Pure(x) for x in s.payloads()} | {
            Obs(y) for y in t.payloads()
        }


# --- distribution over steps -------------------------------------------------

def test_dist_b_examples():
    both = FormalSum(BOOLEAN, [("x", 1), ("y", 1)])
    assert as_set(dist_b(BOOLEAN, Step("a", both))) == {Step("a", "x"), Step("a", "y")}
    assert dist_b(RATIONAL, STOP) == fs_unit(RATIONAL, STOP)
    skewed = FormalSum(RATIONAL, [("x", F(1, 3)), ("y", F(2, 3))])
    assert dist_b(RATIONAL, Step("a", skewed)) == FormalSum(
        RATIONAL, [(Step("a", "x"), F(1, 3)), (Step("a", "y"), F(2, 3))]
    )


@given(rat_sum)
def test_dist_b_preserves_total(s):
    assert fs_total(dist_b(RATIONAL, Step("a", s))) == fs_total(s)


def test_dist_b0_examples():
    halves = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    assert dist_b0(RATIONAL, Pure(halves)) == FormalSum(
        RATIONAL, [(Pure("x"), F(1, 2)), (Pure("y"), F(1, 2))]
    )
    assert dist_b0(RATIONAL, Obs(STOP)) == fs_unit(RATIONAL, Obs(STOP))
    single = FormalSum(BOOLEAN, [("x", 1)])
    assert as_set(dist_b0(BOOLEAN, Obs(Step("a", single)))) == {Obs(Step("a", "x"))}


def test_belem_map():
    assert belem_map(Step("a", 1), lambda n: n + 1) == Step("a", 2)
    assert belem_map(STOP, lambda n: n + 1) is STOP


# --- distribution over one operator ------------------------------------------

def test_dist_sigma_examples():
    xy = FormalSum(BOOLEAN, [("x", 1), ("y", 1)])
    z = fs_unit(BOOLEAN, "z")
    assert as_set(dist_sigma(BOOLEAN, "f", [xy, z])) == {
        Node("f", [Leaf("x"), Leaf("z")]),
        Node("f", [Leaf("y"), Leaf("z")]),
    }
    halves = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    out = dist_sigma(RATIONAL, "f", [halves, fs_unit(RATIONAL, "z")])
    assert out == FormalSum(
        RATIONAL,
        [
            (Node("f", [Leaf("x"), Leaf("z")]), F(1, 2)),
            (Node("f", [Leaf("y"), Leaf("z")]), F(1, 2)),
        ],
    )
    assert dist_sigma(RATIONAL, "c", []) == fs_unit(RATIONAL, Node("c", []))


def test_dist_sigma_matches_set_product():
    sums = bool_sums("xyz")
    for a, b in product(sums, repeat=2):
        got = as_set(dist_sigma(BOOLEAN, "f", [a, b]))
        assert got == set_product_terms("f", [as_set(a), as_set(b)])


@given(rat_sum, rat_sum)
def test_dist_sigma_total_is_product_of_totals(a, b):
    assert fs_total(dist_sigma(RATIONAL, "f", [a, b])) == RATIONAL.mul(
        fs_total(a), fs_total(b)
    )


@given(rat_sum, rat_sum)
def test_dist_sigma_commutes_with_collapsing(a, b):
    # collapsing every payload to one point after distributing equals
    # distributing the collapsed arguments
    def crush_sum(s):
        return fs_map(lambda _: "*", s)

    def crush_term(t):
        return Node(t.op, [Leaf("*") for _ in t.children])

    assert fs_map(crush_term, dist_sigma(RATIONAL, "f", [a, b])) == dist_sigma(
        RATIONAL, "f", [crush_sum(a), crush_sum(b)]
    )


# --- distribution over whole terms -------------------------------------------

def test_dist_sigma_star_repeated_leaf_chooses_independently():
    v1 = FormalSum(BOOLEAN, [("v", 1), ("w", 1)])
    t = Node("f", [Leaf(v1), Leaf(v1)])
    got = as_set(dist_sigma_star(BOOLEAN, t))
    assert got == {
        Node("f", [Leaf(x), Leaf(y)]) for x in ("v", "w") for y in ("v", "w")
    }


def test_dist_sigma_star_affine_and_single_leaf():
    v = fs_unit(BOOLEAN, "v")
    u = fs_unit(BOOLEAN, "u")
    assert as_set(dist_sigma_star(BOOLEAN, Node("f", [Leaf(v), Leaf(u)]))) == {
        Node("f", [Leaf("v"), Leaf("u")])
    }
    halves = FormalSum(RATIONAL, [("x", F(1, 2)), ("y", F(1, 2))])
    assert dist_sigma_star(RATIONAL, Leaf(halves)) == fs_map(Leaf, halves)


def test_dist_sigma_star_weights_multiply_over_occurrences():
    skewed = FormalSum(RATIONAL, [("x", F(1, 3)), ("y", F(2, 3))])
    out = dist_sigma_star(RATIONAL, Node("f", [Leaf(skewed), Leaf(skewed)]))
    assert out.weight(Node("f", [Leaf("x"), Leaf("y")])) == F(2, 9)
    assert out.weight(Node("f", [Leaf("y"), Leaf("y")])) == F(4, 9)
    assert fs_total(out) == 1


@given(rat_sum, rat_sum)
def test_dist_sigma_star_on_flat_terms_is_dist_sigma(a, b):
    flat = Node("g", [Leaf(a), Leaf(b)])
    assert dist_sigma_star(RATIONAL, flat) == dist_sigma(RATIONAL, "g", [a, b])


def test_dist_sigma_star_nested_term():
    xy = FormalSum(BOOLEAN, [("x", 1), ("y", 1)])
    z = fs_unit(BOOLEAN, "z")
    t = Node("f", [Node("g", [Leaf(xy)]), Leaf(z)])
    assert as_set(dist_sigma_star(BOOLEAN, t)) == {
        Node("f", [Node("g", [Leaf("x")]), Leaf("z")]),
        Node("f", [Node("g", [Leaf("y")]), Leaf("z")]),
    }


# --- refusals and reprs -------------------------------------------------------

def test_sums_and_steps_refuse_a_non_semiring_and_mutation():
    with pytest.raises(TypeError, match="^first argument must be a Semiring$"):
        FormalSum("rational")
    with pytest.raises(AttributeError, match="^FormalSum is immutable$"):
        fs_empty(BOOLEAN).semiring = RATIONAL
    with pytest.raises(AttributeError, match="^Step is immutable$"):
        Step("a", "v").label = "b"


def test_step_and_stop_reprs():
    assert repr(Step("a", Node("nil"))) == "Step('a', Node('nil', []))"
    assert repr(STOP) == "STOP"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fs_flatten(fs_unit(BOOLEAN, "v")), TypeError,
         "fs_flatten needs sum-of-sums, got payload 'v'"),
        (lambda: fs_pair_join(fs_empty(BOOLEAN), fs_empty(RATIONAL)), ValueError,
         "fs_pair_join needs sums over the same semiring"),
        (lambda: payload_key(1.5), TypeError, "no canonical order for payload 1.5"),
        (lambda: dist_b(BOOLEAN, Step("a", "v")), TypeError,
         "dist_b expects a formal-sum successor, got 'v'"),
        (lambda: dist_b0(BOOLEAN, Pure("v")), TypeError,
         "dist_b0 expects a formal-sum payload, got 'v'"),
        (lambda: dist_b0(BOOLEAN, "v"), TypeError, "not a B0 element: 'v'"),
        (lambda: dist_sigma_star(BOOLEAN, Node("f", [Leaf("v")])), TypeError,
         "dist_sigma_star expects formal-sum leaves, got 'v'"),
    ],
)
def test_payloads_of_the_wrong_kind_are_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
