"""The executable rule law: single application, composite step, free
extension, and the enumeration-based naturality checker."""

from fractions import Fraction
from itertools import product

import pytest

from desimone import (
    BOOLEAN,
    FormalSum,
    Leaf,
    Node,
    Obs,
    Pure,
    RATIONAL,
    STOP,
    Step,
    bar_rho_step,
    belem_map,
    enumerate_closed_terms,
    fs_empty,
    fs_map,
    fs_unit,
    leg_args_first,
    leg_law_first,
    naturality_check,
    parse_spec,
    print_term,
    rho_apply,
    step,
    step_law,
)
from desimone.law import _decompose
from oracles import (
    BROKEN_DESIMONE,
    BROKEN_WEIGHTED,
    law_star,
    map_leaves,
    two_level_oracle,
)

F = Fraction


def bsum(*payloads):
    return FormalSum(BOOLEAN, [(p, 1) for p in payloads])


# --- single law application --------------------------------------------------

def test_rho_fires_on_exactly_matching_observations(pair_affine):
    out = rho_apply(pair_affine, "f", (Obs(Step("a", "v1")), Pure("u2")))
    assert out == bsum(STOP, Step("b", Node("f", [Leaf("v1"), Leaf("u2")])))


def test_rho_boolean_keeps_stop_when_nothing_fires(pair_affine):
    # premise wants an a-step from the first slot; a pure pair offers none
    assert rho_apply(pair_affine, "f", (Pure("v"), Pure("u"))) == bsum(STOP)


def test_rho_boolean_stop_argument_absorbs(de_simone_par):
    for other in (Pure("q"), Obs(Step("a", "q")), Obs(STOP)):
        assert rho_apply(de_simone_par, "par", (Obs(STOP), other)) == bsum(STOP)
        assert rho_apply(de_simone_par, "par", (other, Obs(STOP))) == bsum(STOP)


def test_rho_boolean_premise_sets_match_exactly(de_simone_par):
    # each plus rule watches one argument, so observing both matches nothing
    out = rho_apply(
        de_simone_par, "plus", (Obs(Step("a", "p1")), Obs(Step("b", "q1")))
    )
    assert out == bsum(STOP)
    # observing exactly the premised argument fires the matching-label rule
    out = rho_apply(de_simone_par, "plus", (Obs(Step("a", "p1")), Pure("q")))
    assert out == bsum(STOP, Step("a", Leaf("p1")))


def test_rho_unions_rules_with_the_same_premises():
    spec = parse_spec(
        "dialect desimone\nsemiring boolean\nlabels a, b\nop c : 0\n"
        "rule c -a-> c\nrule c -b-> c\n"
    )
    assert rho_apply(spec, "c", ()) == bsum(
        STOP, Step("a", Node("c", [])), Step("b", Node("c", []))
    )


def test_rho_weighted_requires_exact_premise_sets(prob_par):
    # a stopped left argument only matches the left termination rule
    assert rho_apply(prob_par, "par", (Obs(STOP), Pure("q"))) == FormalSum(
        RATIONAL, [(STOP, F(1, 2))]
    )
    # no rule watches both arguments at once, so this input is silent
    assert rho_apply(
        prob_par, "par", (Obs(Step("a", "p1")), Obs(Step("b", "q1")))
    ) == fs_empty(RATIONAL)
    # and no implicit stop: a premise-free input matches only premise-free rules
    assert rho_apply(prob_par, "pre_a", (Obs(Step("a", "p1")),)) == fs_empty(RATIONAL)


def test_rho_weighted_axioms(prob_par):
    assert rho_apply(prob_par, "nil", ()) == fs_unit(RATIONAL, STOP)
    assert rho_apply(prob_par, "pre_a", (Pure("p"),)) == fs_unit(
        RATIONAL, Step("a", Leaf("p"))
    )


def test_rho_weighted_single_step(prob_par):
    out = rho_apply(prob_par, "par", (Obs(Step("a", "p1")), Pure("q")))
    assert out == FormalSum(
        RATIONAL, [(Step("a", Node("par", [Leaf("p1"), Leaf("q")])), F(1, 2))]
    )


def test_rho_rejects_bad_operators(prob_par):
    with pytest.raises(ValueError):
        rho_apply(prob_par, "par", (Pure("p"),))
    with pytest.raises(KeyError):
        rho_apply(prob_par, "zzz", ())


def test_rho_is_natural_for_renamings(pair_affine, prob_par):
    def rename(x):
        return {"0": "1", "1": "0"}[x]

    def rename_belem(e):
        return belem_map(e, lambda t: map_leaves(t, rename))

    def rename_arg(u):
        if isinstance(u, Pure):
            return Pure(rename(u.value))
        if u.elem is STOP:
            return u
        return Obs(Step(u.elem.label, rename(u.elem.target)))

    for spec in (pair_affine, prob_par):
        carrier = ["0", "1"]
        options = [Pure(x) for x in carrier] + [
            Obs(Step(l, x)) for l in spec.labels for x in carrier
        ] + [Obs(STOP)]
        for op, arity in spec.signature.ops.items():
            for args in product(options, repeat=arity):
                direct = rho_apply(spec, op, tuple(rename_arg(u) for u in args))
                mapped = fs_map(rename_belem, rho_apply(spec, op, args))
                assert direct == mapped


# premise shapes of one rule of f(x1, x2), each with its premise tuple
PREMISE_SHAPES = {
    "": (),
    "x1 -a-> y1": ((1, "a"),),
    "x1 -> *": ((1, None),),
    "x1 -a-> y1, x1 -> *": ((1, "a"), (1, None)),
    "x1 -> *, x1 -> *": ((1, None), (1, None)),
    "x1 -a-> y1, x1 -a-> y1": ((1, "a"), (1, "a")),
    "x1 -a-> y1, x2 -> *": ((1, "a"), (2, None)),
}


def test_a_rule_fires_when_its_premises_equal_the_observation():
    pool = [Pure("u"), Obs(Step("a", "v")), Obs(Step("b", "v")), Obs(STOP)]
    fired = set()
    for shape, premises in PREMISE_SHAPES.items():
        when = f" when {shape}" if shape else ""
        spec = parse_spec(
            "dialect weighted\nsemiring rational\nlabels a, b\nop f : 2\n"
            f"rule f(x1, x2) -[1]-> *{when}\n"
        )
        for args in product(pool, repeat=2):
            observed = tuple(
                (i, None if arg.elem is STOP else arg.elem.label)
                for i, arg in enumerate(args, start=1)
                if isinstance(arg, Obs)
            )
            out = rho_apply(spec, "f", args)
            if premises == observed:
                fired.add(shape)
                assert out == fs_unit(RATIONAL, STOP), (shape, args)
            else:
                assert out == fs_empty(RATIONAL), (shape, args)
    assert fired == {"", "x1 -a-> y1", "x1 -> *", "x1 -a-> y1, x2 -> *"}


# --- rules that break the format ---------------------------------------------
#
# ``validate`` rejects every rule of ``BROKEN_DESIMONE`` and
# ``BROKEN_WEIGHTED`` (``oracles``); the law still reads them, and these pins
# keep that reading. ``step`` disagrees on the premised ones (see its
# docstring).

def test_law_on_desimone_rules_that_break_the_format():
    spec = parse_spec(BROKEN_DESIMONE)
    c, e = Node("c"), Node("e")
    # stop conclusions, labelled or not, add nothing to the observed stop
    assert rho_apply(spec, "c", ()) == bsum(STOP)
    assert rho_apply(spec, "e", ()) == bsum(STOP, Step("a", c))
    # a termination premise and a source premised twice never fire
    pool = [Pure("u"), Obs(Step("a", "v")), Obs(Step("b", "v")), Obs(STOP)]
    for op in ("g", "h"):
        for arg in pool:
            assert rho_apply(spec, op, (arg,)) == bsum(STOP), (op, arg)
    terms = list(enumerate_closed_terms(spec.signature, 3))
    assert len(terms) == 14
    for term in terms:
        expected = bsum(STOP, Step("a", c)) if term == e else bsum(STOP)
        assert step_law(spec, term) == expected, term
    assert step(spec, Node("g", [c])) == bsum(STOP, Step("b", c))


def test_law_on_weighted_rules_that_break_the_format():
    spec = parse_spec(BROKEN_WEIGHTED)
    nil = Node("nil")
    half = FormalSum(RATIONAL, [(STOP, F(1, 2)), (Step("a", nil), F(1, 2))])
    assert rho_apply(spec, "nil", ()) == half
    # one argument is observed once, so a source premised twice, by two
    # termination or two transition premises, never fires
    for arg in (Pure("u"), Obs(Step("a", "v")), Obs(STOP)):
        assert rho_apply(spec, "f", (arg,)) == fs_empty(RATIONAL), arg
        assert rho_apply(spec, "k", (arg,)) == fs_empty(RATIONAL), arg
    expected = {
        "nil": half,
        "f(nil)": fs_empty(RATIONAL),
        "k(nil)": fs_empty(RATIONAL),
        "f(f(nil))": fs_empty(RATIONAL),
        "f(k(nil))": fs_empty(RATIONAL),
        "k(f(nil))": fs_empty(RATIONAL),
        "k(k(nil))": fs_empty(RATIONAL),
    }
    terms = list(enumerate_closed_terms(spec.signature, 3))
    assert [print_term(term) for term in terms] == list(expected)
    for term in terms:
        assert step_law(spec, term) == expected[print_term(term)], term
    assert step(spec, Node("f", [nil])) == FormalSum(RATIONAL, [(STOP, F(1, 12))])


# --- the composite one-step law ----------------------------------------------

def test_bar_rho_interleaves(de_simone_par):
    b1 = bsum(Step("a", "p1"), STOP)
    b2 = bsum(Step("b", "q1"), STOP)
    out = bar_rho_step(de_simone_par, "par", [("p", b1), ("q", b2)])
    assert out == bsum(
        STOP,
        Step("a", Node("par", [Leaf("p1"), Leaf("q")])),
        Step("b", Node("par", [Leaf("p"), Leaf("q1")])),
    )


def test_bar_rho_empty_behaviours_still_stop(de_simone_par):
    out = bar_rho_step(
        de_simone_par, "par", [("p", fs_empty(BOOLEAN)), ("q", fs_empty(BOOLEAN))]
    )
    assert out == bsum(STOP)


def test_bar_rho_weighted_halves(prob_par):
    pa = fs_unit(RATIONAL, Step("a", "n1"))
    pb = fs_unit(RATIONAL, Step("b", "n2"))
    out = bar_rho_step(prob_par, "par", [("p", pa), ("q", pb)])
    assert out == FormalSum(
        RATIONAL,
        [
            (Step("a", Node("par", [Leaf("n1"), Leaf("q")])), F(1, 2)),
            (Step("b", Node("par", [Leaf("p"), Leaf("n2")])), F(1, 2)),
        ],
    )


def test_bar_rho_weighted_mixes_steps_and_stops(prob_par):
    left = FormalSum(RATIONAL, [(Step("a", "p1"), F(1, 2)), (STOP, F(1, 2))])
    right = fs_unit(RATIONAL, STOP)
    out = bar_rho_step(prob_par, "par", [("p", left), ("q", right)])
    # left moves (1/2 * rate 1/2), left stops (1/2 * 1/2), right stops (1/2)
    assert out == FormalSum(
        RATIONAL,
        [
            (Step("a", Node("par", [Leaf("p1"), Leaf("q")])), F(1, 4)),
            (STOP, F(3, 4)),
        ],
    )


# --- the free extension ------------------------------------------------------

def leaf_behaviours(labels):
    """A small pool of boolean behaviours to hang on leaves."""
    return [
        bsum(STOP),
        bsum(Step(labels[0], "s0")),
        bsum(STOP, Step(labels[0], "s1")),
        bsum(Step(labels[0], "s0"), Step(labels[1], "s1")),
        fs_empty(BOOLEAN),
    ]


def test_law_star_on_a_leaf_wraps_successors(de_simone_par):
    b = bsum(STOP, Step("a", "p1"))
    out = law_star(de_simone_par, Leaf(("p", b)))
    assert out == bsum(STOP, Step("a", Leaf("p1")))


def test_law_star_on_flat_terms_is_bar_rho(de_simone_par):
    pool = leaf_behaviours(de_simone_par.labels)
    for op in ("par", "plus"):
        for b1, b2 in product(pool, repeat=2):
            flat = Node(op, [Leaf(("p", b1)), Leaf(("q", b2))])
            assert law_star(de_simone_par, flat) == bar_rho_step(
                de_simone_par, op, [("p", b1), ("q", b2)]
            )


def test_law_star_depth_two_matches_manual_composition(de_simone_par):
    pool = leaf_behaviours(de_simone_par.labels)
    checked = 0
    for b1, b2, b3 in product(pool, repeat=3):
        t = Node(
            "par",
            [Leaf(("p", b1)), Node("plus", [Leaf(("q", b2)), Leaf(("r", b3))])],
        )
        expected = two_level_oracle(
            de_simone_par, "par", ("p", b1), "plus", [("q", b2), ("r", b3)]
        )
        assert law_star(de_simone_par, t) == expected
        checked += 1
    assert checked == 125


def test_law_star_depth_two_weighted(prob_par):
    pool = [
        fs_unit(RATIONAL, STOP),
        fs_unit(RATIONAL, Step("a", "s0")),
        FormalSum(RATIONAL, [(Step("a", "s0"), F(1, 2)), (STOP, F(1, 2))]),
        FormalSum(RATIONAL, [(Step("a", "s0"), F(1, 3)), (Step("b", "s1"), F(2, 3))]),
    ]
    for b1, b2, b3 in product(pool, repeat=3):
        t = Node(
            "par",
            [Leaf(("p", b1)), Node("par", [Leaf(("q", b2)), Leaf(("r", b3))])],
        )
        expected = two_level_oracle(
            prob_par, "par", ("p", b1), "par", [("q", b2), ("r", b3)]
        )
        assert law_star(prob_par, t) == expected


# --- naturality --------------------------------------------------------------

def test_affine_spec_passes_all_carriers(pair_affine):
    for size, expected_checked in ((1, 17), (2, 101), (3, 485)):
        result = naturality_check(pair_affine, carrier_size=size)
        assert result.passed and result.witness is None
        assert result.checked == expected_checked


def test_parallel_specs_pass(de_simone_par, prob_par):
    assert naturality_check(de_simone_par, carrier_size=2).passed
    assert naturality_check(prob_par, carrier_size=2).passed


def test_duplicating_target_fails_with_exact_legs(pair_nonaffine):
    result = naturality_check(pair_nonaffine, carrier_size=2)
    assert not result.passed
    w = result.witness
    assert w.op == "f"
    v, w_ = result.carrier
    combos = [
        Step("b", Node("f", [Leaf(x), Leaf(y)])) for x, y in product((v, w_), repeat=2)
    ]
    assert w.law_first == bsum(STOP, *combos)
    assert w.args_first == bsum(
        STOP,
        Step("b", Node("f", [Leaf(v), Leaf(v)])),
        Step("b", Node("f", [Leaf(w_), Leaf(w_)])),
    )


def test_duplicating_target_passes_on_one_element_carriers(pair_nonaffine):
    # duplication is invisible when there is nothing to tell apart
    assert naturality_check(pair_nonaffine, carrier_size=1).passed


def test_copy_spec_fails_naturality(copy_nonaffine):
    result = naturality_check(copy_nonaffine, carrier_size=2)
    assert not result.passed and result.witness.op == "f"


def test_empty_argument_sums_break_affine_specs(pair_affine):
    result = naturality_check(pair_affine, carrier_size=2, include_nonaffine=True)
    assert not result.passed
    assert result.witness.law_first == bsum(STOP)
    assert result.witness.args_first == fs_empty(BOOLEAN)


def test_legs_disagree_on_the_empty_sum_directly(pair_affine):
    args = (Pure(fs_empty(BOOLEAN)), Pure(fs_unit(BOOLEAN, "u")))
    assert leg_law_first(pair_affine, "f", args) == bsum(STOP)
    assert leg_args_first(pair_affine, "f", args) == fs_empty(BOOLEAN)


def test_legs_agree_on_affine_inputs(pair_affine):
    args = (
        Obs(Step("a", bsum("v", "w"))),
        Pure(bsum("u")),
    )
    assert leg_law_first(pair_affine, "f", args) == leg_args_first(
        pair_affine, "f", args
    )


def test_carrier_cap(pair_affine):
    for bad in (0, 4):
        with pytest.raises(ValueError):
            naturality_check(pair_affine, carrier_size=bad)


@pytest.mark.parametrize(
    "arg, message",
    [(Obs("v"), "bad observation 'v'"), ("v", "argument 1 is not a B0 element: 'v'")],
)
def test_the_law_refuses_an_argument_that_is_no_observation(arg, message):
    with pytest.raises(TypeError) as exc:
        _decompose((arg,))
    assert str(exc.value) == message
