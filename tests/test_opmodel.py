"""The operational model: one-step behaviour of closed terms, the law
pipeline as its oracle, distribution checks, and reachability."""

import hashlib
from fractions import Fraction

import pytest

from desimone import (
    BOOLEAN,
    INF,
    FormalSum,
    Leaf,
    Node,
    RATIONAL,
    RuleTargetError,
    SPEC_NAMES,
    STOP,
    Step,
    check_probabilistic,
    enumerate_closed_terms,
    explore,
    fs_unit,
    is_affine,
    load_spec,
    model_cache,
    parse_spec,
    parse_term,
    print_term,
    spec_path,
    step,
    step_law,
    validate_format,
)
from desimone.cli import main
from oracles import reachable
from test_analysis import CONTEXT_SPECS

F = Fraction


def t(spec, text):
    return parse_term(spec.signature, text)


# --- worked one-step behaviours ----------------------------------------------

def test_nil_stops_with_weight_one(prob_par):
    assert step(prob_par, t(prob_par, "nil")) == fs_unit(RATIONAL, STOP)


def test_prefix_steps_once(prob_par):
    out = step(prob_par, t(prob_par, "pre_a(nil)"))
    assert out == fs_unit(RATIONAL, Step("a", t(prob_par, "nil")))


def test_parallel_splits_the_rate(prob_par):
    out = step(prob_par, t(prob_par, "par(pre_a(nil), pre_b(nil))"))
    assert out == FormalSum(
        RATIONAL,
        [
            (Step("a", t(prob_par, "par(nil, pre_b(nil))")), F(1, 2)),
            (Step("b", t(prob_par, "par(pre_a(nil), nil)")), F(1, 2)),
        ],
    )


def test_parallel_with_a_stopped_side(prob_par):
    out = step(prob_par, t(prob_par, "par(pre_a(nil), nil)"))
    assert out == FormalSum(
        RATIONAL,
        [
            (Step("a", t(prob_par, "par(nil, nil)")), F(1, 2)),
            (STOP, F(1, 2)),
        ],
    )


def test_boolean_parallel_interleaves(de_simone_par):
    term = t(de_simone_par, "par(pre_a(nil), pre_b(nil))")
    assert dict(step(de_simone_par, term).items()) == {
        STOP: 1,
        Step("a", t(de_simone_par, "par(nil, pre_b(nil))")): 1,
        Step("b", t(de_simone_par, "par(pre_a(nil), nil)")): 1,
    }


def test_leaky_chain_first_step(leaky):
    out = step(leaky, t(leaky, "c0"))
    assert out == FormalSum(
        RATIONAL, [(STOP, F(1, 3)), (Step("a", t(leaky, "c1")), F(2, 3))]
    )


def test_loop_never_stops(loop):
    c = t(loop, "c")
    assert step(loop, c) == fs_unit(RATIONAL, Step("a", c))


def test_step_rejects_unknown_operators(prob_par, de_simone_par):
    for stepper in (step, step_law):
        for spec in (prob_par, de_simone_par):
            with pytest.raises(KeyError):
                stepper(spec, Node("zzz", []))
            with pytest.raises(ValueError):
                stepper(spec, Node("nil", [Node("nil", [])]))
            with pytest.raises(ValueError):
                stepper(spec, Node("par", [Node("nil", [])]))


def test_step_steps_only_premised_arguments():
    spec = load_spec("copy_nonaffine")  # fresh, so its memo starts empty
    memo = model_cache(spec).step
    arg, other = t(spec, "pre_b(nil)"), t(spec, "pre_c(nil)")
    prefixed = Node("pre_a", [arg])
    step(spec, prefixed)
    assert prefixed in memo and arg not in memo
    step(spec, Node("plus", [arg, other]))
    assert arg in memo and other in memo


def test_step_refuses_a_leaf_only_where_it_steps_it():
    spec = load_spec("copy_nonaffine")
    hole = Leaf("carried")
    assert step(spec, Node("pre_a", [hole])) == FormalSum(
        BOOLEAN, [(STOP, True), (Step("a", hole), True)]
    )
    with pytest.raises(TypeError):
        step(spec, Node("plus", [hole, t(spec, "nil")]))
    with pytest.raises(TypeError):
        step(spec, hole)


def test_step_law_refuses_a_leaf_inside_the_term_as_at_the_root(copy_nonaffine):
    hole = Leaf("carried")
    for term in (hole, Node("pre_a", [hole])):
        with pytest.raises(TypeError) as err:
            step_law(copy_nonaffine, term)
        assert str(err.value) == "step_law needs a closed term, got Leaf('carried')"


# --- two independent evaluation paths ----------------------------------------

def test_step_equals_step_law_everywhere(
    de_simone_par, prob_par, leaky, copy_nonaffine, loop
):
    for spec in (de_simone_par, prob_par, leaky, copy_nonaffine, loop):
        for term in enumerate_closed_terms(spec.signature, 4):
            assert step(spec, term) == step_law(spec, term), term


def test_step_equals_step_law_into_a_target_deeper_than_the_recursion_limit():
    depth = 10_000
    target = "s(" * depth + "x1" + ")" * depth
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\n"
        "op nil : 0\nop s : 1\nop g : 1\n"
        f"rule nil -[1]-> *\nrule s(x1) -[1]-> *\nrule g(x1) -a[1]-> {target}\n"
    )
    term = t(spec, "g(g(nil))")
    successor = t(spec, target.replace("x1", "g(nil)"))
    assert step(spec, term) == fs_unit(RATIONAL, Step("a", successor))
    assert step_law(spec, term) == step(spec, term)


def test_step_equals_step_law_on_extreme_weights():
    # weights no bundled spec has: an infinite rule weight, a zero-weight
    # rule over infinite premise weights (inf * 0 = 0), termination premises,
    # and two rules whose conclusions coincide and merge additively
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a, b\n"
        "op nil : 0\nop hot : 0\nop dead : 0\nop pre_a : 1\nop par : 2\n"
        "rule nil -[1]-> *\n"
        "rule hot -a[inf]-> nil\n"
        "rule hot -[inf]-> *\n"
        "rule dead -b[0]-> nil\n"
        "rule dead -[1/2]-> *\n"
        "rule pre_a(x1) -a[1]-> x1\n"
        "rule par(x1, x2) -@l[1/2]-> par(y1, x2) when x1 -@l-> y1 forall @l\n"
        "rule par(x1, x2) -@l[0]-> par(x1, y2) when x2 -@l-> y2 forall @l\n"
        "rule par(x1, x2) -a[1/3]-> nil when x1 -a-> y1\n"
        "rule par(x1, x2) -a[1/4]-> nil when x2 -a-> y2\n"
        "rule par(x1, x2) -[2]-> * when x1 -> *, x2 -> *\n"
    )
    checked = 0
    for term in enumerate_closed_terms(spec.signature, 4):
        assert step(spec, term) == step_law(spec, term), term
        checked += 1
    assert checked == 48
    hot_pair = step(spec, t(spec, "par(hot, pre_a(nil))"))
    assert hot_pair.weight(Step("a", t(spec, "nil"))) is INF
    assert hot_pair.weight(STOP) == 0
    assert hot_pair.weight(Step("a", t(spec, "par(hot, nil)"))) == 0
    assert step(spec, t(spec, "par(pre_a(nil), pre_a(nil))")).weight(
        Step("a", t(spec, "nil"))
    ) == F(7, 12)
    assert step(spec, t(spec, "par(hot, dead)")).weight(STOP) is INF


def test_rules_premised_out_of_range_never_fire():
    # a format error the parser accepts; neither reading may observe an
    # argument that is not there
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\nop f : 2\n"
        "rule nil -[1]-> *\nrule f(x1, x2) -a[1]-> nil when x3 -a-> y3\n"
        "rule f(x1, x2) -[1]-> * when x3 -> *\n"
    )
    term = t(spec, "f(nil, nil)")
    assert step(spec, term) == step_law(spec, term) == FormalSum(RATIONAL)


def test_rules_premised_out_of_range_stay_out_of_the_rule_index():
    # the rule stays in spec.rules for validate, but neither reading sees it
    text = (
        "dialect desimone\nsemiring boolean\nlabels a, b\nop nil : 0\nop p : 1\n"
        "rule nil -a-> nil\nrule p(x1) -b-> y1 when x1 -a-> y1\n"
    )
    spec = parse_spec(text + "rule p(x1) -a-> nil when x2 -a-> y2\n")
    bad = spec.rules[-1]
    assert [p.index for p in bad.premises] == [2]
    assert bad not in spec.rules_for("p") and len(spec.rules_for("p")) == 1
    assert [v.condition for v in validate_format(spec)] == ["premise-source-range"]
    clean = parse_spec(text)
    for text in ("p(nil)", "p(p(nil))"):
        for stepper in (step, step_law):
            assert stepper(spec, t(spec, text)) == stepper(clean, t(clean, text))


WEIGHTED = "dialect weighted\nsemiring rational\n", "q -a[1]-> q"
BOOLEAN_Q = "dialect desimone\nsemiring boolean\n", "q -a-> q"


@pytest.mark.parametrize(
    "dialect, rule, var",
    [
        (WEIGHTED, "p(x1) -a[1]-> x2", "x2"),
        (BOOLEAN_Q, "p(x1) -a-> y1", "y1"),
        (WEIGHTED, "p(x1) -a[1]-> x1 when x1 -a-> y1", "x1"),
    ],
)
def test_a_fired_rule_with_an_unbound_target_variable_is_refused(dialect, rule, var):
    head, q_rule = dialect
    spec = parse_spec(f"{head}labels a\nop q : 0\nop p : 1\nrule {q_rule}\nrule {rule}\n")
    for stepper in (step, step_law):
        with pytest.raises(RuleTargetError) as refused:
            stepper(spec, t(spec, "p(q)"))
        assert (refused.value.line, refused.value.var) == (7, var)
        stepper(spec, t(spec, "q"))  # a term that never fires the rule answers


def test_the_first_unbound_variable_in_post_order_is_named():
    # x2 is past p's arity and y1 is bound by no transition premise, so
    # both readings name whichever of the two the target reaches first
    head = "dialect weighted\nsemiring rational\nlabels a\nop q : 0\nop p : 1\nop g : 2\n"
    for target, var in (("g(x2, y1)", "x2"), ("g(g(y1, q), x2)", "y1")):
        spec = parse_spec(f"{head}rule q -[1]-> *\nrule p(x1) -a[1]-> {target} when x1 -> *\n")
        for stepper in (step, step_law):
            with pytest.raises(RuleTargetError) as refused:
                stepper(spec, t(spec, "p(q)"))
            assert (refused.value.line, refused.value.var) == (8, var)


def test_a_source_premised_twice_binds_its_successor_at_the_later_premise():
    # outside the format (distinct-premise-sources): each premise picks its
    # own successor, and y1 names the one of the later premise in canonical
    # order, here the b-step
    spec = parse_spec(
        "dialect desimone\nsemiring boolean\nlabels a, b\n"
        "op nil : 0\nop s : 1\nop u : 1\nop c : 0\nop p : 1\n"
        "rule c -a-> s(nil)\nrule c -b-> u(nil)\n"
        "rule p(x1) -a-> y1 when x1 -b-> y1, x1 -a-> y1\n"
    )
    assert [p.label for p in spec.rules[-1].premises] == ["a", "b"]
    assert step(spec, t(spec, "p(c)")) == FormalSum(
        BOOLEAN, [(STOP, True), (Step("a", t(spec, "u(nil)")), True)]
    )


def _outcome(stepper, spec, term):
    try:
        return stepper(spec, term)
    except Exception as exc:  # a refusal, compared by type and text
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "name", [name for name in CONTEXT_SPECS if name not in SPEC_NAMES]
)
def test_step_equals_step_law_on_random_specs(name):
    spec = parse_spec(CONTEXT_SPECS[name])
    for term in enumerate_closed_terms(spec.signature, 3):
        assert _outcome(step, spec, term) == _outcome(step_law, spec, term), term


def test_each_stepped_operator_reads_its_rules_once():
    spec = load_spec("copy_nonaffine")  # fresh, so it has no plans yet
    cache = model_cache(spec)
    assert validate_format(spec) and cache.plans == {}  # validate steps nothing
    step(spec, t(spec, "pre_a(nil)"))  # pre_a premises nothing: nil is not stepped
    assert list(cache.plans) == ["pre_a"]
    plan = cache.plans["pre_a"]
    step(spec, t(spec, "plus(pre_a(nil), pre_c(nil))"))
    assert sorted(cache.plans) == ["plus", "pre_a", "pre_c"]
    assert cache.plans["pre_a"] is plan
    assert set(cache.plans) == {term.op for term in cache.step}


def test_congruence_steps_without_substituting(monkeypatch, capsys):
    # the engine builds targets from its plans; only the law pipeline,
    # the oracle, binds a rule target's variables
    import desimone.law as law_module

    def refuse(*args):
        raise AssertionError("substituted")

    monkeypatch.setattr(law_module, "_target", refuse)
    code = main([
        "congruence", str(spec_path("copy_nonaffine")), "--size", "7", "--depth", "4",
        "--json",
    ])
    out = capsys.readouterr().out.encode()
    assert code == 1
    assert hashlib.sha256(out).hexdigest() == (
        "e3edcc34a04a083dc85a27e32463fb7018b83fcaeb480ed0835f805cfa5ac8bf"
    )


STOP_CONCLUSION_SPEC = (
    "dialect desimone\nsemiring boolean\nlabels a\n"
    "op nil : 0\nop pre_a : 1\nop par : 2\n"
    "rule nil -> *\nrule pre_a(x1) -a-> x1\n"
    "rule pre_a(x1) -> * when x1 -a-> y1\n"
    "rule par(x1, x2) -a-> par(y1, x2) when x1 -a-> y1\n"
)


def test_desimone_stop_conclusions_add_nothing_to_either_reading():
    # the dialect observes termination in every state, so a `-> *`
    # conclusion (a format error) changes neither behaviour
    spec = parse_spec(STOP_CONCLUSION_SPEC)
    terms = list(enumerate_closed_terms(spec.signature, 5))
    assert len(terms) == 17
    for term in terms:
        assert step_law(spec, term) == step(spec, term), print_term(term)
    assert step_law(spec, t(spec, "pre_a(nil)")) == FormalSum(
        spec.semiring, [(STOP, True), (Step("a", t(spec, "nil")), True)]
    )


def test_step_law_does_not_recurse_on_term_depth(prob_par):
    chain = t(prob_par, "pre_a(" * 1200 + "nil" + ")" * 1200)
    assert step_law(prob_par, chain) == step(prob_par, chain)
    nested = t(prob_par, "par(" * 1200 + "nil" + ", nil)" * 1200)
    assert is_affine(step_law(prob_par, nested))


def test_memoized_step_is_stable(prob_par):
    term = t(prob_par, "par(pre_a(nil), nil)")
    assert step(prob_par, term) is step(prob_par, term)


# --- dialect-wide invariants -------------------------------------------------

def test_boolean_steps_always_observe_stop(de_simone_par, copy_nonaffine):
    for spec in (de_simone_par, copy_nonaffine):
        for term in enumerate_closed_terms(spec.signature, 4):
            behaviour = step(spec, term)
            assert behaviour.weight(STOP) == 1
            assert is_affine(behaviour)


def test_step_total_on_larger_terms(prob_par):
    count = 0
    for term in enumerate_closed_terms(prob_par.signature, 7):
        step(prob_par, term)
        count += 1
    assert count == 625


# --- probabilistic validity --------------------------------------------------

def test_parallel_spec_is_probabilistic(prob_par):
    report = check_probabilistic(prob_par, 4)
    assert report.passed and report.violator is None
    assert report.bound == 4 and report.checked > 0


def test_loop_is_probabilistic(loop):
    assert check_probabilistic(loop, 3).passed


def test_subunit_rule_is_reported():
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop c : 0\n"
        "rule c -a[1/2]-> c\n"
    )
    report = check_probabilistic(spec, 2)
    assert not report.passed
    assert report.violator == Node("c", [])
    assert report.mass == F(1, 2)


def test_truncated_chain_leaks_at_the_cutoff(leaky):
    # the last chain state only has its stop rule, so its mass is sub-unit;
    # a deliberate artifact of cutting the infinite family at c30
    report = check_probabilistic(leaky, 1)
    assert not report.passed
    assert report.violator == t(leaky, "c30")
    assert report.mass == F(1, 2**30 + 2)


# r(nil) leaks, three steps from nil: bound 1 walks only nil and p(nil),
# bound 2 enumerates r(nil)
LEAK_AT_THREE = (
    "dialect weighted\nsemiring rational\nlabels a\n"
    "op nil : 0\nop p : 1\nop q : 1\nop r : 1\n"
    "rule nil -a[1]-> p(nil)\nrule p(x1) -a[1]-> q(x1)\n"
    "rule q(x1) -a[1]-> r(x1)\nrule r(x1) -a[1/2]-> r(x1)\n"
)


def test_check_probabilistic_checks_a_horizon_not_every_reachable_state():
    spec = parse_spec(LEAK_AT_THREE)
    assert check_probabilistic(spec, 1).describe(spec.semiring) == (
        "probabilistic: all 2 terms have step mass 1"
    )
    assert check_probabilistic(spec, 2).describe(spec.semiring) == (
        "not probabilistic: r(nil) has step mass 1/2"
    )


# successors outgrow the enumeration bound, so the walk reaches past the
# enumerated terms up to the bound's distance
GROWING = (
    "dialect weighted\nsemiring rational\nlabels a\nop c : 0\nop s : 1\n"
    "rule c -a[1]-> s(c)\n"
    "rule s(x1) -a[1/2]-> s(y1) when x1 -a-> y1\n"
    "rule s(x1) -a[1/2]-> s(s(y1)) when x1 -a-> y1\n"
)

# (passed, checked, violator, mass) at bounds 1-4, as computed before the
# walk moved into ``explore``
PROBABILISTIC_AT_BOUNDS = {
    "leaky": [(False, 31, "c30", F(1, 2**30 + 2))] * 4,
    "loop": [(True, 1, None, None)] * 4,
    "prob_par": [(True, 1, None, None), (True, 3, None, None),
                 (True, 8, None, None), (True, 22, None, None)],
    "growing": [(True, 2, None, None), (True, 8, None, None),
                (True, 24, None, None), (True, 64, None, None)],
}


@pytest.mark.parametrize("name", sorted(PROBABILISTIC_AT_BOUNDS))
def test_check_probabilistic_reports_are_pinned(name, request):
    spec = parse_spec(GROWING) if name == "growing" else request.getfixturevalue(name)
    for bound, (passed, checked, violator, mass) in enumerate(
        PROBABILISTIC_AT_BOUNDS[name], start=1
    ):
        report = check_probabilistic(spec, bound)
        got_violator = None if report.violator is None else print_term(report.violator)
        assert (report.passed, report.checked, got_violator, report.mass) == (
            passed, checked, violator, mass
        ), bound


def test_check_probabilistic_rejects_boolean_specs(de_simone_par):
    with pytest.raises(ValueError):
        check_probabilistic(de_simone_par, 3)


def test_violations_found_through_reachability():
    # the size-1 term is fine; only its successor breaks the distribution
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop c : 0\nop d : 0\n"
        "op p : 1\n"
        "rule c -a[1]-> d\nrule d -a[1/3]-> d\nrule p(x1) -a[1]-> y1 when x1 -a-> y1\n"
    )
    report = check_probabilistic(spec, 1)
    assert not report.passed and report.violator == Node("d", [])


# --- reachability ------------------------------------------------------------

def test_reachable_examples(prob_par, leaky, loop):
    nil = t(prob_par, "nil")
    assert reachable(prob_par, nil, 5) == {nil}
    pre = t(prob_par, "pre_a(nil)")
    assert reachable(prob_par, pre, 1) == {pre, nil}
    assert reachable(prob_par, pre, 0) == {pre}
    assert reachable(leaky, t(leaky, "c0"), 2) == {
        t(leaky, "c0"), t(leaky, "c1"), t(leaky, "c2")
    }
    c = t(loop, "c")
    assert reachable(loop, c, 10) == {c}


def test_reachable_follows_both_parallel_sides(prob_par):
    term = t(prob_par, "par(pre_a(nil), nil)")
    assert reachable(prob_par, term, 1) == {term, t(prob_par, "par(nil, nil)")}


# --- the breadth-first explorer ----------------------------------------------

# c0 -a-> c1 -a-> c2 -a-> c3 -a-> c4 -> *, and d, which steps into c3 and c1
CHAIN = (
    "dialect weighted\nsemiring rational\nlabels a, b\n"
    + "".join(f"op c{n} : 0\n" for n in range(5))
    + "op d : 0\n"
    + "".join(f"rule c{n} -a[1]-> c{n + 1}\n" for n in range(4))
    + "rule c4 -[1]-> *\nrule d -b[1/2]-> c3\nrule d -a[1/2]-> c1\n"
)


@pytest.fixture(scope="module")
def chain():
    return parse_spec(CHAIN)


def test_explore_deduplicates_roots_and_keeps_breadth_first_order(chain):
    c1, c2, c3, c4, d = (t(chain, name) for name in ("c1", "c2", "c3", "c4", "d"))
    assert [e.target for e in step(chain, d)] == [c3, c1]
    walk = explore(chain, [c2, d, c2], 10, 100)
    # roots in the order given, then successors in behaviour order
    assert walk.order == [c2, d, c3, c1, c4]
    assert list(walk.behaviours) == walk.order
    assert all(walk.behaviours[s] is step(chain, s) for s in walk.order)
    assert walk.closed


def test_explore_expands_the_horizon_then_stops_past_the_cap(chain):
    c = [t(chain, f"c{n}") for n in range(5)]
    # within the horizon every state is expanded, whatever the cap
    walk = explore(chain, [c[0]], 1, 0)
    assert walk.order == c[:3] and list(walk.behaviours) == c[:2]
    assert not walk.closed
    # past the horizon the walk goes on while it knows at most four states
    walk = explore(chain, [c[0]], 1, 4)
    assert walk.order == c and list(walk.behaviours) == c[:4]
    assert not walk.closed
    # a negative horizon leaves only the cap
    assert not explore(chain, [c[0]], -1, 4).closed
    walk = explore(chain, [c[0]], -1, 5)
    assert list(walk.behaviours) == c and walk.closed
    # everything expanded, but the space does not fit the cap
    walk = explore(chain, [c[0]], 10, 4)
    assert list(walk.behaviours) == c and not walk.closed


def test_explore_without_roots_is_closed(chain):
    walk = explore(chain, [], 3, 0)
    assert (walk.order, walk.behaviours, walk.closed) == ([], {}, True)


# the seventh seed-0 normalised ``random_valid_spec``: f1^n(k0) steps into
# each f1^m(k0) with m <= n + 2 but n, so a walk meets each state again and
# again
FAN_IN = (
    "dialect weighted\nsemiring rational\nlabels a, b\nop k0 : 0\nop f1 : 1\n"
    "rule k0 -a[1/2]-> f1(k0)\nrule k0 -b[1/2]-> f1(f1(k0))\n"
    "rule f1(x1) -@l[1/2]-> k0 when x1 -@l-> y1 forall @l\n"
    "rule f1(x1) -[1/2]-> * when x1 -> *\n"
    "rule f1(x1) -@l[1/2]-> f1(y1) when x1 -@l-> y1 forall @l\n"
    "rule f1(x1) -[1/2]-> * when x1 -> *\n"
)


def test_equal_step_targets_are_one_object():
    spec = parse_spec(FAN_IN)
    walk = explore(spec, [t(spec, "k0")], 1, 60)
    first = {}
    for behaviour in walk.behaviours.values():
        for e in behaviour:
            if e is not STOP:
                assert first.setdefault(e.target, e.target) is e.target


def test_a_walk_that_meets_its_states_again_is_not_cubic(monkeypatch):
    # a target equal to a known state but sharing no subterm with it made
    # every lookup walk the whole term: about 22 s for 400 states on a
    # 2-core Xeon. The work is counted, not timed: comparisons of two nodes
    # with a pair of children that are not one object, which walk below
    # the root. With equal targets made one object there are about 4 per
    # state; without, about 96 at 100 states and 196 at 200.
    states = 400
    spec = parse_spec(FAN_IN)
    walks = []
    eq = Node.__eq__

    def counted(a, b):
        if isinstance(b, Node) and any(
            x is not y for x, y in zip(a.children, b.children)
        ):
            walks.append(a)
        return eq(a, b)

    monkeypatch.setattr(Node, "__eq__", counted)
    walk = explore(spec, [t(spec, "k0")], 1, states)
    assert len(walk.order) == states + 1 and not walk.closed
    assert len(walks) <= 10 * states


def test_a_half_step_mass_is_described_as_not_probabilistic():
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop c : 0\nrule c -[1/2]-> *\n"
    )
    report = check_probabilistic(spec, 1)
    assert report.describe(spec.semiring) == "not probabilistic: c has step mass 1/2"
