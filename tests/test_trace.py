"""Depth-bounded trace tables: fixpoint iteration, the path-sum oracle,
partial-word tables, masses, and termination estimation."""

import time
from fractions import Fraction

import pytest

from desimone import (
    AST_TOLERANCE,
    BOOLEAN,
    FormalSum,
    HOLE,
    INF,
    Leaf,
    RATIONAL,
    ast_estimate,
    counterexample_search,
    enumerate_closed_terms,
    explore,
    fs_empty,
    fs_total,
    load_spec,
    model_cache,
    parse_spec,
    parse_term,
    partial_trace_bounded,
    step,
    trace_bounded,
    trace_direct,
    word_to_str,
)
from desimone.trace import trace_bounded_once
from oracles import (
    boolean_partial_words,
    chain_completed_mass,
    fs_leq,
    partial_trace_direct,
    trace_functional,
)
from test_analysis import CONTEXT_SPECS

F = Fraction

ALL_SPECS = ["de_simone_par", "prob_par", "leaky", "copy_nonaffine", "loop"]


def t(spec, text):
    return parse_term(spec.signature, text)


@pytest.fixture
def par_term(prob_par):
    return t(prob_par, "par(pre_a(nil), pre_b(nil))")


# --- one functional application ----------------------------------------------

def test_functional_from_bottom_sees_only_stopping(prob_par):
    assert trace_functional(prob_par, {}, t(prob_par, "nil")) == FormalSum(
        RATIONAL, [((), F(1))]
    )
    assert trace_functional(prob_par, {}, t(prob_par, "pre_a(nil)")) == fs_empty(
        RATIONAL
    )


def test_functional_prepends_one_letter(prob_par):
    nil = t(prob_par, "nil")
    table = {nil: trace_functional(prob_par, {}, nil)}
    out = trace_functional(prob_par, table, t(prob_par, "pre_a(nil)"))
    assert out == FormalSum(RATIONAL, [(("a",), F(1))])


def test_functional_missing_successors_contribute_nothing(prob_par, par_term):
    nil = t(prob_par, "nil")
    table = {nil: trace_functional(prob_par, {}, nil)}
    # both successors of the parallel term are absent from the table
    assert trace_functional(prob_par, table, par_term) == fs_empty(RATIONAL)


# --- bounded tables ----------------------------------------------------------

def test_parallel_trace_table_at_depth_three(prob_par, par_term):
    assert trace_bounded(prob_par, par_term, 3) == FormalSum(
        RATIONAL,
        [(("a",), F(1, 4)), (("b",), F(1, 4)),
         (("a", "b"), F(1, 4)), (("b", "a"), F(1, 4))],
    )


def test_depth_zero_is_the_empty_table(prob_par, de_simone_par, par_term):
    assert trace_bounded(prob_par, par_term, 0) == fs_empty(RATIONAL)
    assert trace_bounded(de_simone_par, t(de_simone_par, "nil"), 0) == fs_empty(
        BOOLEAN
    )


def test_boolean_tables_are_partial_word_sets(de_simone_par):
    term = t(de_simone_par, "par(pre_a(nil), pre_b(nil))")
    table = trace_bounded(de_simone_par, term, 3)
    assert set(table.payloads()) == {(), ("a",), ("b",), ("a", "b"), ("b", "a")}
    assert all(w == 1 for _, w in table.items())


def test_leaky_chain_at_shallow_depths(leaky):
    c0 = t(leaky, "c0")
    assert trace_bounded(leaky, c0, 1) == FormalSum(RATIONAL, [((), F(1, 3))])
    assert trace_bounded(leaky, c0, 2) == FormalSum(
        RATIONAL, [((), F(1, 3)), (("a",), F(1, 6))]
    )


def test_tables_grow_monotonically_in_depth(de_simone_par, prob_par, leaky):
    seeds = {
        de_simone_par: "par(pre_a(nil), plus(pre_b(nil), nil))",
        prob_par: "par(pre_a(pre_b(nil)), pre_b(nil))",
        leaky: "c0",
    }
    for spec, text in seeds.items():
        term = t(spec, text)
        for depth in range(10):
            assert fs_leq(
                trace_bounded(spec, term, depth), trace_bounded(spec, term, depth + 1)
            )


@pytest.mark.parametrize("name", ALL_SPECS)
def test_fixpoint_iteration_equals_path_summation(name, request):
    spec = request.getfixturevalue(name)
    for term in enumerate_closed_terms(spec.signature, 4):
        for depth in range(1, 6):
            assert trace_bounded(spec, term, depth) == trace_direct(
                spec, term, depth - 1
            )


def test_the_tables_of_a_spec_share_one_object_per_word():
    spec = load_spec("de_simone_par")  # fresh: every table is built here
    words = {}
    for term in enumerate_closed_terms(spec.signature, 5):
        for table in (trace_bounded(spec, term, 5), partial_trace_bounded(spec, term, 4)):
            for word in table.payloads():
                assert words.setdefault(word, word) is word, word
    assert len(words) > 10


@pytest.mark.parametrize("name", CONTEXT_SPECS)
def test_shared_tables_are_the_tables_of_the_functional(name):
    # the bundled specs and 30 seed-0 random ones; a search first, so that
    # its composites have left the memos before the later tables are signed
    spec = parse_spec(CONTEXT_SPECS[name])  # fresh: every table is built here
    counterexample_search(spec, 4, 3)
    terms = list(enumerate_closed_terms(spec.signature, 4))
    for term in terms:
        for n in range(5):
            trace_bounded(spec, term, n)
            partial_trace_bounded(spec, term, n)
    cache = model_cache(spec)
    shared = {}
    for memo, oracle, below in (
        (cache.trace, trace_direct, 1),
        (cache.partial, partial_trace_direct, 0),
    ):
        assert memo
        for (term, n), table in memo.items():
            assert table == oracle(spec, term, n - below), (term, n)
            assert shared.setdefault(table, table) is table, (term, n)
    for bounded, empty in (
        (trace_bounded, fs_empty(spec.semiring)),
        (partial_trace_bounded, FormalSum(spec.semiring, [((), spec.semiring.one)])),
    ):
        tables = [bounded(spec, term, 0) for term in terms + terms]
        assert all(table is tables[0] for table in tables)
        assert tables[0] == empty


def test_a_table_built_once_leaves_the_memos_but_what_it_steps_into_stays(prob_par):
    term = t(prob_par, "par(pre_a(pre_b(nil)), pre_b(nil))")
    table = trace_bounded_once(prob_par, term, 4)
    cache = model_cache(prob_par)
    assert (term, 4) not in cache.trace and term not in cache.step
    for e in step(prob_par, term):
        assert e.target in cache.step and (e.target, 3) in cache.trace
    assert table is trace_bounded(prob_par, term, 4)
    assert table == trace_direct(prob_par, term, 3)


# --- the path-sum oracle on its own ------------------------------------------

def test_direct_worked_examples(prob_par, leaky):
    assert trace_direct(prob_par, t(prob_par, "nil"), 0) == FormalSum(
        RATIONAL, [((), F(1))]
    )
    # one hop then stop: (2/3) * (1/4)
    assert trace_direct(leaky, t(leaky, "c0"), 1).weight(("a",)) == F(1, 6)


def test_direct_ignores_words_longer_than_the_bound(prob_par, par_term):
    table = trace_direct(prob_par, par_term, 1)
    assert set(table.payloads()) == {("a",), ("b",)}


def test_direct_rejects_a_negative_bound(prob_par):
    with pytest.raises(ValueError):
        trace_direct(prob_par, t(prob_par, "nil"), -1)


# --- masses ------------------------------------------------------------------

def test_total_mass_examples(prob_par, par_term, de_simone_par):
    assert fs_total(trace_bounded(prob_par, par_term, 3)) == 1
    assert fs_total(fs_empty(RATIONAL)) == 0
    assert fs_total(trace_bounded(de_simone_par, t(de_simone_par, "nil"), 1)) == 1


def test_masses_never_exceed_one_on_distribution_specs(prob_par):
    for term in enumerate_closed_terms(prob_par.signature, 4):
        for depth in range(7):
            assert RATIONAL.leq(fs_total(trace_bounded(prob_par, term, depth)), F(1))


def test_boolean_tables_match_a_graph_search(de_simone_par, copy_nonaffine):
    for spec in (de_simone_par, copy_nonaffine):
        for term in enumerate_closed_terms(spec.signature, 4):
            for depth in range(1, 5):
                got = frozenset(trace_bounded(spec, term, depth).payloads())
                assert got == boolean_partial_words(spec, term, depth - 1)


# --- partial words -----------------------------------------------------------

def test_partial_table_worked_example(prob_par, par_term):
    assert partial_trace_bounded(prob_par, par_term, 2) == FormalSum(
        RATIONAL,
        [((), F(1)), (("a",), F(1, 2)), (("b",), F(1, 2)),
         (("a", "b"), F(1, 4)), (("b", "a"), F(1, 4))],
    )


def test_empty_word_is_always_performed(prob_par, leaky, loop):
    for spec, text in ((prob_par, "nil"), (leaky, "c5"), (loop, "c")):
        for max_len in range(4):
            assert partial_trace_bounded(spec, t(spec, text), max_len).weight(()) == 1


def test_partial_agrees_with_boolean_reading(de_simone_par):
    # with stopping observable everywhere, partial and completed words coincide
    for term in enumerate_closed_terms(de_simone_par.signature, 4):
        for max_len in range(4):
            partial = partial_trace_bounded(de_simone_par, term, max_len)
            completed = trace_bounded(de_simone_par, term, max_len + 1)
            assert set(partial.payloads()) == set(completed.payloads())


def test_partial_words_dominate_completed_words(prob_par):
    for term in enumerate_closed_terms(prob_par.signature, 4):
        completed = trace_bounded(prob_par, term, 5)
        partial = partial_trace_bounded(prob_par, term, 4)
        for word, weight in completed.items():
            assert RATIONAL.leq(weight, partial.weight(word))


def test_partial_weights_shrink_along_prefixes(prob_par, par_term):
    table = partial_trace_bounded(prob_par, par_term, 3)
    for word, weight in table.items():
        for cut in range(len(word)):
            assert RATIONAL.leq(weight, table.weight(word[:cut]))


def test_partial_rejects_bad_arguments(prob_par, par_term):
    with pytest.raises(ValueError):
        partial_trace_bounded(prob_par, par_term, -1)


# --- termination estimation --------------------------------------------------

def test_finite_acyclic_terms_terminate_exactly(prob_par, par_term):
    report = ast_estimate(prob_par, par_term, 10)
    assert report.verdict == "ast-consistent"
    assert report.exact and report.limit == 1
    masses = dict(report.masses)
    assert masses[3] == 1 and masses[2] == F(1, 2)


def test_loop_mass_stays_zero(loop):
    report = ast_estimate(loop, t(loop, "c"), 15)
    assert report.verdict == "non-ast"
    assert report.exact and report.limit == 0
    assert all(mass == 0 for _, mass in report.masses)


def test_leaky_chain_is_not_almost_surely_terminating(leaky):
    report = ast_estimate(leaky, t(leaky, "c0"), 30)
    assert report.verdict == "non-ast"
    assert report.exact
    stops = [F(1, 2**n + 2) for n in range(31)]
    hops = [F(2**n + 1, 2**n + 2) for n in range(30)]
    assert report.limit == chain_completed_mass(stops, hops, 31)
    masses = [mass for _, mass in report.masses]
    assert masses == sorted(masses)
    assert masses[-1] == chain_completed_mass(stops, hops, 30)
    assert masses[-1] < F(999, 1000)


def test_cyclic_leak_is_inconclusive_at_shallow_depth():
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop c : 0\n"
        "rule c -a[1/2]-> c\nrule c -[1/4]-> *\n"
    )
    report = ast_estimate(spec, t(spec, "c"), 20)
    assert report.verdict == "inconclusive"
    assert not report.exact and report.limit is None
    # the true limit is 1/2; the estimator only reports the partial sums
    assert report.masses[-1][1] < F(1, 2)


def test_the_closure_walk_stops_once_its_states_hold_a_million_nodes():
    # every step of s adds 200 nodes: stepping 10,000 states past the
    # horizon took some 9 s, and about 100 of them hold a million nodes
    target = "x1"
    for _ in range(200):
        target = f"s({target})"
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\nop s : 1\n"
        f"rule nil -[1]-> *\nrule s(x1) -a[1]-> {target}\n"
    )
    start = time.perf_counter()
    report = ast_estimate(spec, t(spec, "s(nil)"), 5)
    assert time.perf_counter() - start < 3
    assert report.masses == [(depth, 0) for depth in range(1, 6)]
    assert (report.verdict, report.exact, report.limit) == ("inconclusive", False, None)
    assert report.detail == "mass 0 at depth 5; no closure argument applies"
    walk = explore(spec, [t(spec, "s(nil)")], 4, 10_000)
    assert not walk.closed and len(walk.order) == 101
    assert sum(u.size for u in walk.order) == 1_005_152


def test_cycle_that_still_terminates_is_consistent():
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop c : 0\n"
        "rule c -a[1/2]-> c\nrule c -[1/2]-> *\n"
    )
    report = ast_estimate(spec, t(spec, "c"), 30)
    assert report.verdict == "ast-consistent"
    assert report.masses[-1][1] >= 1 - AST_TOLERANCE


SHARED = (
    "dialect weighted\nsemiring rational\nlabels a, b\n"
    "op r : 0\nop a : 0\nop b : 0\nop s : 0\nop t : 0\n"
    "rule r -a[1/2]-> a\nrule r -b[1/2]-> b\nrule a -a[1]-> s\n"
)
# two paths from r into s; s stops with weight {w}
DIAMOND = SHARED + "rule b -a[1/2]-> s\nrule b -[1/2]-> *\nrule s -[{w}]-> *\n"
# the cycle s -> t -> s is entered only through the shared state s
SHARED_CYCLE = SHARED + (
    "rule b -a[1]-> s\nrule s -a[1/2]-> t\nrule s -[{w}]-> *\nrule t -b[1]-> s\n"
)
# r reaches a in one step and, through b, in two; a steps on to s
SKEWED = SHARED + "rule b -a[1/2]-> a\nrule b -[1/2]-> *\nrule s -[{w}]-> *\n"
SHARED_SPECS = {
    "diamond": DIAMOND,
    "shared_cycle": SHARED_CYCLE,
    "skewed": SKEWED,
    "skewed_loop": SKEWED + "rule a -b[1/2]-> a\n",
}


@pytest.mark.parametrize(
    "name, w, depth, verdict, limit, detail",
    [
        ("diamond", "1/3", 6, "non-ast", F(1, 2),
         "closed acyclic state space; limit mass is exactly 1/2 < 1"),
        ("diamond", "1", 6, "ast-consistent", F(1),
         "closed acyclic state space; limit mass is exactly 1"),
        ("diamond", "0", 12, "non-ast", F(1, 4),
         "closed acyclic state space; limit mass is exactly 1/4 < 1"),
        ("shared_cycle", "1/2", 12, "inconclusive", None,
         "mass 31/32 at depth 12; no closure argument applies"),
        ("shared_cycle", "1/2", 60, "ast-consistent", None,
         "mass reached 536870911/536870912 >= 1 - 10^-6 by depth 60"),
        ("shared_cycle", "1", 6, "inconclusive", None,
         "mass 3/2 at depth 6 exceeds 1, so it is not a termination probability"),
        ("shared_cycle", "0", 6, "non-ast", F(0),
         "no reachable state has positive termination weight"),
        # b stops with 1/4; a gets 1/2 + 1/4 and passes all of it on to s
        ("skewed", "1/3", 6, "non-ast", F(1, 2),
         "closed acyclic state space; limit mass is exactly 1/2 < 1"),
        ("skewed", "1/2", 6, "non-ast", F(5, 8),
         "closed acyclic state space; limit mass is exactly 5/8 < 1"),
        ("skewed", "1", 6, "ast-consistent", F(1),
         "closed acyclic state space; limit mass is exactly 1"),
        # a's self-loop: paths of length <= 7 give 1/4 + 1/2 * 21/32 + 1/4 * 31/48
        ("skewed_loop", "1/3", 8, "inconclusive", None,
         "mass 71/96 at depth 8; no closure argument applies"),
    ],
)
def test_shared_states_and_cycles_behind_them(name, w, depth, verdict, limit, detail):
    spec = parse_spec(SHARED_SPECS[name].format(w=w))
    report = ast_estimate(spec, t(spec, "r"), depth)
    assert (report.verdict, report.limit, report.detail) == (verdict, limit, detail)
    assert report.exact == (limit is not None)


EXTREME_WEIGHTS = (
    "dialect weighted\nsemiring rational\nlabels a, b\n"
    "op nil : 0\nop hot : 0\nop spin : 0\nop pre_a : 1\nop par : 2\n"
    "rule nil -[1]-> *\n"
    "rule hot -a[inf]-> nil\n"
    "rule hot -[1/2]-> *\n"
    "rule spin -b[1/2]-> spin\n"
    "rule spin -a[0]-> nil\n"
    "rule spin -[1/3]-> *\n"
    "rule pre_a(x1) -a[1]-> x1\n"
    "rule par(x1, x2) -@l[1/2]-> par(y1, x2) when x1 -@l-> y1 forall @l\n"
    "rule par(x1, x2) -@l[1/2]-> par(x1, y2) when x2 -@l-> y2 forall @l\n"
    "rule par(x1, x2) -[1]-> * when x1 -> *, x2 -> *\n"
)


@pytest.mark.parametrize("name", ["prob_par", "leaky", "loop", "extreme", "skewed"])
def test_ast_masses_equal_the_bounded_table_totals(name, request):
    # an infinite rule weight, a zero-weight rule, a cycle, a termination
    # premise and a state reached at two depths: the per-state forward push
    # must still give exactly the per-word total of the table, whatever the
    # closure cap
    if name == "extreme":
        spec = parse_spec(EXTREME_WEIGHTS)
    elif name == "skewed":
        spec = parse_spec(SKEWED.format(w="1/3"))
    else:
        spec = request.getfixturevalue(name)
    terms = list(enumerate_closed_terms(spec.signature, 5))
    assert terms
    for term in terms:
        expected = [
            (d, fs_total(trace_bounded(spec, term, d))) for d in range(1, 10)
        ]
        assert ast_estimate(spec, term, 9).masses == expected, term
        assert ast_estimate(spec, term, 9, max_states=1).masses == expected, term
        for d, mass in expected[:6]:
            assert fs_total(trace_direct(spec, term, d - 1)) == mass, (term, d)


def test_ast_masses_reach_infinity_exactly():
    spec = parse_spec(EXTREME_WEIGHTS)
    masses = dict(ast_estimate(spec, t(spec, "pre_a(hot)"), 4).masses)
    assert masses[1] == 0 and masses[2] == F(1, 2) and masses[3] is INF


@pytest.mark.parametrize(
    "weight, limit", [("inf", INF), ("3/2", F(2)), ("1/2", F(1))]
)
def test_an_exact_limit_above_one_is_not_a_termination_probability(weight, limit):
    # hot -a[w]-> nil -> *, hot -> * with 1/2: the acyclic limit is w + 1/2
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\nop hot : 0\n"
        f"rule hot -a[{weight}]-> nil\nrule hot -[1/2]-> *\nrule nil -[1]-> *\n"
    )
    report = ast_estimate(spec, t(spec, "hot"), 3)
    assert report.exact and report.limit == limit
    if limit == 1:
        assert report.verdict == "ast-consistent"
        return
    assert report.verdict == "inconclusive"
    assert report.detail == (
        "closed acyclic state space; limit mass is exactly "
        f"{RATIONAL.show(limit)} > 1, so it is not a termination probability"
    )


@pytest.mark.parametrize("weight, final", [("inf", "inf"), ("1", "5/2")])
def test_a_cyclic_mass_above_one_is_not_a_termination_probability(weight, final):
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\nop hot : 0\n"
        f"rule hot -a[{weight}]-> hot\nrule hot -[1/2]-> *\n"
    )
    report = ast_estimate(spec, t(spec, "hot"), 5)
    assert report.verdict == "inconclusive"
    assert not report.exact and report.limit is None
    assert report.detail == (
        f"mass {final} at depth 5 exceeds 1, so it is not a termination probability"
    )


def test_ast_estimate_rejects_boolean_specs(de_simone_par):
    with pytest.raises(ValueError):
        ast_estimate(de_simone_par, t(de_simone_par, "nil"), 5)


def test_ast_estimate_refuses_a_falling_mass_sequence(leaky, monkeypatch):
    # the check must survive python -O, so it cannot be an assert
    import desimone.trace as trace_module

    def falling(sr, walk, max_depth):
        return [F(1, depth) for depth in range(1, max_depth + 1)]

    monkeypatch.setattr(trace_module, "_mass_sequence", falling)
    with pytest.raises(RuntimeError, match="mass fell"):
        ast_estimate(leaky, t(leaky, "c0"), 3)


# --- words as text -----------------------------------------------------------

def test_word_to_str(prob_par):
    assert word_to_str(("a", "b", "a"), prob_par.labels) == "aba"
    assert word_to_str((), prob_par.labels) == ""


def test_tables_refuse_a_leaf(prob_par):
    with pytest.raises(TypeError) as exc:
        trace_bounded(prob_par, Leaf(HOLE), 2)
    assert str(exc.value) == "trace_bounded needs a closed term, got Leaf(HOLE)"
