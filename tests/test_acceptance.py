"""End-to-end acceptance gate.

Ten scenario checks, one test each, covering the package's externally
promised behaviour: the affineness square and its failure modes, agreement
of the law pipeline with rule-by-rule stepping, stochasticity and fairness
of the parallel spec, the leaky chain's termination deficit, congruence of
bounded trace equivalence on the well-formed specs and its explicit
violation on the copying spec, fixpoint/path-sum coherence, the free
extension of the law, and the effect-monad algebra. Every comparison is
exact; each test carries a wall-clock budget it must finish within.
"""

import time
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
    STOP,
    Step,
    ast_estimate,
    bar_rho_step,
    check_probabilistic,
    counterexample_search,
    dist_sigma,
    dist_sigma_star,
    enumerate_closed_terms,
    fingerprint_buckets,
    fs_empty,
    fs_flatten,
    fs_map,
    fs_pair_join,
    fs_total,
    fs_unit,
    generate_contexts,
    load_spec,
    naturality_check,
    parse_term,
    print_term,
    step,
    step_law,
    trace_bounded,
    trace_direct,
)
from oracles import (
    as_set,
    counted_buckets,
    fs_leq,
    law_star,
    set_flatten,
    set_product_terms,
    two_level_oracle,
)

F = Fraction

SEMANTIC_SPECS = ["de_simone_par", "prob_par", "leaky", "copy_nonaffine", "loop"]


def bsum(*payloads):
    return FormalSum(BOOLEAN, [(p, 1) for p in payloads])


def arg_sum(arg):
    """The formal sum inside a witness argument, None for observed stops."""
    if isinstance(arg, Pure):
        return arg.value
    if isinstance(arg.elem, Step):
        return arg.elem.target
    return None


@pytest.fixture
def budget():
    start = time.perf_counter()

    def check(limit):
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.1f}s, budget {limit}s"

    return check


def test_01_duplicating_rule_yields_diagonal_vs_full_square_witness(
    pair_nonaffine, pair_affine, budget
):
    result = naturality_check(pair_nonaffine, carrier_size=2)
    assert not result.passed
    witness = result.witness
    assert witness.op == "f"
    # the splitting input observes a two-element successor sum
    observed = arg_sum(witness.args[0])
    assert len(observed) == 2
    v, w = sorted(observed.payloads())
    square = [
        Step("b", Node("f", [Leaf(x), Leaf(y)])) for x, y in product((v, w), repeat=2)
    ]
    diagonal = [Step("b", Node("f", [Leaf(x), Leaf(x)])) for x in (v, w)]
    assert witness.law_first == bsum(STOP, *square)
    assert witness.args_first == bsum(STOP, *diagonal)

    for size in (1, 2, 3):
        clean = naturality_check(pair_affine, carrier_size=size)
        assert clean.passed and clean.witness is None
    budget(10)


def test_02_empty_argument_sum_splits_the_legs(pair_affine, budget):
    result = naturality_check(pair_affine, carrier_size=2, include_nonaffine=True)
    assert not result.passed
    witness = result.witness
    assert any(
        s is not None and len(s) == 0 for s in map(arg_sum, witness.args)
    )
    assert witness.law_first == bsum(STOP)
    assert witness.args_first == fs_empty(BOOLEAN)
    budget(1)


def test_03_law_pipeline_matches_rule_by_rule_stepping_everywhere(request, budget):
    for name in SEMANTIC_SPECS:
        spec = request.getfixturevalue(name)
        checked = 0
        for term in enumerate_closed_terms(spec.signature, 6):
            assert step(spec, term) == step_law(spec, term)
            checked += 1
        assert checked >= 1
    budget(60)


def test_04_parallel_spec_is_stochastic_and_interleaves_fairly(prob_par, budget):
    report = check_probabilistic(prob_par, 6)
    assert report.passed and report.violator is None
    assert report.checked == len(list(enumerate_closed_terms(prob_par.signature, 6)))

    term = parse_term(prob_par.signature, "par(pre_a(nil), pre_b(nil))")
    assert trace_bounded(prob_par, term, 3) == FormalSum(
        prob_par.semiring,
        [(("a",), F(1, 4)), (("b",), F(1, 4)),
         (("a", "b"), F(1, 4)), (("b", "a"), F(1, 4))],
    )
    assert fs_total(trace_bounded(prob_par, term, 2)) < 1
    assert fs_total(trace_bounded(prob_par, term, 3)) == 1
    budget(10)


def test_05_leaky_chain_is_not_almost_surely_terminating(leaky, loop, budget):
    report = ast_estimate(leaky, parse_term(leaky.signature, "c0"), 30)
    masses = [mass for _, mass in report.masses]
    assert masses == sorted(masses)
    assert all(mass < F(999, 1000) for mass in masses)
    assert report.verdict == "non-ast"
    assert report.exact and report.limit == F(2147483647, 3221225472)
    # the limit sits a hair under 2/3; cutting the chain's stop-mass sum off
    # after two cells gives exactly 1/2, so a quoted 1/2 for this chain is a
    # truncation artifact, not the limit (see the trace module docstring)
    assert F(1, 3) + F(2, 3) * F(1, 4) == F(1, 2)
    assert report.limit != F(1, 2) and report.limit > F(1, 2)
    assert F(2, 3) - report.limit == F(1, 3221225472)

    c = parse_term(loop.signature, "c")
    for depth in range(16):
        assert fs_total(trace_bounded(loop, c, depth)) == 0
    budget(10)


def test_06_trace_equivalence_is_a_congruence_on_the_parallel_specs(
    request, budget
):
    for name in ("de_simone_par", "prob_par"):
        spec = request.getfixturevalue(name)
        buckets = fingerprint_buckets(spec, size_bound=7, depth=6)
        assert buckets == counted_buckets(load_spec(name), 7, 6)
        pairs = sum(n * (n - 1) // 2 for _, n, _ in buckets)
        assert pairs >= 20
        # the search tries the depth-1 layer and then 200 sampled contexts
        contexts = generate_contexts(spec, extra=200, max_size=7, seed=0)
        assert len(contexts) >= 200
        found = counterexample_search(spec, 7, 6, extra_contexts=200, seed=0)
        assert found is None
    budget(300)


def test_07_copying_spec_breaks_congruence_with_an_explicit_witness(
    copy_nonaffine, copy_violation
):
    violation, elapsed = copy_violation
    assert elapsed < 60
    assert print_term(violation.left) == "pre_a(plus(pre_b(nil), pre_c(nil)))"
    assert print_term(violation.right) == "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))"
    assert violation.context.show() == "f([])"
    assert violation.word == ("a", "b", "c")
    assert violation.verified
    # independent recomputation of both weights by explicit path summation
    left = violation.context.apply(violation.left)
    right = violation.context.apply(violation.right)
    assert trace_direct(copy_nonaffine, left, 3).weight(violation.word) == BOOLEAN.one
    assert trace_direct(copy_nonaffine, right, 3).weight(violation.word) == BOOLEAN.zero


def test_08_fixpoint_tables_match_path_sums_and_grow_with_depth(request, budget):
    for name in SEMANTIC_SPECS:
        spec = request.getfixturevalue(name)
        for term in enumerate_closed_terms(spec.signature, 5):
            tables = [trace_bounded(spec, term, depth) for depth in range(7)]
            for depth in range(1, 7):
                assert tables[depth] == trace_direct(spec, term, depth - 1)
                assert fs_leq(tables[depth - 1], tables[depth])
    budget(60)


def test_09_free_extension_agrees_with_manual_composition(de_simone_par, budget):
    labels = de_simone_par.labels
    pool = [
        bsum(STOP),
        bsum(Step(labels[0], "s0")),
        bsum(STOP, Step(labels[0], "s1")),
        bsum(Step(labels[0], "s0"), Step(labels[1], "s1")),
        fs_empty(BOOLEAN),
    ]

    flat_checked = 0
    for op in ("par", "plus"):
        for b1, b2 in product(pool, repeat=2):
            flat = Node(op, [Leaf(("p", b1)), Leaf(("q", b2))])
            assert law_star(de_simone_par, flat) == bar_rho_step(
                de_simone_par, op, [("p", b1), ("q", b2)]
            )
            flat_checked += 1

    deep_checked = 0
    for b1, b2, b3 in product(pool, repeat=3):
        term = Node(
            "par",
            [Leaf(("p", b1)), Node("plus", [Leaf(("q", b2)), Leaf(("r", b3))])],
        )
        assert law_star(de_simone_par, term) == two_level_oracle(
            de_simone_par, "par", ("p", b1), "plus", [("q", b2), ("r", b3)]
        )
        deep_checked += 1

    assert flat_checked + deep_checked >= 50
    budget(30)


def test_10_effect_monad_and_distribution_algebra_hold_exhaustively(budget):
    def bool_sums(carrier):
        return [
            bsum(*(x for i, x in enumerate(carrier) if mask >> i & 1))
            for mask in range(2 ** len(carrier))
        ]

    for n in (1, 2, 3):
        carrier = tuple(f"x{i}" for i in range(n))
        sums = bool_sums(carrier)

        # unit is a two-sided identity for flattening
        for s in sums:
            assert fs_flatten(fs_unit(BOOLEAN, s)) == s
            assert fs_flatten(fs_map(lambda x: fs_unit(BOOLEAN, x), s)) == s

        # flattening is associative and matches plain set union
        nested = bool_sums(tuple(sums))
        for m in nested:
            assert as_set(fs_flatten(m)) == set_flatten(as_set(inner) for inner in m.payloads())
        doubly = bool_sums(tuple(nested[: min(4, len(nested))]))
        for mm in doubly:
            assert fs_flatten(fs_flatten(mm)) == fs_flatten(fs_map(fs_flatten, mm))

        # tagged pairing is a bijection
        for s, t in product(sums, repeat=2):
            joined = fs_pair_join(s, t)
            back_left = FormalSum(
                BOOLEAN, [(p.value, w) for p, w in joined.items() if isinstance(p, Pure)]
            )
            back_right = FormalSum(
                BOOLEAN, [(p.elem, w) for p, w in joined.items() if isinstance(p, Obs)]
            )
            assert (back_left, back_right) == (s, t)

        # argument distribution is the set product, affine or not
        nonempty = [s for s in sums if len(s)]
        for a, b in product(nonempty, repeat=2):
            got = dist_sigma(BOOLEAN, "f", [a, b])
            assert as_set(got) == set_product_terms("f", [as_set(a), as_set(b)])
            affine_flat = Node("f", [Leaf(a), Leaf(b)])
            assert dist_sigma_star(BOOLEAN, affine_flat) == got
    budget(30)
