"""Equivalence checking, context generation, congruence search, and the
bisimulation quotient behind it."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from desimone import (
    BOOLEAN,
    Context,
    HOLE,
    Leaf,
    Node,
    RuleTargetError,
    SPEC_NAMES,
    SpecParseError,
    Var,
    bisim_partition,
    check_probabilistic,
    counterexample_search,
    enumerate_closed_terms,
    explore,
    fingerprint_buckets,
    first_difference,
    format_errors,
    generate_contexts,
    load_spec,
    model_cache,
    naturality_check,
    parse_spec,
    parse_term,
    partial_trace_bounded,
    print_term,
    spec_text,
    step,
    step_law,
    trace_bounded,
    trace_direct,
)
from desimone.analysis import _hole_guard, bisim_blocks
from oracles import (
    bounded_signatures,
    coarsest_bisimulation,
    observably_equiv_bounded,
    per_term_buckets,
    plug,
    random_valid_spec,
    round_based_bisimulation,
    unguarded_search,
)
from test_rulespec import _mutate

F = Fraction


def t(spec, text):
    return parse_term(spec.signature, text)


def full_depth(spec, terms):
    """The size of the closed reachable space: ``bisim_partition`` at this
    depth is full bisimilarity."""
    walk = explore(spec, terms, -1, 10**6)
    assert walk.closed
    return len(walk.order)


@pytest.fixture
def depth_artifact_pair(prob_par):
    # equal completed tables at depth 4, different length-3 partial words
    return (
        t(prob_par, "pre_a(pre_a(pre_a(pre_a(nil))))"),
        t(prob_par, "pre_a(pre_a(pre_b(pre_a(nil))))"),
    )


# --- bounded equivalences ----------------------------------------------------

def test_trace_equiv_worked_examples(prob_par, de_simone_par):
    assert first_difference(
        prob_par, t(prob_par, "nil"), t(prob_par, "par(nil, nil)"), 6
    ) is None
    assert first_difference(
        prob_par, t(prob_par, "pre_a(nil)"), t(prob_par, "pre_b(nil)"), 2
    ) is not None
    assert first_difference(
        de_simone_par,
        t(de_simone_par, "plus(pre_a(nil), pre_a(nil))"),
        t(de_simone_par, "pre_a(nil)"),
        5,
    ) is None


def test_completed_tables_can_hide_a_pending_difference(prob_par, depth_artifact_pair):
    t1, t2 = depth_artifact_pair
    assert trace_bounded(prob_par, t1, 4) == trace_bounded(prob_par, t2, 4)
    assert not observably_equiv_bounded(prob_par, t1, t2, 4)
    assert trace_bounded(prob_par, t1, 5) != trace_bounded(prob_par, t2, 5)
    # a context can surface the pending letters inside completed words of
    # the same depth, so the refined precondition is what congruence needs
    context = Context(Node("par", [Leaf(HOLE), t(prob_par, "nil")]), (0,))
    assert trace_bounded(prob_par, context.apply(t1), 4) != trace_bounded(
        prob_par, context.apply(t2), 4
    )


def test_observable_equivalence_is_plain_trace_equality_when_boolean(de_simone_par):
    terms = list(enumerate_closed_terms(de_simone_par.signature, 3))
    for depth in (1, 2, 4):
        for a in terms:
            for b in terms:
                assert observably_equiv_bounded(de_simone_par, a, b, depth) == (
                    trace_bounded(de_simone_par, a, depth)
                    == trace_bounded(de_simone_par, b, depth)
                )


def test_first_difference_reports_length_lex_first_word(prob_par, de_simone_par):
    got = first_difference(
        prob_par,
        t(prob_par, "par(pre_a(nil), pre_a(nil))"),
        t(prob_par, "pre_a(pre_a(nil))"),
        4,
    )
    assert got == (("a",), F(1, 2), F(0))
    got = first_difference(
        de_simone_par,
        t(de_simone_par, "plus(pre_a(nil), pre_b(nil))"),
        t(de_simone_par, "pre_a(nil)"),
        3,
    )
    assert got == (("b",), BOOLEAN.one, BOOLEAN.zero)


def test_first_difference_is_none_for_equal_tables(prob_par, depth_artifact_pair):
    t1, t2 = depth_artifact_pair
    assert first_difference(prob_par, t1, t1, 5) is None
    # completed tables agree at this depth even though the terms differ
    assert first_difference(prob_par, t1, t2, 4) is None


# --- context generation ------------------------------------------------------

def test_depth_one_layer_comes_first_in_operator_order(prob_par):
    shows = [c.show() for c in generate_contexts(prob_par, 6, 3, 0)]
    assert shows[:4] == ["pre_a([])", "pre_b([])", "par([], nil)", "par(nil, [])"]
    assert len(shows) == 6


def test_every_context_has_exactly_one_hole(prob_par, copy_nonaffine):
    for spec in (prob_par, copy_nonaffine):
        for c in generate_contexts(spec, 25, 5, 3):
            assert c.show().count("[]") == 1


def test_context_generation_is_deterministic(prob_par):
    first = [c.show() for c in generate_contexts(prob_par, 12, 4, 7)]
    again = [c.show() for c in generate_contexts(prob_par, 12, 4, 7)]
    assert first == again and len(first) == 12
    assert len(set(first)) == 12


def _one_hole_contexts(term):
    """Every term made from ``term`` by a hole at one non-root position."""
    out = []
    for i, child in enumerate(term.children):
        for inner in [Leaf(HOLE)] + _one_hole_contexts(child):
            out.append(Node(term.op, term.children[:i] + (inner,) + term.children[i + 1:]))
    return out


def test_sampling_stops_once_no_context_can_be_new(prob_par):
    # size-3 hosts allow a handful of contexts: drawing on until 50 x 100,000
    # attempts are spent takes about 50 s
    start = time.perf_counter()
    every = generate_contexts(prob_par, 100_000, 3, 0)
    assert time.perf_counter() - start < 5
    hosts = [u for u in enumerate_closed_terms(prob_par.signature, 3) if u.size >= 2]
    drawable = {c for host in hosts for c in _one_hole_contexts(host)}
    depth1 = {c.term for c in generate_contexts(prob_par, 4, 3, 0)}
    assert {c.term for c in every} == depth1 | drawable
    assert len(every) == len(depth1 | drawable) == 8
    # a smaller count draws the same contexts in the same order
    for count in range(1, len(every) + 1):
        assert generate_contexts(prob_par, count, 3, 0) == every[:count]


def test_context_count_must_be_positive(prob_par):
    with pytest.raises(ValueError):
        generate_contexts(prob_par, 0, 3, 0)


def test_buckets_and_contexts_refuse_an_enumeration_past_the_bound(copy_nonaffine):
    # 13,092,190 closed terms of size <= 10: refused before one is built
    for enumerate_to_size_10 in (
        lambda: fingerprint_buckets(copy_nonaffine, 10, 2),
        lambda: generate_contexts(copy_nonaffine, 5, 10, 0),
    ):
        with pytest.raises(ValueError, match="13,092,190 closed terms of size <= 10"):
            enumerate_to_size_10()


def test_context_apply(prob_par):
    context = Context(Node("par", [Leaf(HOLE), t(prob_par, "nil")]), (0,))
    assert print_term(context.apply(t(prob_par, "pre_a(nil)"))) == "par(pre_a(nil), nil)"
    assert context.show() == "par([], nil)"


def test_applying_a_context_with_a_stray_leaf_fails(prob_par):
    with pytest.raises(ValueError):
        bad = Context(Node("pre_a", [Leaf(Var("x", 1))]), (0,))
        bad.apply(t(prob_par, "nil"))


@pytest.mark.parametrize("path", [(0, 0), (5,)])
def test_a_context_path_that_leaves_the_term_is_refused(path):
    with pytest.raises(ValueError) as err:
        Context(Node("f", [Leaf(HOLE)]), path)
    assert str(err.value) == f"context path {path} leaves the term"


def _holds_hole(term):
    return isinstance(term, Leaf) or any(_holds_hole(c) for c in term.children)


def _assert_shared_off_path(context_term, plugged, filler):
    if isinstance(context_term, Leaf):
        assert plugged is filler
    elif not _holds_hole(context_term):
        assert plugged is context_term
    else:
        for c, p in zip(context_term.children, plugged.children):
            _assert_shared_off_path(c, p, filler)


def test_context_apply_matches_the_plug_oracle(prob_par, copy_nonaffine):
    for spec in (prob_par, copy_nonaffine):
        filler = t(spec, "pre_a(pre_b(nil))")
        for c in generate_contexts(spec, 40, 5, 0):
            plugged = c.apply(filler)
            assert plugged == plug(c.term, filler), c.show()
            _assert_shared_off_path(c.term, plugged, filler)


# --- fingerprint buckets and candidate pairs ---------------------------------

def test_buckets_partition_the_enumeration(prob_par):
    buckets = fingerprint_buckets(prob_par, 4, 3)
    members = [m for _, ms, _ in buckets for m in ms]
    assert sorted(map(print_term, members)) == sorted(
        print_term(x) for x in enumerate_closed_terms(prob_par.signature, 4)
    )
    for _, ms, _ in buckets:
        for a in ms:
            for b in ms:
                assert observably_equiv_bounded(prob_par, a, b, 3)
    reps = [ms[0] for _, ms, _ in buckets]
    assert [print_term(m) for m in buckets[0][1][:2]] == ["nil", "par(nil, nil)"]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not observably_equiv_bounded(prob_par, a, b, 3)


# (spec, enumeration size, table depth): small enough to table every term
ORACLE_SIZES = [
    ("copy_nonaffine", 5, 4),
    ("prob_par", 6, 5),
    ("de_simone_par", 5, 6),
    ("pair_affine", 4, 4),
    ("pair_nonaffine", 4, 4),
    ("loop", 4, 4),
    ("leaky", 3, 5),
]


@pytest.mark.parametrize("name, size, depth", ORACLE_SIZES)
def test_buckets_match_fingerprinting_every_term(name, size, depth):
    spec = load_spec(name)  # fresh: no table is shared with the oracle
    expected = per_term_buckets(load_spec(name), size, depth)
    buckets = fingerprint_buckets(spec, size, depth)
    assert [(fp, ms) for fp, ms, _ in buckets] == expected
    terms = list(enumerate_closed_terms(spec.signature, size))
    blocks = bisim_partition(spec, terms, depth)
    for _, ms, reps in buckets:
        firsts = {}
        for m in ms:
            firsts.setdefault(blocks[m], m)
        assert reps == list(firsts.values())


def _quotients(spec, size, depth):
    """The enumeration's block ids, renumbered in order of first member, from
    the key-built quotient and from one partition of the whole enumeration;
    or the refusal of each. Equal lists mean the same blocks, each with the
    same first member."""
    terms = list(enumerate_closed_terms(spec.signature, size))
    outcomes = []
    for quotient in (
        lambda: bisim_blocks(spec, size, depth),
        lambda: bisim_partition(spec, terms, depth),
    ):
        try:
            blocks = quotient()
        except RuleTargetError as exc:
            outcomes.append(str(exc))
            continue
        ids = {}
        outcomes.append([ids.setdefault(blocks[u], len(ids)) for u in terms])
    return outcomes


@pytest.mark.parametrize("name, size, depth", ORACLE_SIZES)
def test_key_built_blocks_match_one_partition_of_the_enumeration(name, size, depth):
    spec = load_spec(name)
    terms = list(enumerate_closed_terms(spec.signature, size))
    assert list(bisim_blocks(spec, size, 1)) == terms
    for d in range(1, depth + 1):
        by_keys, whole = _quotients(spec, size, d)
        assert by_keys == whole


def test_key_built_blocks_match_on_mutated_specs():
    # mutants mostly break the format; step still reads them rule by rule,
    # and the congruence the keys rely on holds for that reading too
    rng = random.Random(7)
    texts = [spec_text(name) for name in SPEC_NAMES]
    outcomes = Counter()
    while outcomes["refused"] + outcomes["blocks"] < 100:
        try:
            spec = parse_spec(_mutate(rng, rng.choice(texts)))
        except SpecParseError:
            continue
        by_keys, whole = _quotients(spec, 4, 3)
        assert by_keys == whole
        outcomes["refused" if isinstance(whole, str) else "blocks"] += 1
        outcomes["outside the format"] += bool(format_errors(spec))
    assert min(outcomes.values()) > 0


# --- bisimulation quotient ---------------------------------------------------

def test_bisim_worked_examples(prob_par, de_simone_par):
    terms = [t(prob_par, "nil"), t(prob_par, "par(nil, nil)"), t(prob_par, "pre_a(nil)")]
    blocks = bisim_partition(prob_par, terms, full_depth(prob_par, terms))
    assert blocks[t(prob_par, "nil")] == blocks[t(prob_par, "par(nil, nil)")]
    assert blocks[t(prob_par, "nil")] != blocks[t(prob_par, "pre_a(nil)")]
    terms = [
        t(de_simone_par, "pre_a(nil)"),
        t(de_simone_par, "plus(pre_a(nil), pre_a(nil))"),
        t(de_simone_par, "pre_b(nil)"),
    ]
    blocks = bisim_partition(de_simone_par, terms, full_depth(de_simone_par, terms))
    assert (
        blocks[t(de_simone_par, "pre_a(nil)")]
        == blocks[t(de_simone_par, "plus(pre_a(nil), pre_a(nil))")]
    )
    assert (
        blocks[t(de_simone_par, "pre_a(nil)")] != blocks[t(de_simone_par, "pre_b(nil)")]
    )


def test_bisim_collapses_dead_terms():
    spec = parse_spec(
        "dialect weighted\nsemiring rational\nlabels a\n"
        "op d1 : 0\nop d2 : 0\nop c : 0\nrule c -a[1]-> d1\n"
    )
    terms = [t(spec, "d1"), t(spec, "d2"), t(spec, "c")]
    blocks = bisim_partition(spec, terms, full_depth(spec, terms))
    assert blocks[t(spec, "d1")] == blocks[t(spec, "d2")]
    assert blocks[t(spec, "c")] != blocks[t(spec, "d1")]


def test_bisim_matches_exhaustive_search(prob_par):
    seeds = list(enumerate_closed_terms(prob_par.signature, 3))
    got = bisim_partition(prob_par, seeds, full_depth(prob_par, seeds))
    blocks = {}
    for term, b in got.items():
        blocks.setdefault(b, set()).add(term)
    assert frozenset(frozenset(b) for b in blocks.values()) == coarsest_bisimulation(
        prob_par, seeds
    )


def test_bisim_block_ids_are_dense_and_deterministic(prob_par):
    seeds = list(enumerate_closed_terms(prob_par.signature, 4))
    for depth in (0, 1, 3, full_depth(prob_par, seeds)):
        got = bisim_partition(prob_par, seeds, depth)
        ids = set(got.values())
        assert ids == set(range(len(ids)))
        assert got == bisim_partition(prob_par, seeds, depth)


def test_bisimilar_terms_share_trace_tables(prob_par):
    # bisimilarity up to the table depth is all the tables need
    seeds = list(enumerate_closed_terms(prob_par.signature, 4))
    blocks = bisim_partition(prob_par, seeds, 5)
    by_block = {}
    for term in seeds:
        by_block.setdefault(blocks[term], []).append(term)
    for members in by_block.values():
        rep = members[0]
        for other in members[1:]:
            assert trace_bounded(prob_par, rep, 5) == trace_bounded(
                prob_par, other, 5
            )
            assert partial_trace_bounded(prob_par, rep, 4) == partial_trace_bounded(
                prob_par, other, 4
            )


def test_bisim_steps_each_reachable_state_once(monkeypatch):
    import desimone.opmodel as opmodel_module

    spec = load_spec("prob_par")  # a fresh spec, so no memo is warm
    seeds = list(enumerate_closed_terms(spec.signature, 4))
    depth = full_depth(load_spec("prob_par"), seeds)  # walked on another spec
    calls = Counter()
    step = opmodel_module.step

    def counting(spec, term, *args):
        calls[term] += 1
        return step(spec, term, *args)

    monkeypatch.setattr(opmodel_module, "step", counting)
    blocks = bisim_partition(spec, seeds, depth)
    assert len(set(blocks.values())) > 1  # several refinement rounds
    assert set(calls) == set(blocks)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("name, size, depth", ORACLE_SIZES)
def test_indexed_refinement_matches_signature_rounds(name, size, depth):
    spec = load_spec(name)
    seeds = list(enumerate_closed_terms(spec.signature, size))
    expected = round_based_bisimulation(spec, seeds)
    got = bisim_partition(spec, seeds, len(expected))
    assert got == expected
    assert list(got) == list(expected)


@pytest.mark.parametrize("name, size, depth", ORACLE_SIZES)
def test_bounded_partition_matches_nested_signatures(name, size, depth):
    spec = load_spec(name)
    seeds = list(enumerate_closed_terms(spec.signature, size))
    for d in (1, depth):
        partition = bisim_partition(spec, seeds, d)
        blocks = [partition[s] for s in seeds]
        sigs = bounded_signatures(spec, seeds, d)
        # one block per signature class, and one signature per block
        assert len(set(zip(blocks, sigs))) == len(set(blocks)) == len(set(sigs))


# f(t) moves to f(f(t)) forever: an infinite reachable space
GROWING = (
    "dialect weighted\nsemiring rational\nlabels a\n"
    "op nil : 0\nop f : 1\nrule f(x1) -a[1/2]-> f(f(x1))\n"
)


def test_bisim_walks_only_within_its_depth():
    spec = parse_spec(GROWING)
    seeds = list(enumerate_closed_terms(spec.signature, 6))
    blocks = bisim_partition(spec, seeds, 3)
    assert set(blocks) == set(explore(spec, seeds, 2, 0).order)
    assert len({blocks[s] for s in seeds}) == 2  # nil, and every f(...)


def test_search_on_an_infinite_reachable_space_stays_within_its_depth():
    spec = parse_spec(GROWING)  # fresh, so the memo counts this search
    assert counterexample_search(spec, 6, 3) is None
    # a walk to a fixed point stepped about 200,000 states before giving up
    assert len(model_cache(spec).step) < 1000


# --- counterexample search ---------------------------------------------------

def test_search_is_silent_on_well_formed_specs(prob_par, de_simone_par, loop):
    assert counterexample_search(prob_par, size_bound=4, depth=3) is None
    assert counterexample_search(de_simone_par, size_bound=4, depth=3) is None
    assert counterexample_search(loop, size_bound=3, depth=3) is None


def test_random_format_valid_specs_are_compositional():
    """The paper's theorem on specs drawn from the format itself: no
    congruence violation, the engine agrees with the law pipeline, and the
    law is natural."""
    rng = random.Random(0)
    for _ in range(100):
        text = random_valid_spec(rng)
        spec = parse_spec(text)
        assert format_errors(spec) == [], text
        assert counterexample_search(spec, 4, 3) is None, text
        for term in enumerate_closed_terms(spec.signature, 4):
            assert step(spec, term) == step_law(spec, term), (text, term)
        assert naturality_check(spec, 2).passed, text


def test_random_normalised_specs_are_probabilistic_and_compositional():
    """The paper's probabilistic format as a property: every closed term of
    a normalised spec has step mass 1, and no congruence violation or
    naturality failure shows."""
    rng = random.Random(0)
    for _ in range(40):
        text = random_valid_spec(rng, normalised=True)
        spec = parse_spec(text)
        assert format_errors(spec) == [], text
        assert check_probabilistic(spec, 4).passed, text
        assert counterexample_search(spec, 4, 3) is None, text
        assert naturality_check(spec, 2).passed, text


def test_random_copying_specs_break_naturality_and_congruence():
    """The other side of the theorem: a rule that copies a successor into
    two positions tested by different labels breaks the law's naturality on
    every spec of the copying family, and every congruence witness the
    search reports is verified by the path-sum oracle. The family plants a
    pair that the copy splits at size 5, depth 3; 14 of these 16 specs yield
    a witness there, and on the other two the random extra rules break the
    pair."""
    rng = random.Random(0)
    found = 0
    for _ in range(16):
        text = random_valid_spec(rng, copying=True)
        spec = parse_spec(text)
        assert "affine-target" in {v.condition for v in format_errors(spec)}, text
        assert not naturality_check(spec, 2).passed, text
        violation = counterexample_search(spec, 5, 3)
        if violation is not None:
            assert violation.verified, text
            found += 1
    assert found >= 14


def test_search_refuses_a_negative_context_count(copy_nonaffine):
    # fewer contexts than the depth-1 layer would lose the f([]) witness
    with pytest.raises(ValueError, match="extra_contexts"):
        counterexample_search(copy_nonaffine, size_bound=3, depth=2, extra_contexts=-4)


def test_search_reuses_given_buckets(prob_par, monkeypatch, quotient_calls):
    import desimone.analysis as analysis_module

    buckets = fingerprint_buckets(prob_par, 4, 3)
    quotient_calls.clear()

    def recomputed(*args):
        raise AssertionError("buckets were recomputed")

    monkeypatch.setattr(analysis_module, "fingerprint_buckets", recomputed)
    assert counterexample_search(prob_par, 4, 3, buckets=buckets) is None
    # given buckets carry their representatives: no call quotients terms,
    # each one thins one bucket's representatives once per context guard
    bucket_reps = [reps for _, _, reps in buckets]
    assert quotient_calls
    for roots, depth in quotient_calls:
        assert roots in bucket_reps and 0 < depth < 3
    assert len({(tuple(roots), depth) for roots, depth in quotient_calls}) == len(
        quotient_calls
    )
    with pytest.raises(AssertionError, match="recomputed"):
        counterexample_search(prob_par, 4, 3)


def test_search_quotients_the_first_term_of_each_key(prob_par, quotient_calls):
    assert counterexample_search(prob_par, 4, 3) is None
    calls = [roots for roots, depth in quotient_calls if depth == 3]
    blocks = bisim_blocks(prob_par, 4, 3)
    key_firsts, block_firsts = {}, {}
    for u, b in blocks.items():
        key_firsts.setdefault((u.op, tuple(blocks[c] for c in u.children)), u)
        block_firsts.setdefault(b, u)
    earlier = set()
    for roots in calls:
        assert len(set(roots)) == len(roots) <= len(key_firsts)
        # a term comes back only as the first member of a block found earlier
        assert set(roots) & earlier <= set(block_firsts.values())
        earlier |= set(roots)
    assert earlier == set(key_firsts.values())
    assert len(key_firsts) < len(blocks)


# computed before the search skipped hole-blind contexts: none of these
# bounds reaches the size-7 copying witness
PINNED_SEARCHES = [
    ("copy_nonaffine", size, depth, seed, None)
    for size in (5, 6)
    for depth in (3, 4)
    for seed in (0, 1, 2)
] + [
    ("pair_nonaffine", 5, 4, 0, None),
    ("pair_nonaffine", 6, 4, 0, None),
    ("prob_par", 4, 3, 0, None),
    ("prob_par", 5, 4, 0, None),
    ("de_simone_par", 5, 3, 0, None),
    ("loop", 4, 4, 0, None),
]


@pytest.mark.parametrize("name, size, depth, seed, expected", PINNED_SEARCHES)
def test_search_results_are_pinned(name, size, depth, seed, expected, request):
    spec = request.getfixturevalue(name)
    found = counterexample_search(spec, size, depth, seed=seed)
    assert (None if found is None else found.describe(spec)) == expected


@pytest.mark.parametrize(
    "name, size, depth", [("copy_nonaffine", 5, 3), ("prob_par", 5, 4)]
)
def test_hole_blind_contexts_give_one_table_for_every_filler(
    name, size, depth, request
):
    spec = request.getfixturevalue(name)
    arity = sum(spec.signature.arity(op) for op in spec.signature.names())
    contexts = generate_contexts(spec, arity + 100, size, 0)
    blind = [c for c in contexts if _hole_guard(spec, c, depth) == depth]
    assert 0 < len(blind) < len(contexts)
    fillers = list(enumerate_closed_terms(spec.signature, 4))
    for c in blind:
        tables = {trace_direct(spec, c.apply(u), depth - 1) for u in fillers}
        assert len(tables) == 1, c.show()


@pytest.mark.parametrize(
    "name, size, depth",
    [("copy_nonaffine", 4, 4), ("prob_par", 5, 5), ("de_simone_par", 5, 6)],
)
def test_fillers_bisimilar_below_a_contexts_guard_get_one_table(name, size, depth):
    spec = load_spec(name)
    arity = sum(spec.signature.arity(op) for op in spec.signature.names())
    contexts = generate_contexts(spec, arity + 30, size, 0)
    fillers = list(enumerate_closed_terms(spec.signature, size))
    full = bisim_partition(spec, fillers, depth)
    thinned = 0
    for c in contexts:
        g = _hole_guard(spec, c, depth)
        trace_bounded(spec, c.term, g)  # the guard's table steps no hole
        if g == depth:
            continue
        with pytest.raises(TypeError):  # and it is the largest such
            trace_bounded(spec, c.term, g + 1)
        blocks = bisim_partition(spec, fillers, depth - g)
        tables = {}
        for u in fillers:
            table = trace_bounded(spec, c.apply(u), depth)
            assert tables.setdefault(blocks[u], table) == table, c.show()
        thinned += len(tables) < len({full[u] for u in fillers})
    assert thinned > 0


def _described(spec, violation):
    return None if violation is None else violation.describe(spec)


@pytest.mark.parametrize("name, size, depth", ORACLE_SIZES)
def test_guarded_search_matches_the_unguarded_loop(name, size, depth):
    guarded, unguarded = load_spec(name), load_spec(name)  # no shared tables
    assert _described(guarded, counterexample_search(guarded, size, depth)) == (
        _described(unguarded, unguarded_search(unguarded, size, depth))
    )


def test_unguarded_loop_finds_the_copying_violation(copy_nonaffine, copy_violation):
    spec = load_spec("copy_nonaffine")  # fresh: no table is shared
    violation, _ = copy_violation
    assert unguarded_search(spec, 7, 4).describe(spec) == violation.describe(
        copy_nonaffine
    )


def test_guarded_search_matches_the_unguarded_loop_on_mutated_specs():
    rng = random.Random(11)
    texts = [spec_text(name) for name in SPEC_NAMES]
    outcomes = Counter()
    while outcomes.total() < 100:
        text = _mutate(rng, rng.choice(texts))
        try:
            spec = parse_spec(text)
        except SpecParseError:
            continue
        size, depth = [(4, 3), (5, 2), (4, 4)][outcomes.total() % 3]
        results = []
        for search in (counterexample_search, unguarded_search):
            try:
                results.append(_described(spec, search(spec, size, depth)))
            except RuleTargetError as exc:
                results.append(str(exc))
        assert results[0] == results[1], text
        outcomes["refused" if isinstance(results[1], str) else "answered"] += 1
    assert min(outcomes.values()) > 0


# the pair p(plus(ea, eb)) / plus(p(ea), p(eb)) splits only under a context
# that reaches cp through w; r and s have no rules
IDLE_OPERATORS = """\
dialect desimone
semiring boolean
labels a, b, d
op k0 : 0
op ea : 0
op eb : 0
op p : 1
op plus : 2
op r : 5
op s : 3
op cp : 1
op tst : 2
op w : 1
rule ea -a-> k0
rule eb -b-> k0
rule p(x1) -a-> x1
rule plus(x1, x2) -@l-> y1 when x1 -@l-> y1 forall @l
rule plus(x1, x2) -@l-> y2 when x2 -@l-> y2 forall @l
rule cp(x1) -a-> tst(y1, y1) when x1 -d-> y1
rule tst(x1, x2) -a-> k0 when x1 -a-> y1, x2 -b-> y2
rule w(x1) -d-> y1 when x1 -a-> y1
"""


@pytest.mark.parametrize("depth", [3, 4])
def test_no_context_is_built_for_an_operator_without_rules_past_the_size(depth):
    # at size 5 no sampled context holds r, so the search builds none of
    # its depth-1 contexts and steps no r-term; s is sampled, so its own
    # are built, and every other context keeps its place and its flag
    guarded, unguarded = parse_spec(IDLE_OPERATORS), parse_spec(IDLE_OPERATORS)
    found = counterexample_search(guarded, 5, depth)
    assert found.deep_context and found.verified
    assert found.describe(guarded) == unguarded_search(unguarded, 5, depth).describe(
        unguarded
    )
    assert all(t.op != "r" for t in model_cache(guarded).step)
    assert any(t.op == "r" for t in model_cache(unguarded).step)


def test_prob_search_tables_only_what_its_guards_let_through():
    spec = load_spec("prob_par")  # fresh, so the memo counts this search
    buckets = fingerprint_buckets(spec, 7, 5)
    before = len(model_cache(spec).trace)
    assert counterexample_search(spec, 7, 5, buckets=buckets) is None
    # 2,885 tables under every hash seed tried; splitting every
    # representative under every context that is not hole-blind added 9,024
    assert len(model_cache(spec).trace) - before <= 3_500


def test_copy_search_steps_only_what_its_tables_observe():
    spec = load_spec("copy_nonaffine")  # fresh, so the memo counts this search
    assert counterexample_search(spec, 6, 4) is None
    # 11,619 behaviours under every hash seed tried; quotienting every term
    # memoized 17,416, and stepping every argument of every state and
    # probing no context for blindness 69,381
    assert len(model_cache(spec).step) <= 12_000


def test_copy_buckets_step_one_term_per_key():
    spec = load_spec("copy_nonaffine")  # fresh, so the memo counts the buckets
    fingerprint_buckets(spec, 7, 4)
    # 1,937 behaviours under every hash seed tried, for 44,361 terms;
    # quotienting every term memoized 45,711
    assert len(model_cache(spec).step) <= 2_500


def test_search_finds_the_copying_violation(copy_nonaffine, copy_violation):
    violation, _ = copy_violation
    assert print_term(violation.left) == "pre_a(plus(pre_b(nil), pre_c(nil)))"
    assert print_term(violation.right) == "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))"
    assert violation.context.show() == "f([])"
    assert violation.word == ("a", "b", "c")
    assert (violation.left_weight, violation.right_weight) == (
        BOOLEAN.one,
        BOOLEAN.zero,
    )
    assert violation.verified and not violation.deep_context
    described = violation.describe(copy_nonaffine)
    assert described["context"] == "f([])"
    assert described["word"] == "abc"
    assert described["left_weight"] == "1" and described["right_weight"] == "0"
    # recheck through the path-sum oracle, away from the fixpoint machinery
    plugged_left = violation.context.apply(violation.left)
    plugged_right = violation.context.apply(violation.right)
    assert trace_direct(copy_nonaffine, plugged_left, 3).weight(violation.word) == 1
    assert trace_direct(copy_nonaffine, plugged_right, 3).weight(violation.word) == 0
