"""Reference implementations written straight from the defining formulas.

Everything here deliberately avoids the package's own code paths, so that
agreement between an oracle and the real implementation is evidence rather
than tautology. Oracles are slow and simple on purpose. The exceptions are
``reachable``, a bounded ``explore``, and the two references for the
quotient-first search, ``per_term_buckets`` and ``round_based_bisimulation``:
they read the package's trace tables and walk, and differ from it only in
the step they check (tabling every term, and re-reading every behaviour
each refinement round). ``unguarded_search`` likewise runs the package's
buckets, contexts and split check, and differs only in splitting every
representative under every context. ``law_star`` extends the package's
composite law to terms over behaviour-carrying leaves, so that hand
compositions of ``bar_rho_step`` (``two_level_oracle``) can check it level
by level.
"""

from fractions import Fraction
from itertools import product

from desimone import (
    BOOLEAN,
    HOLE,
    INF,
    STOP,
    FormalSum,
    Leaf,
    Node,
    Step,
    TermPremise,
    TransPremise,
    bar_rho_step,
    belem_map,
    enumerate_closed_terms,
    explore,
    fingerprint_buckets,
    fold,
    fs_map,
    generate_contexts,
    graft,
    partial_trace_bounded,
    step,
    term_vars,
    trace_bounded,
)
from desimone.analysis import _split_violation


# --- formal sums ------------------------------------------------------------

def fs_leq(s, t):
    """Pointwise order; the approximation order used for trace prefixes."""
    sr = s.semiring
    return all(sr.leq(w, t.weight(p)) for p, w in s.items())


# --- boolean sums as plain frozensets --------------------------------------

def as_set(s):
    """A boolean formal sum is just its support."""
    assert s.semiring is BOOLEAN
    return frozenset(s.payloads())


def set_flatten(outer_sets):
    acc = set()
    for inner in outer_sets:
        acc |= inner
    return frozenset(acc)


def set_product_terms(op, arg_sets):
    """All one-level terms built by picking one element per argument set."""
    return frozenset(
        Node(op, [Leaf(x) for x in combo]) for combo in product(*arg_sets)
    )


# --- terms over payloads -----------------------------------------------------

def map_leaves(t, f):
    """The term with each leaf payload ``p`` replaced by ``f(p)``."""
    return fold(t, lambda p: Leaf(f(p)), lambda n, children: Node(n.op, children))


# --- the free extension of the composite law ----------------------------------

def law_star(spec, t):
    """Free extension of the composite law to terms over behaviour leaves.

    Leaves are (payload, behaviour) pairs; a leaf contributes its behaviour
    with successors wrapped as leaf terms, a node runs ``bar_rho_step`` on
    its children's recursive results and grafts the two term layers flat.
    """
    if isinstance(t, Leaf):
        x, behaviour = t.payload
        return fs_map(lambda e: belem_map(e, Leaf), behaviour)
    pairs = []
    for child in t.children:
        projected = map_leaves(child, lambda p: p[0])
        pairs.append((projected, law_star(spec, child)))
    stepped = bar_rho_step(spec, t.op, pairs)
    return fs_map(lambda e: belem_map(e, graft), stepped)


def two_level_oracle(spec, op, left_pair, inner_op, inner_pairs):
    """Hand composition for op(leaf, inner_op(leaves)): run the one-step law
    on the inner node, lift the outer carrier to terms, run it again, then
    graft the nested successor terms flat."""
    inner_behaviour = bar_rho_step(spec, inner_op, inner_pairs)
    inner_elem = Node(inner_op, [Leaf(x) for x, _ in inner_pairs])

    x, b = left_pair
    lifted = fs_map(lambda e: belem_map(e, Leaf), b)
    outer = bar_rho_step(
        spec, op, [(Leaf(x), lifted), (inner_elem, inner_behaviour)]
    )
    return fs_map(lambda e: belem_map(e, graft), outer)


# --- closed-term counting ---------------------------------------------------

def count_closed_terms(signature, size):
    """Number of closed terms with exactly `size` nodes, by direct recursion."""
    memo = {}

    def terms_of(n):
        if n in memo:
            return memo[n]
        total = 0
        for name in signature.names():
            k = signature.arity(name)
            total += tuples_of(k, n - 1)
        memo[n] = total
        return total

    def tuples_of(k, budget):
        if k == 0:
            return 1 if budget == 0 else 0
        if budget < k:
            return 0
        return sum(
            terms_of(first) * tuples_of(k - 1, budget - first)
            for first in range(1, budget - k + 2)
        )

    return terms_of(size) if size >= 1 else 0


def term_key(t, signature):
    """The enumeration order as a sort key: size first, then operator
    declaration order, then the children's keys left to right."""
    children = tuple(term_key(c, signature) for c in t.children)
    size = 1 + sum(key[0] for key in children)
    return (size, signature.names().index(t.op), children)


# --- rule-format recheck ----------------------------------------------------

def recheck_conditions(dialect, rule):
    """Re-derive the format conditions a rule violates, from scratch.

    Returns the set of condition names; compared verbatim against the
    validator's output in the tests.
    """
    found = set()
    indices = [p.index for p in rule.premises]
    if len(indices) != len(set(indices)):
        found.add("distinct-premise-sources")
    if any(not 1 <= i <= rule.arity for i in indices):
        found.add("premise-source-range")
    trans = {p.index for p in rule.premises if isinstance(p, TransPremise)}
    terms = {p.index for p in rule.premises if isinstance(p, TermPremise)}
    if dialect == "desimone" and terms:
        found.add("dialect-term-premise")
    if rule.target is None:
        if rule.label is not None:
            found.add("labelled-termination")
        elif dialect == "desimone":
            found.add("dialect-termination")
    else:
        occurrences = list(term_vars(rule.target))
        if len(occurrences) != len(set(occurrences)):
            found.add("affine-target")
        for v in set(occurrences):
            if v.kind == "y":
                if v.index not in trans:
                    found.add("target-vars")
            elif not 1 <= v.index <= rule.arity or v.index in trans or v.index in terms:
                found.add("target-vars")
    if dialect == "weighted" and rule.weight is INF:
        found.add("weight-inf")
    return found


# --- partial words by graph search ------------------------------------------

def boolean_partial_words(spec, term, max_len):
    """All label words of length <= max_len along some path from `term`.

    Plain breadth-first search over the step relation; boolean dialect only.
    """
    assert spec.dialect == "desimone"
    words = {()}
    frontier = {(): {term}}
    for _ in range(max_len):
        nxt = {}
        for word, states in frontier.items():
            for t in states:
                for e in step(spec, t).payloads():
                    if e is STOP:
                        continue
                    nxt.setdefault(word + (e.label,), set()).add(e.target)
        if not nxt:
            break
        words |= set(nxt)
        frontier = nxt
    return frozenset(words)


# --- the trace functional, one application --------------------------------

def trace_functional(spec, table, term):
    """One application of the trace transformer at ``term``.

    ``table`` maps terms to trace tables (absent terms mean the empty
    table). The result gives each word ``(a,) + w`` the step-weighted mass
    of ``w`` at the successor, plus the termination weight on the empty word.
    """
    sr = spec.semiring
    entries = []
    for e, w in step(spec, term).items():
        if e is STOP:
            entries.append(((), w))
            continue
        succ_table = table.get(e.target)
        if succ_table is None:
            continue
        for word, mass in succ_table.items():
            entries.append(((e.label,) + word, sr.mul(w, mass)))
    return FormalSum(sr, entries)


# --- fingerprints and buckets, one term at a time ----------------------------

def fingerprint(spec, t, depth):
    """The completed table at ``depth`` with the partial-word table below
    it: everything a depth-bounded context sees."""
    return trace_bounded(spec, t, depth), partial_trace_bounded(spec, t, depth - 1)


def observably_equiv_bounded(spec, t, s, depth):
    """Bounded trace equivalence refined with partial-trace agreement."""
    return fingerprint(spec, t, depth) == fingerprint(spec, s, depth)


def per_term_buckets(spec, size_bound, depth):
    """Enumerated closed terms grouped by fingerprint, every term tabled.

    Returns ``[(fingerprint, members)]``, buckets in enumeration order of
    their first member, members in enumeration order.
    """
    buckets = {}
    for t in enumerate_closed_terms(spec.signature, size_bound):
        buckets.setdefault(fingerprint(spec, t, depth), []).append(t)
    return list(buckets.items())


# --- bisimulation by signature rounds ----------------------------------------

def round_based_bisimulation(spec, terms, max_states=200000):
    """Signature refinement on terms, reading each state's behaviour anew
    every round: {term: dense block id}, numbered in walk order."""
    sr = spec.semiring
    walk = explore(spec, terms, -1, max_states)
    assert walk.closed
    current = dict.fromkeys(walk.order, 0)
    blocks = 1
    while True:
        ids = {}
        refined = {}
        for t, behaviour in walk.behaviours.items():
            agg = {}
            for e, w in behaviour.items():
                if e is not STOP:
                    key = (e.label, current[e.target])
                    agg[key] = sr.add(agg.get(key, sr.zero), w)
            sig = (current[t], behaviour.weight(STOP), frozenset(agg.items()))
            refined[t] = ids.setdefault(sig, len(ids))
        if len(ids) == blocks:
            return refined
        current, blocks = refined, len(ids)


# --- bisimulation up to a depth, by nested signatures -----------------------

def bounded_signatures(spec, terms, depth):
    """``sig(t, depth)`` for each term, straight from the definition:
    ``sig(t, k)`` is the stop weight and the summed weight of each
    ``(label, sig(target, k - 1))``, and ``sig(t, 0) = ()``. Two terms are
    ``depth``-step bisimilar exactly when their signatures are equal."""
    sr = spec.semiring
    memo = {}

    def sig(t, k):
        if k == 0:
            return ()
        if (t, k) not in memo:
            behaviour = step(spec, t)
            agg = {}
            for e, w in behaviour.items():
                if e is not STOP:
                    key = (e.label, sig(e.target, k - 1))
                    agg[key] = sr.add(agg.get(key, sr.zero), w)
            memo[t, k] = (behaviour.weight(STOP), frozenset(agg.items()))
        return memo[t, k]

    return [sig(t, depth) for t in terms]


# --- coarsest bisimulation by exhaustion -------------------------------------

def _partitions(items):
    """Every partition of `items`, as tuples of blocks (restricted growth)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] + (first,),) + sub[i + 1:]
        yield sub + ((first,),)


def _stable(spec, blocks):
    """Is every block signature-uniform with respect to this very partition?"""
    block_of = {t: i for i, b in enumerate(blocks) for t in b}

    def sig(t):
        stop = spec.semiring.zero
        agg = {}
        for e, w in step(spec, t).items():
            if e is STOP:
                stop = w
            else:
                key = (e.label, block_of[e.target])
                agg[key] = spec.semiring.add(agg.get(key, spec.semiring.zero), w)
        return stop, tuple(sorted(agg.items()))

    return all(len({sig(t) for t in b}) == 1 for b in blocks)


def coarsest_bisimulation(spec, terms):
    """The fewest-blocks self-stable partition of `terms` and their closure.

    Found by trying every partition of the reachable set, so only usable on
    a handful of states. Returns a frozenset of frozenset blocks.
    """
    world = list(dict.fromkeys(terms))
    i = 0
    while i < len(world):
        for e in step(spec, world[i]).payloads():
            if isinstance(e, Step) and e.target not in world:
                world.append(e.target)
        i += 1
    assert len(world) <= 10, "exhaustive partition search needs a tiny state space"
    best = None
    for blocks in _partitions(tuple(world)):
        if best is not None and len(blocks) >= len(best):
            continue
        if _stable(spec, blocks):
            best = blocks
    return frozenset(frozenset(b) for b in best)


# --- reachability -----------------------------------------------------------

def reachable(spec, term, depth):
    """The set of terms visitable in at most `depth` transitions."""
    return set(explore(spec, [term], depth - 1, 0).order)


# --- contexts ---------------------------------------------------------------

def plug(context_term, t):
    """The context term with its hole replaced by t, every node rebuilt."""
    if isinstance(context_term, Leaf):
        assert context_term.payload is HOLE
        return t
    return Node(context_term.op, [plug(c, t) for c in context_term.children])


def unguarded_search(spec, size_bound, depth, extra_contexts=100, seed=0):
    """``counterexample_search`` with no context guard: each bucket's
    representatives are all split, in bucket order, by every context,
    hole-blind ones included, depth-1 layer first."""
    buckets = fingerprint_buckets(spec, size_bound, depth)
    if all(len(reps) < 2 for _, _, reps in buckets):
        return None
    depth1_arity = sum(spec.signature.arity(op) for op in spec.signature.names())
    count = depth1_arity + extra_contexts
    contexts = generate_contexts(spec, count, size_bound, seed) if count else []
    for _, _, reps in buckets:
        if len(reps) < 2:
            continue
        for i, context in enumerate(contexts):
            v = _split_violation(spec, reps, context, depth, i >= depth1_arity)
            if v is not None:
                return v
    return None


# --- exact chain arithmetic --------------------------------------------------

def chain_completed_mass(stop_weights, go_weights, length):
    """Termination mass within `length` steps of a linear chain.

    State i stops with stop_weights[i] and advances with go_weights[i];
    mass = sum over n < length of (prod of the first n go weights) * stop[n].
    """
    total = Fraction(0)
    prefix = Fraction(1)
    for n in range(length):
        total += prefix * stop_weights[n]
        if n < len(go_weights):
            prefix *= go_weights[n]
    return total


# --- random format-valid specs ----------------------------------------------

SPEC_WEIGHTS = ("1/4", "1/3", "1/2", "1")
SPEC_LABELS = ("a", "b")


# ways to split 1 among an operator's rules in the normalised family
NORMALISED_SPLITS = (("1",), ("1/2", "1/2"), ("1/4", "1/4", "1/2"), ("1/3", "1/3", "1/3"))


def random_valid_spec(rng, normalised=False, copying=False):
    """Text of a random spec inside the format, drawn from ``rng``.

    Two to four operators, the first a constant so that closed terms exist,
    the others of arity 0-2, with 0-2 rules each. Each argument of a rule
    gets a transition premise, a termination premise (weighted dialect
    only) or none. Targets are affine over the unpremised ``x``s and the
    premised ``y``s, and at most two operators deep, which bounds every
    target at seven nodes. Weighted rules weigh 1/4, 1/3, 1/2 or 1, and a
    quarter of them conclude ``-> *``.

    ``normalised`` draws the paper's probabilistic format instead: weighted
    specs whose every closed term has step mass 1. Each operator splits 1
    into the parts of one of ``NORMALISED_SPLITS``, and each part of weight
    ``w`` is a premise-free rule of weight ``w``, or, for one argument
    ``i``, the pair ``-@l[w]-> T when xi -@l-> yi forall @l`` and
    ``-[w]-> * when xi -> *``, which passes on ``w`` times the argument's
    mass of 1.

    ``copying`` draws specs just outside the format instead, shaped like
    ``copy_nonaffine``; see ``_copying_spec``.
    """
    if copying:
        return _copying_spec(rng)
    weighted = normalised or rng.random() < 0.5
    ops = [("k0", 0)] + [
        (f"f{i}", rng.randint(0, 2)) for i in range(1, rng.randint(2, 4))
    ]
    lines = _spec_header(weighted, ops)
    for name, arity in ops:
        if normalised:
            for weight in rng.choice(NORMALISED_SPLITS):
                lines += _normalised_part(rng, ops, name, arity, weight)
            continue
        for _ in range(rng.randint(0, 2)):
            lines.append(_random_rule(rng, ops, name, arity, weighted))
    return "\n".join(lines) + "\n"


def _spec_header(weighted, ops):
    """The dialect, semiring, label and operator lines of a random spec."""
    if weighted:
        lines = ["dialect weighted", "semiring rational"]
    else:
        lines = ["dialect desimone", "semiring boolean"]
    lines.append("labels " + ", ".join(SPEC_LABELS))
    return lines + [f"op {name} : {arity}" for name, arity in ops]


def _copying_spec(rng):
    """A spec whose one non-affine rule, ``cp(x1) -l-> tst(y1, y1) when
    x1 -l-> y1``, copies a successor into both positions of ``tst``, whose
    rule then tests the first position with one label and the second with
    the other. A constant ``e<m>`` stepping ``m`` to ``k0`` per label ``m``,
    a prefix ``p`` stepping ``l`` and a choice ``plus`` build the
    trace-equivalent pair ``p(plus(ea, eb))`` and ``plus(p(ea), p(eb))``,
    which ``cp`` splits. In weighted specs ``k0`` stops and ``plus`` weighs
    each side 1/2, so the pair also agrees on partial traces. Zero to two
    random format-valid rules follow, which may break the pair or split
    another.
    """
    weighted = rng.random() < 0.5
    w = (lambda: f"[{rng.choice(SPEC_WEIGHTS)}]") if weighted else (lambda: "")
    half = "[1/2]" if weighted else ""
    ops = [("k0", 0)] + [(f"e{m}", 0) for m in SPEC_LABELS]
    ops += [("p", 1), ("plus", 2), ("cp", 1), ("tst", 2)]
    lines = _spec_header(weighted, ops)
    if weighted:
        lines.append(f"rule k0 -{w()}-> *")
    lines += [f"rule e{m} -{m}{w()}-> k0" for m in SPEC_LABELS]
    lines += [
        f"rule plus(x1, x2) -@l{half}-> y{i} when x{i} -@l-> y{i} forall @l"
        for i in (1, 2)
    ]
    copied = rng.choice(SPEC_LABELS)
    first, second = rng.sample(SPEC_LABELS, 2)
    lines += [
        f"rule p(x1) -{copied}{w()}-> x1",
        f"rule cp(x1) -{copied}{w()}-> tst(y1, y1) when x1 -{copied}-> y1",
        f"rule tst(x1, x2) -{rng.choice(SPEC_LABELS)}{w()}-> k0 "
        f"when x1 -{first}-> y1, x2 -{second}-> y2",
    ]
    for _ in range(rng.randint(0, 2)):
        name, arity = rng.choice(ops)
        lines.append(_random_rule(rng, ops, name, arity, weighted))
    return "\n".join(lines) + "\n"


def _normalised_part(rng, ops, name, arity, weight):
    """The rules of one part of weight ``weight``; see ``random_valid_spec``."""
    xs = [f"x{i}" for i in range(1, arity + 1)]
    head = f"{name}({', '.join(xs)})" if arity else name
    if not arity or rng.random() < 0.5:
        if rng.random() < 0.25:
            return [f"rule {head} -[{weight}]-> *"]
        rng.shuffle(xs)
        target = _random_target(rng, ops, xs, 2)
        return [f"rule {head} -{rng.choice(SPEC_LABELS)}[{weight}]-> {target}"]
    i = rng.randint(1, arity)
    free = [x for x in xs if x != f"x{i}"] + [f"y{i}"]
    rng.shuffle(free)
    target = _random_target(rng, ops, free, 2)
    return [
        f"rule {head} -@l[{weight}]-> {target} when x{i} -@l-> y{i} forall @l",
        f"rule {head} -[{weight}]-> * when x{i} -> *",
    ]


def _random_rule(rng, ops, name, arity, weighted):
    xs = [f"x{i}" for i in range(1, arity + 1)]
    head = f"{name}({', '.join(xs)})" if arity else name
    premises, free = [], []
    for i, x in enumerate(xs, start=1):
        kind = rng.choice(("step", "stop", "none") if weighted else ("step", "none"))
        if kind == "step":
            premises.append(f"{x} -{rng.choice(SPEC_LABELS)}-> y{i}")
            free.append(f"y{i}")
        elif kind == "stop":
            premises.append(f"{x} -> *")
        else:
            free.append(x)
    weight = f"[{rng.choice(SPEC_WEIGHTS)}]" if weighted else ""
    if weighted and rng.random() < 0.25:
        conclusion = f"-{weight}-> *"
    else:
        rng.shuffle(free)
        target = _random_target(rng, ops, free, 2)
        conclusion = f"-{rng.choice(SPEC_LABELS)}{weight}-> {target}"
    when = " when " + ", ".join(premises) if premises else ""
    return f"rule {head} {conclusion}{when}"


def _random_target(rng, ops, free, depth):
    """A term at most ``depth`` operators deep that takes each of its
    variables off ``free``, so none occurs twice."""
    if free and (depth == 0 or rng.random() < 0.5):
        return free.pop()
    name, arity = rng.choice(ops if depth else [op for op in ops if op[1] == 0])
    if not arity:
        return name
    children = [_random_target(rng, ops, free, depth - 1) for _ in range(arity)]
    return f"{name}({', '.join(children)})"
