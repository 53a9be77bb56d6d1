"""Bounded trace equivalence and empirical congruence testing.

Congruence failures are what the affineness condition is about: two terms
with equal bounded trace tables whose tables split under some one-hole
context. ``counterexample_search`` is the congruence check. It quotients
first, by bisimilarity up to the table depth: a depth-``d`` table observes
only ``d`` steps, and ``d``-step bisimilarity is preserved by every context
for ``d`` steps under any GSOS law, copying ones included (the stepwise
congruence proof of Bloom, Istrail and Meyer, J. ACM 1995). So the closed
terms are quotiented size by size without being listed: they are counted
per key, an operator and a tuple of child blocks, and only the first term
of each new key is built and stepped, no deeper than the tables look. That
gives one trace fingerprint per block, and buckets of equal fingerprints,
each with its term count and its block representatives, which are split
by contexts: the depth-1 layer, then seeded random one-hole terms marked
``sampled``, each carrying the path to its hole, all made by one
``generate_contexts`` call, which draws each host by its index in the
enumeration and rebuilds it from the counts, and builds no depth-1
context of a rule-less operator too wide for a sampled context. By the
same argument, a context that first steps its hole ``g`` steps in splits
only one representative per block of bisimilarity up to ``depth - g``.
Buckets go in enumeration order, so the first reported violation is
deterministic, and it is verified on the two composites it was found in:
the path-sum oracle ``trace_direct`` recomputes the word's weight in each.
With no bucket of two representatives there is nothing to split, and the
search answers before it builds a context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formalsum import STOP, payload_key
from .opmodel import explore
from .terms import (
    HOLE,
    Leaf,
    Node,
    closed_term_at,
    closed_term_classes,
    enumeration_counts,
    fold,
    print_term,
)
from .trace import (
    partial_trace_bounded,
    trace_bounded,
    trace_bounded_once,
    trace_direct,
    word_to_str,
)


@dataclass(frozen=True)
class Context:
    """A term with one hole leaf, at ``path`` (child positions from the root),
    and whether it was sampled beyond the depth-1 layer (not compared)."""

    term: object
    path: tuple
    sampled: bool = field(default=False, compare=False)

    def __post_init__(self):
        leaf = self.term
        for i in self.path:
            if not isinstance(leaf, Node) or not 0 <= i < len(leaf.children):
                raise ValueError(f"context path {self.path} leaves the term")
            leaf = leaf.children[i]
        if leaf != Leaf(HOLE):
            raise ValueError(f"context has {leaf!r}, not a hole, at {self.path}")

    def apply(self, t):
        """The context with ``t`` in its hole.

        Only the nodes from the root down to the hole are rebuilt; every
        subterm off that path is shared with ``term``.
        """
        return _replace_at(self.term, self.path, t)

    def show(self):
        return print_term(self.term)


def first_difference(spec, t, s, depth):
    """Length-lex first word whose weights differ, with both weights."""
    return _first_table_difference(
        trace_bounded(spec, t, depth), trace_bounded(spec, s, depth)
    )


def _first_table_difference(a, b):
    """Length-lex first word weighted differently by two tables, with both
    weights; None when the tables are equal."""
    if a == b:
        return None
    words = set(a.payloads()) | set(b.payloads())
    w = min((w for w in words if a.weight(w) != b.weight(w)), key=payload_key)
    return w, a.weight(w), b.weight(w)


MAX_CONTEXT_SLOTS = 120_000_000


def generate_contexts(spec, extra, max_size, seed):
    """The depth-1 layer (every operator, every hole position, remaining
    slots filled with the least closed term), then up to ``extra`` distinct
    seeded random one-hole contexts up to the size bound, marked
    ``sampled``. An operator with no rules and an arity of at least
    ``max_size`` gets no depth-1 context: none would step its hole or could
    equal a sampled context. The draw budget, ``50 * (Σ arity + extra)``,
    still counts those contexts, so every draw is as with them built. More
    than ``MAX_CONTEXT_SLOTS`` built argument slots are refused
    (``ValueError``). No term is listed: a host is drawn by its index among
    the closed terms of sizes 2 .. ``max_size``, by the draw ``rng.choice``
    of their listing takes, and rebuilt by ``closed_term_at``, as is the
    filler, index 0."""
    if extra < 0:
        raise ValueError("context count must be >= 0")
    sig = spec.signature
    built = [op for op in sig.names() if sig.arity(op) < max_size or spec.rules_for(op)]
    slots = sum(sig.arity(op) ** 2 for op in built)
    if slots > MAX_CONTEXT_SLOTS:
        raise ValueError(
            f"the depth-1 context layer needs {slots:,} argument slots, "
            f"more than {MAX_CONTEXT_SLOTS:,}"
        )
    counts, rows = enumeration_counts(sig, max(max_size, 1))
    if not sum(counts):
        raise ValueError("signature has no closed terms to fill context slots")
    filler = closed_term_at(sig, counts, rows, 0)

    contexts = []
    seen = set()

    def add(term, path, sampled):
        if term not in seen:
            seen.add(term)
            contexts.append(Context(term, path, sampled))

    hole = Leaf(HOLE)
    for op in built:
        arity = sig.arity(op)
        for position in range(arity):
            children = [filler] * arity
            children[position] = hole
            add(Node(op, children), (position,), False)

    rng = random.Random(seed)
    hosts = sum(counts[2:])  # after the counts[1] terms of size 1
    # once every (host, non-root path) pair is drawn, no context can be new
    pairs = sum(n * (size - 1) for size, n in enumerate(counts))
    wanted = len(contexts) + extra
    budget = 50 * (sum(sig.arity(op) for op in sig.names()) + extra)
    drawn = set()
    attempts = 0
    while len(contexts) < wanted and len(drawn) < pairs and attempts < budget:
        attempts += 1
        host = closed_term_at(sig, counts, rows, counts[1] + rng.randrange(hosts))
        path = rng.choice([p for p in _node_paths(host) if p])
        drawn.add((host, path))
        add(_replace_at(host, path, hole), path, True)
    return contexts


def _node_paths(t):
    """The path to every node of ``t`` in pre-order, the root's ``()`` first."""
    return fold(t, lambda _: [()], lambda n, below: [()] + [
        (i,) + p for i, paths in enumerate(below) for p in paths])


def _replace_at(t, path, replacement):
    spine = []  # the nodes from the root down to the one above the hole
    for i in path:
        spine.append(t)
        t = t.children[i]
    for node, i in zip(reversed(spine), reversed(path)):
        children = list(node.children)
        children[i] = replacement
        replacement = Node(node.op, children)
    return replacement


@dataclass
class CongruenceViolation:
    left: object
    right: object
    context: Context
    word: tuple
    left_weight: object
    right_weight: object
    verified: bool

    def describe(self, spec):
        return {
            "pair": [print_term(self.left), print_term(self.right)],
            "context": self.context.show(),
            "word": word_to_str(self.word, spec.labels),
            "left_weight": spec.semiring.show(self.left_weight),
            "right_weight": spec.semiring.show(self.right_weight),
            "verified": self.verified,
            "deep_context": self.context.sampled,
        }


def _split_violation(spec, members, context, depth):
    """First pair of members whose composites' tables differ under context.

    The first member is the base; later members' tables are built only up to
    the first one that differs from it. No later check asks for a composite
    again, so each leaves the memos once it is tabled.
    """
    base = context.apply(members[0])
    table = trace_bounded_once(spec, base, depth)
    for t in members[1:]:
        composite = context.apply(t)
        diff = _first_table_difference(table, trace_bounded_once(spec, composite, depth))
        if diff is not None:
            word, wl, wr = diff
            a, b = (trace_direct(spec, c, depth - 1) for c in (base, composite))
            return CongruenceViolation(
                left=members[0],
                right=t,
                context=context,
                word=word,
                left_weight=wl,
                right_weight=wr,
                verified=(a.weight(word), b.weight(word)) == (wl, wr),
            )
    return None


def bisim_partition(spec, terms, depth):
    """Partition terms, and what they reach, by bisimilarity up to ``depth``.

    ``k``-step bisimilar states stop with the same weight and, per label,
    move with the same summed weight into each ``(k - 1)``-step class; all
    states are 0-step bisimilar. The walk steps each state within ``depth -
    1`` steps of a root once and indexes it (a stop weight and ``(label,
    target index, weight)`` edges), so refinement rounds work on integers.
    States past the horizon are not stepped and keep one fixed signature.
    At most ``depth`` rounds run, fewer once the block count is stable, so
    the roots are classified exactly up to ``depth`` steps; a reachable
    space of at most ``depth`` states gets full bisimilarity. The depth
    bounds the walk, so there is no state cap, even on an infinite space.

    Returns {term: block id}, dense ids numbered in walk order, so
    deterministic for a fixed input order.
    """
    add = spec.semiring.add
    walk = explore(spec, terms, depth - 1, 0)
    index = {t: i for i, t in enumerate(walk.order)}
    moves = [walk.behaviours.get(t) for t in walk.order]  # None past the horizon
    stops = [None if b is None else b.weight(STOP) for b in moves]
    edges = [
        () if b is None else
        [(e.label, index[e.target], w) for e, w in b.items() if e is not STOP]
        for b in moves
    ]
    current, blocks = [0] * len(edges), 1
    for _ in range(depth):
        ids = {}
        refined = []
        for i, out in enumerate(edges):
            agg = {}
            for label, j, w in out:
                key = (label, current[j])
                seen = agg.get(key)
                agg[key] = w if seen is None else add(seen, w)
            sig = (current[i], stops[i], frozenset(agg.items()))
            refined.append(ids.setdefault(sig, len(ids)))
        if len(ids) == blocks:
            break
        current, blocks = refined, len(ids)
    return dict(zip(walk.order, current))


def _quotient(spec, size_bound, depth):
    """Per size up to ``size_bound``, ``{block: (count, first member)}`` of
    the closed terms' blocks of bisimilarity up to ``depth``, in order of
    first member. That is a congruence, so a term's block follows from its
    key ``(op, child blocks)``, and the terms are counted, not listed: per
    size, one ``bisim_partition`` places the first term of each new key
    among the first members of the known blocks."""
    firsts = []  # firsts[b]: the first member of block b

    def classify(fresh):
        # roots are numbered first, in order, so known blocks keep their ids
        partition = bisim_partition(spec, firsts + list(fresh.values()), depth)
        for t in fresh.values():
            if partition[t] == len(firsts):
                firsts.append(t)
        return [partition[t] for t in fresh.values()]

    return list(closed_term_classes(spec.signature, size_bound, classify))


def fingerprint_buckets(spec, size_bound, depth):
    """Group the closed terms up to ``size_bound`` by what bounded contexts
    can observe.

    Returns ``[(fingerprint, count, representatives)]`` in enumeration order
    of first members: ``count`` closed terms have the fingerprint, and the
    representatives are the first member of each ``_quotient`` block among
    them. The fingerprint is everything a depth-bounded context can observe:
    a context word of length < ``depth`` exposes the plugged term's
    completed traces and its partial words up to that length, so it is the
    completed table at ``depth`` with the partial table below it (pairs
    equal only on the completed table can still split under a context that
    interleaves termination). Both are functions of a term's ``depth``-step
    bisimulation class, so the quotient comes first and each block is
    fingerprinted once, after ``closed_term_classes`` applies the bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    blocks = {}  # block -> [count, first member], in order of first member
    for size in _quotient(spec, size_bound, depth):
        for block, (n, first) in size.items():
            blocks.setdefault(block, [0, first])[0] += n
    buckets = {}  # fingerprint -> [fingerprint, count, representatives]
    for n, t in blocks.values():
        fp = trace_bounded(spec, t, depth), partial_trace_bounded(spec, t, depth - 1)
        bucket = buckets.setdefault(fp, [fp, 0, []])
        bucket[1] += n
        bucket[2].append(t)
    return [tuple(bucket) for bucket in buckets.values()]


def counterexample_search(
    spec, size_bound, depth, extra_contexts=100, seed=0, buckets=None
):
    """First congruence violation among enumerated trace-equivalent terms.

    Each bucket's representatives are split, in bucket order. Whether a
    context splits a member from the bucket's first member depends only on
    the member's ``depth``-step bisimulation class, so the first
    representative that splits is the first member that splits: the
    reported pair is the one tabling every member would report. Within a
    bucket the depth-1 context layer is tried before the sampled ones.
    ``buckets``, when given, must be ``fingerprint_buckets(spec, size_bound,
    depth)``, already computed.

    A context that steps its hole no sooner than ``g`` steps in (its
    guard) sees a plugged term only through its ``(depth - g)``-step
    class, and bisimilarity up to any bound is a congruence for GSOS laws,
    copying ones included (Bloom, Istrail and Meyer, J. ACM 1995). So each
    check splits only the first representative of each block of
    bisimilarity up to ``depth - g``: a skipped one shares the class of the
    base or of an earlier one that did not split, and the reported pair is
    unchanged. At ``g == depth`` one representative is left, and the check
    is skipped.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if extra_contexts < 0:
        raise ValueError("extra_contexts must be >= 0")
    if buckets is None:
        buckets = fingerprint_buckets(spec, size_bound, depth)
    if all(len(reps) < 2 for _, _, reps in buckets):
        return None
    contexts = generate_contexts(spec, extra_contexts, size_bound, seed)
    guarded = [(c, _hole_guard(spec, c, depth)) for c in contexts]
    for _, _, reps in buckets:
        if len(reps) < 2:
            continue
        # guard -> the first representative of each (depth - guard)-block
        kept = {0: reps, depth: reps[:1]}
        for context, g in guarded:
            if g not in kept:
                blocks = bisim_partition(spec, reps, depth - g)
                firsts = {}
                for r in reps:
                    firsts.setdefault(blocks[r], r)
                kept[g] = list(firsts.values())
            if len(kept[g]) > 1:
                v = _split_violation(spec, kept[g], context, depth)
                if v is not None:
                    return v
    return None


def _hole_guard(spec, context, depth):
    """The fewest steps, at most ``depth``, from the unplugged context to a
    state that ``step`` refuses: it steps only premised arguments and
    refuses a leaf, here the hole, with ``TypeError``. Within that many
    steps a plugged term is only substituted for the hole, and changes no
    move. ``explore`` to horizon ``d`` steps every state within ``d`` steps,
    so the first ``d`` at which it raises is that distance."""
    for d in range(depth):
        try:
            explore(spec, [context.term], d, 0)
        except TypeError:
            return d
    return depth
