"""Bounded trace equivalence and empirical congruence testing.

Congruence failures are what the affineness condition is about: two terms
with equal bounded trace tables whose tables split under some one-hole
context. ``counterexample_search`` is the congruence check. It quotients
first, by bisimilarity up to the table depth: a depth-``d`` table observes
only ``d`` steps, and ``d``-step bisimilarity is preserved by every context
for ``d`` steps under any GSOS law, copying ones included (the stepwise
congruence proof of Bloom, Istrail and Meyer, J. ACM 1995). So the
enumeration is quotiented size by size, stepping one term per operator and
tuple of child blocks, and no deeper than the tables look. That gives one
trace fingerprint per block, and buckets of equal fingerprints whose block
representatives are split by contexts: the complete depth-1 layer, then
seeded random one-hole terms, each carrying the path to its hole. By the
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
from dataclasses import dataclass
from itertools import groupby

from .formalsum import STOP, payload_key
from .opmodel import explore
from .terms import (
    HOLE,
    Leaf,
    Node,
    enumerate_closed_terms,
    fold,
    print_term,
)
from .trace import (
    partial_trace_bounded,
    trace_bounded,
    trace_direct,
    word_to_str,
)


@dataclass(frozen=True)
class Context:
    """A term with one hole leaf, at ``path`` (child positions from the root)."""

    term: object
    path: tuple

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
    words = sorted(set(a.payloads()) | set(b.payloads()), key=payload_key)
    for w in words:
        if a.weight(w) != b.weight(w):
            return w, a.weight(w), b.weight(w)
    return None


MAX_CONTEXT_SLOTS = 120_000_000


def generate_contexts(spec, count, max_size, seed):
    """Depth-1 contexts first (every operator, every hole position, remaining
    slots filled with the least closed term), then distinct seeded random
    one-hole contexts up to the size bound. A depth-1 layer of more than
    ``MAX_CONTEXT_SLOTS`` argument slots is refused with ``ValueError``."""
    return _contexts(spec, count, max_size, seed, ())


def _contexts(spec, count, max_size, seed, unbuilt):
    """``generate_contexts``, with None in place of each depth-1 context of
    an operator in ``unbuilt``, so every other context keeps its index. Each
    such operator needs an arity of at least ``max_size``: it then has no
    closed term up to that size, so no sampled context equals one of its
    depth-1 contexts, and the draws are deduplicated as with them built."""
    if count < 1:
        raise ValueError("context count must be at least 1")
    sig = spec.signature
    slots = sum(sig.arity(op) ** 2 for op in sig.names())
    if slots > MAX_CONTEXT_SLOTS:
        raise ValueError(
            f"the depth-1 context layer needs {slots:,} argument slots, "
            f"more than {MAX_CONTEXT_SLOTS:,}"
        )
    filler_pool = list(enumerate_closed_terms(sig, max(max_size, 1)))
    if not filler_pool:
        raise ValueError("signature has no closed terms to fill context slots")
    filler = filler_pool[0]

    contexts = []
    seen = set()

    def add(term, path):
        if term not in seen:
            seen.add(term)
            contexts.append(Context(term, path))

    hole = Leaf(HOLE)
    for op in sig.names():
        arity = sig.arity(op)
        if op in unbuilt:
            contexts.extend([None] * arity)
            continue
        for position in range(arity):
            children = [filler] * arity
            children[position] = hole
            add(Node(op, children), (position,))

    rng = random.Random(seed)
    hosts = [t for t in filler_pool if t.size >= 2]
    # once every (host, non-root path) pair is drawn, no context can be new
    pairs = sum(t.size - 1 for t in hosts)
    drawn = set()
    attempts = 0
    while len(contexts) < count and len(drawn) < pairs and attempts < 50 * count:
        attempts += 1
        host = rng.choice(hosts)
        path = rng.choice([p for p in _node_paths(host) if p])
        drawn.add((host, path))
        add(_replace_at(host, path, hole), path)
    return contexts[:count] if len(contexts) > count else contexts


def _node_paths(t):
    """The path to every node of ``t`` in pre-order, the root's ``()`` first."""
    return fold(t, lambda _: [()], lambda n, below: [()] + [
        (i,) + p for i, paths in enumerate(below) for p in paths])


def _replace_at(t, path, replacement):
    if not path:
        return replacement
    i, rest = path[0], path[1:]
    children = list(t.children)
    children[i] = _replace_at(children[i], rest, replacement)
    return Node(t.op, children)


@dataclass
class CongruenceViolation:
    left: object
    right: object
    context: Context
    word: tuple
    left_weight: object
    right_weight: object
    verified: bool = False
    deep_context: bool = False  # split found beyond the depth-1 layer only

    def describe(self, spec):
        return {
            "pair": [print_term(self.left), print_term(self.right)],
            "context": self.context.show(),
            "word": word_to_str(self.word, spec.labels),
            "left_weight": spec.semiring.show(self.left_weight),
            "right_weight": spec.semiring.show(self.right_weight),
            "verified": self.verified,
            "deep_context": self.deep_context,
        }


def _split_violation(spec, members, context, depth, depth1_clean):
    """First pair of members whose composites' tables differ under context.

    The first member is the base; later members' tables are built only up to
    the first one that differs from it.
    """
    base = context.apply(members[0])
    table = trace_bounded(spec, base, depth)
    for t in members[1:]:
        composite = context.apply(t)
        diff = _first_table_difference(table, trace_bounded(spec, composite, depth))
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
                deep_context=depth1_clean,
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


def bisim_blocks(spec, size_bound, depth):
    """The enumerated closed terms, in order, each with its block of
    bisimilarity up to ``depth``. That is a congruence, so a term's block
    follows from its key ``(op, child blocks)``: per size, one
    ``bisim_partition`` places the first term of each new key among the
    first members of the known blocks."""
    blocks, key_blocks, firsts = {}, {}, []
    sizes = groupby(enumerate_closed_terms(spec.signature, size_bound), lambda t: t.size)
    for _, terms in sizes:
        terms = list(terms)
        keys = [(t.op, tuple(blocks[c] for c in t.children)) for t in terms]
        fresh = {}  # new key -> its first term
        for key, t in zip(keys, terms):
            if key not in key_blocks:
                fresh.setdefault(key, t)
        # roots are numbered first, in order, so known blocks keep their ids
        partition = bisim_partition(spec, firsts + list(fresh.values()), depth)
        for key, t in fresh.items():
            key_blocks[key] = partition[t]
            if partition[t] == len(firsts):
                firsts.append(t)
        blocks.update(zip(terms, [key_blocks[key] for key in keys]))
    return blocks


def fingerprint_buckets(spec, size_bound, depth):
    """Group enumerated closed terms by what bounded contexts can observe.

    Returns ``[(fingerprint, members, representatives)]`` in enumeration
    order of first members; the representatives are the first member of each
    ``bisim_blocks`` block in the bucket. The fingerprint is everything a
    depth-bounded context can observe: a context word of length < ``depth``
    exposes the plugged term's completed traces and its partial words up to
    that length, so it is the completed table at ``depth`` with the partial
    table below it (pairs equal only on the completed table can still split
    under a context that interleaves termination). Both are functions of a
    term's ``depth``-step bisimulation class, so the quotient comes first
    and each block is fingerprinted once.
    """
    buckets = {}  # fingerprint -> (fingerprint, members, representatives)
    bucket_of = {}  # block -> its bucket, found from its first member
    for t, block in bisim_blocks(spec, size_bound, depth).items():
        bucket = bucket_of.get(block)
        if bucket is None:
            fp = trace_bounded(spec, t, depth), partial_trace_bounded(spec, t, depth - 1)
            bucket = bucket_of[block] = buckets.setdefault(fp, (fp, [], []))
            bucket[2].append(t)
        bucket[1].append(t)
    return list(buckets.values())


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
    if extra_contexts < 0:
        raise ValueError("extra_contexts must be >= 0")
    if buckets is None:
        buckets = fingerprint_buckets(spec, size_bound, depth)
    if all(len(reps) < 2 for _, _, reps in buckets):
        return None
    sig = spec.signature
    depth1_arity = sum(sig.arity(op) for op in sig.names())
    count = depth1_arity + extra_contexts
    # An operator with no rules steps no argument, so each of its depth-1
    # contexts has guard ``depth`` and is never checked. Those of an arity
    # no sampled context can reach are not built. With none to skip, the
    # call is generate_contexts itself, whose return bench/tracer.py takes
    # for the start of the split phase.
    idle = {
        op for op in sig.names() if sig.arity(op) >= size_bound and not spec.rules_for(op)
    }
    if not count:  # a signature of constants only has no one-hole context at all
        contexts = []
    elif idle:
        contexts = _contexts(spec, count, size_bound, seed, idle)
    else:
        contexts = generate_contexts(spec, count, size_bound, seed)
    # original positions are kept: they tell the depth-1 layer apart
    guarded = [
        (i, c, _hole_guard(spec, c, depth)) for i, c in enumerate(contexts) if c is not None
    ]
    for _, _, reps in buckets:
        if len(reps) < 2:
            continue
        # guard -> the first representative of each (depth - guard)-block
        kept = {0: reps, depth: reps[:1]}
        for i, context, g in guarded:
            if g not in kept:
                blocks = bisim_partition(spec, reps, depth - g)
                firsts = {}
                for r in reps:
                    firsts.setdefault(blocks[r], r)
                kept[g] = list(firsts.values())
            if len(kept[g]) > 1:
                v = _split_violation(spec, kept[g], context, depth, i >= depth1_arity)
                if v is not None:
                    return v
    return None


def _hole_guard(spec, context, depth):
    """The largest ``g <= depth`` whose table of the unplugged context never
    steps the hole: ``step`` steps only premised arguments and refuses a
    leaf with ``TypeError``. Within ``g - 1`` steps, a plugged term is only
    substituted for the hole, and changes no move."""
    for g in range(depth, 0, -1):
        try:
            trace_bounded(spec, context.term, g)
        except TypeError:
            continue
        return g
    return 0
