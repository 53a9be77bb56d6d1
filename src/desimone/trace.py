"""Depth-bounded trace semantics and almost-sure-termination estimation.

A trace table is a formal sum over words (tuples of labels, first action
first). ``trace_bounded`` iterates the trace functional from the empty table;
``trace_direct`` recomputes weights by summing over explicit transition
paths, an independent oracle. ``ast_estimate`` watches the completed-trace
mass grow with depth and, when the reachable state space closes, pins the
limit down exactly. It never builds word tables: one ``opmodel.explore``
walk steps each reachable state once, and both answers are the sum over
paths of path weight times stop weight. One step, ``_push``, passes a
state's path weight on to its targets: once per depth from the root for the
mass sequence, and in topological order for the limit of an acyclic space.
Summed per state instead of per word, the mass at depth d is the exact total
of the ``trace_bounded`` table, which the tests use as its oracle.

Open questions
--------------
The bundled thirty-cell leaky chain terminates with exact mass
2147483647/3221225472, one 3221225472-th short of 2/3: cell n stops with
weight 1/(2**n + 2), and the per-cell contributions 1/3, 1/6, 1/12, 1/24, ...
decay fast enough for the sum to settle well below 1. Truncating that sum
after two cells gives exactly 1/2 (1/3 plus 2/3 of 1/4), a figure easy to
mistake for the limit when the chain is summarized coarsely; the remaining
cells contribute another sixth. Any quoted termination probability for this
chain should be checked against which truncation it reflects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .formalsum import STOP, FormalSum, Step
from .opmodel import _step, explore, model_cache, step
from .terms import Node


def _check_table_args(caller, term, bound_name, bound):
    if not isinstance(term, Node):
        raise TypeError(f"{caller} needs a closed term, got {term!r}")
    if bound < 0:
        raise ValueError(f"{bound_name} must be >= 0")


def trace_bounded(spec, term, depth):
    """The depth-th iterate of the trace functional from the empty table.

    Contains exactly the completed traces of length <= depth - 1.
    """
    _check_table_args("trace_bounded", term, "depth", depth)
    return _bounded(spec, term, depth, model_cache(spec), partial=False)


def trace_bounded_once(spec, term, depth):
    """``trace_bounded`` of a term that no later call asks about again.

    The term's own memo entries, its table at ``depth`` and its behaviour,
    are dropped once the table is built, so the term can be freed; the
    table stays shared, and the states the term steps into stay memoized.
    """
    table = trace_bounded(spec, term, depth)
    cache = model_cache(spec)
    cache.trace.pop((term, depth), None)
    cache.step.pop(term, None)
    return table


def partial_trace_bounded(spec, term, max_len):
    """Weight of performing each word of length <= max_len, terminating or not.

    The empty word always carries weight one. Together with the completed
    table this is everything a depth-bounded context can observe of a term,
    which is why the congruence machinery fingerprints on both.
    """
    _check_table_args("partial_trace_bounded", term, "max_len", max_len)
    return _bounded(spec, term, max_len, model_cache(spec), partial=True)


def _bounded(spec, term, n, cache, partial):
    """The recursion behind both tables, memoized on ``(term, n)``.

    The empty word weighs the termination weight in a completed table (of
    depth ``n``) and one in a partial table (of words up to length ``n``);
    a word ``(a,) + w`` carries each ``a``-transition's weight times the
    weight of ``w`` at its target, one bound lower. So past ``n = 0`` a
    table is determined by its signature: the partial flag, the stop
    weight, and each transition's label, weight and target table. Equal
    tables are one object (Filliatre and Conchon, Type-safe modular
    hash-consing, 2006), so a target table is named by its ``id``, and a
    signature seen before gives its table without building a word. Tables
    share their words too: ``words`` maps ``(a, id(w))`` to ``(a,) + w``.
    Each ``n = 0`` table is one object per partial flag, signed
    ``(partial,)``. ``cache`` holds every table and word so named, so no
    ``id`` is reused for another object.
    """
    sr = spec.semiring
    tables = cache.tables
    if n == 0:
        table = tables.get((partial,))
        if table is None:
            table = FormalSum(sr, [((), sr.one)] if partial else ())
            table = tables[(partial,)] = tables.setdefault(table, table)
        return table
    memo = cache.partial if partial else cache.trace
    key = (term, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    behaviour = cache.step.get(term)
    if behaviour is None:
        behaviour = _step(spec, term, cache)
    stop = behaviour.weight(STOP)
    moves = [
        (e.label, w, _bounded(spec, e.target, n - 1, cache, partial))
        for e, w in behaviour.items()
        if e is not STOP
    ]
    signature = (partial, stop, *((a, w, id(tail)) for a, w, tail in moves))
    table = tables.get(signature)
    if table is None:
        words = cache.words
        entries = [((), sr.one if partial else stop)]
        for a, w, tail in moves:
            for word, mass in tail.items():
                link = (a, id(word))
                word = words.get(link) or words.setdefault(link, (a,) + word)
                entries.append((word, sr.mul(w, mass)))
        table = FormalSum(sr, entries)
        table = tables[signature] = tables.setdefault(table, table)
    memo[key] = table
    return table


def trace_direct(spec, term, max_len):
    """Word weights summed over explicit transition paths of length <= max_len."""
    _check_table_args("trace_direct", term, "max_len", max_len)
    sr = spec.semiring
    entries = []

    def walk(t, word, weight):
        behaviour = step(spec, t)
        stop_w = behaviour.weight(STOP)
        if not sr.is_zero(stop_w):
            entries.append((word, sr.mul(weight, stop_w)))
        if len(word) >= max_len:
            return
        for e, w in behaviour.items():
            if isinstance(e, Step):
                walk(e.target, word + (e.label,), sr.mul(weight, w))

    walk(term, (), sr.one)
    return FormalSum(sr, entries)


def word_to_str(word, labels):
    if all(len(lbl) == 1 for lbl in labels):
        return "".join(word)
    return ".".join(word)


# --- almost-sure termination ----------------------------------------------

AST_TOLERANCE = Fraction(1, 10**6)

@dataclass
class AstReport:
    verdict: str  # "ast-consistent" | "non-ast" | "inconclusive"
    masses: list  # [(depth, weight)]
    exact: bool = False
    limit: object = None  # exact limit mass when computable
    detail: str = ""


def _push(sr, behaviour, r, reach):
    """Pass path weight ``r`` on: add r * w to ``reach`` at each transition's
    target, and return r times the stop weight."""
    for e, w in behaviour.items():
        if e is not STOP:
            reach[e.target] = sr.add(reach.get(e.target, sr.zero), sr.mul(r, w))
    return sr.mul(r, behaviour.weight(STOP))


def _mass_sequence(sr, walk, max_depth):
    """Completed-trace mass of the walk's root at depths 1 .. max_depth.

    Path weight is pushed forward from the root one step per depth: ``reach``
    maps each state that a path of exactly k steps reaches to the summed
    weight of those paths, and the mass at depth k + 1 adds their stop
    weights. Weights are nonnegative and the semiring distributes, so this
    is exactly the total weight of the ``trace_bounded`` table.
    """
    reach = {walk.order[0]: sr.one}
    mass = sr.zero
    masses = []
    for _ in range(max_depth):
        pushed = {}
        for t, r in reach.items():
            mass = sr.add(mass, _push(sr, walk.behaviours[t], r, pushed))
        masses.append(mass)
        reach = pushed
    return masses


def _acyclic_limit(sr, walk, root):
    """The root's limit mass over the closed walk, or None if it has a cycle.

    Path weight is pushed in topological order (Kahn, CACM 1962): a state
    passes its weight on once every edge into it has been counted. A state
    that never gets there lies on or behind a cycle.
    """
    pending = Counter(
        e.target for b in walk.behaviours.values() for e in b if e is not STOP
    )
    ready = [] if pending[root] else [root]  # an edge into the root closes a cycle
    reach = {root: sr.one}
    limit = sr.zero
    for t in ready:  # grows as states become ready
        behaviour = walk.behaviours[t]
        limit = sr.add(limit, _push(sr, behaviour, reach[t], reach))
        for e in behaviour:
            if e is not STOP:
                pending[e.target] -= 1
                if not pending[e.target]:
                    ready.append(e.target)
    return limit if len(ready) == len(walk.behaviours) else None


def ast_estimate(spec, term, max_depth, max_states=10000):
    """Track completed-trace mass by depth and classify termination behaviour.

    One ``opmodel.explore`` walk from ``term`` serves both halves. The
    masses at depths 1 .. max_depth come from pushing path weight forward
    from ``term``, one step per depth, through the states that a path of
    exactly that length reaches; no word table is built, and
    ``trace_bounded``'s total mass is their oracle in the tests. The walk
    also decides closure: past the horizon of max_depth - 1 steps it goes on
    until it has expanded the whole space or passed a bound of ``explore``,
    ``max_states`` states or ``MAX_WALK_NODES`` nodes, stepping states that
    no mass reads.

    The mass sequence is monotone by construction; a decrease raises
    ``RuntimeError``. A closed acyclic reachable space gives the exact limit,
    by the same push in topological order; a closed space in which no
    positive termination weight is reachable pins the limit at zero. In
    both cases a limit short of one is a definite non-termination witness.
    A limit or mass above one (an ``inf`` weight, or weights summing past
    one) is no termination probability, and the verdict is inconclusive.
    Otherwise the verdict falls back to the mass threshold 1 - 10^-6.
    """
    if spec.semiring.name != "rational":
        raise ValueError("ast_estimate needs the rational semiring")
    sr = spec.semiring
    walk = explore(spec, [term], max_depth - 1, max_states)
    masses = []
    prev = sr.zero
    for depth, mass in enumerate(_mass_sequence(sr, walk, max_depth), start=1):
        if not sr.leq(prev, mass):
            raise RuntimeError(
                f"trace mass fell from {sr.show(prev)} to {sr.show(mass)} at depth {depth}"
            )
        masses.append((depth, mass))
        prev = mass

    if walk.closed:
        limit = _acyclic_limit(sr, walk, term)
        if limit is not None:
            if limit == sr.one:
                verdict = "ast-consistent"
                detail = "closed acyclic state space; limit mass is exactly 1"
            elif sr.leq(limit, sr.one):
                verdict = "non-ast"
                detail = (
                    "closed acyclic state space; limit mass is exactly "
                    f"{sr.show(limit)} < 1"
                )
            else:
                verdict = "inconclusive"
                detail = (
                    "closed acyclic state space; limit mass is exactly "
                    f"{sr.show(limit)} > 1, so it is not a termination probability"
                )
            return AstReport(verdict, masses, exact=True, limit=limit, detail=detail)
        stop_somewhere = any(
            not sr.is_zero(b.weight(STOP)) for b in walk.behaviours.values()
        )
        if not stop_somewhere:
            return AstReport(
                "non-ast",
                masses,
                exact=True,
                limit=sr.zero,
                detail="no reachable state has positive termination weight",
            )

    threshold = Fraction(1) - AST_TOLERANCE
    final = masses[-1][1] if masses else sr.zero
    if not sr.leq(final, sr.one):
        return AstReport(
            "inconclusive",
            masses,
            detail=(
                f"mass {sr.show(final)} at depth {max_depth} exceeds 1, so it is "
                "not a termination probability"
            ),
        )
    if sr.leq(threshold, final):
        return AstReport(
            "ast-consistent",
            masses,
            detail=f"mass reached {sr.show(final)} >= 1 - 10^-6 by depth {max_depth}",
        )
    return AstReport(
        "inconclusive",
        masses,
        detail=f"mass {sr.show(final)} at depth {max_depth}; no closure argument applies",
    )
