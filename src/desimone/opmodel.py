"""Operational models: the step function induced by a specification.

``step`` is the engine every analysis steps through. It computes a closed
term's transitions rule by rule from the inductive reading of the format:
each premise independently picks a matching entry of its argument's
(recursively stepped) behaviour, and a combination contributes the rule
weight times the premise weights. An argument that no rule of its
operator premises is never stepped: it only moves into targets. ``step``
memoizes, per spec in ``model_cache``, and reads each operator's rules once,
into a ``_plan`` that builds targets without variables or substitution. Its
oracle is ``law.step_law``, which reaches the same behaviour through the
composite law and shares none of this reading of the rules, so this module
imports nothing from ``law``.

``explore`` is the one breadth-first walk over the states reachable from a set
of roots: ``check_probabilistic``, bisimulation, the termination analysis and
the path-sum oracle ``trace_direct`` read its walk order or the behaviour it
stepped for each state, and the congruence check's hole guard how far it gets
before ``step`` refuses a state.
Distances stay inside the walk, which needs them for its horizon.
"""

from __future__ import annotations

import weakref
from functools import partial

from .formalsum import STOP, FormalSum, Step, fs_total, is_affine
from .rulespec import RuleTargetError
from .terms import Node, Record, Var, enumerate_closed_terms, fold, print_term


class ModelCache:
    """Per-spec memo tables; rebuilt automatically, safe to discard.

    ``step`` maps a closed term to its behaviour, ``canon`` each step target
    to its one object, ``plans`` an operator to its ``_plan``, made on its
    first step, and ``trace`` and ``partial`` map ``(term, n)`` to its
    completed and partial trace table; ``trace.trace_bounded_once`` leaves out
    a term no later call asks about. ``words`` maps ``(label, id(tail))`` to
    the word ``(label,) + tail``, and ``tables`` maps each table to its one
    shared object and each signature of ``trace._bounded`` to the table it
    determines. Both key on the ``id`` of an object that they hold themselves,
    so that object stays alive and its ``id`` names no other object.
    ``buckets`` maps ``(size_bound, depth)`` to the list that
    ``analysis.fingerprint_buckets`` returns for it.
    """

    def __init__(self):
        self.step = {}
        self.trace = {}
        self.partial = {}
        self.words = {}
        self.tables = {}
        self.plans = {}
        self.canon = {}
        self.buckets = {}


_caches = weakref.WeakKeyDictionary()


def model_cache(spec):
    cache = _caches.get(spec)
    if cache is None:
        cache = ModelCache()
        _caches[spec] = cache
    return cache


def step(spec, term):
    """Behaviour of a closed term: a formal sum of Step(label, term) / STOP.

    Each rule that can fire (``spec.rules_for``) is read once, premise by
    premise in canonical order: a termination premise contributes its
    argument's stop weight and binds nothing, a transition premise ranges
    over the argument's steps with its label and binds ``y_i`` to the
    successor. A combination contributes the rule weight times the premise
    weights. The desimone dialect additionally always observes termination.
    Every premised argument is stepped, also when an earlier premise already
    keeps its rule from firing; the other arguments are carried into targets
    as they are, so a malformed subterm in such a position is refused only
    once it is stepped.
    An operator outside the signature raises ``KeyError``, a wrong argument
    count ``ValueError``, a leaf where a term is stepped ``TypeError``, and a
    fired rule whose target names an unbound variable ``RuleTargetError``.

    Every analysis follows this rule-by-rule reading, also on specs whose
    premises break the format, which ``validate`` rejects
    (``distinct-premise-sources``, ``dialect-term-premise``): a source
    premised twice is matched once per premise, the weights multiplied, and
    a desimone termination premise always holds. ``step_law`` observes each
    argument once and fires neither kind of rule, so the two disagree there.
    """
    cache = model_cache(spec)
    hit = cache.step.get(term)
    return hit if hit is not None else _step(spec, term, cache)


def _plan(spec, op):
    """``op``'s rules, each read once: ``(weight, label, premises, code)``.

    A premise is read as is, as ``(argument index, label)``: the index
    from 0, the label None for termination. ``code``, None for ``-> *``,
    builds the target in post-order over the arguments and then one
    successor per premise: an int pushes that term, ``(op, k)`` pops ``k``
    into a node, and an unbound variable makes its ``RuleTargetError``,
    raised only when the rule fires.
    """
    plan = []
    for rule in spec.rules_for(op):
        premises = tuple((p.index - 1, p.label) for p in rule.premises)
        premised = {i for i, _ in premises}
        slots = {Var("x", j + 1): j for j in range(rule.arity) if j not in premised}
        for k, (i, on) in enumerate(premises):  # a source premised twice: the last
            if on is not None:
                slots[Var("y", i + 1)] = rule.arity + k
        code = None if rule.target is None else []
        if code is not None:
            fold(
                rule.target,
                lambda v: code.append(slots.get(v, partial(RuleTargetError, rule, v.name))),
                lambda n, _: code.append((n.op, len(n.children))),
            )
        plan.append((rule.weight, rule.label, premises, code))
    return plan


def _step(spec, term, cache):
    """``step`` of a term that ``cache.step`` does not hold yet."""
    if not isinstance(term, Node):
        raise TypeError(f"step needs a closed term, got {term!r}")
    children = term.children
    spec.signature.check_arity(term.op, len(children))
    plan = cache.plans.get(term.op)
    if plan is None:
        plan = cache.plans[term.op] = _plan(spec, term.op)
    sr = spec.semiring
    behaviours = [None] * len(children)  # stepped on first premise only
    entries = [(STOP, sr.one)] if spec.dialect == "desimone" else []

    for weight, label, premises, code in plan:
        # each premise independently picks a matching entry of its argument:
        # a termination its stop weight, a transition a successor
        combos = [((), weight)]
        for i, on in premises:
            b = behaviours[i]
            if b is None:
                b = cache.step.get(children[i])
                if b is None:
                    b = _step(spec, children[i], cache)
                behaviours[i] = b
            if on is None:
                stop = b.weight(STOP)
                moves = [] if sr.is_zero(stop) else [((None,), stop)]
            else:
                moves = [((e.target,), w) for e, w in b.items()
                         if e is not STOP and e.label == on]
            combos = [
                (bound + more, sr.mul(acc, w))
                for bound, acc in combos
                for more, w in moves
            ]

        for bound, w in combos:
            if sr.is_zero(w):
                continue
            if code is None:
                entries.append((STOP, w))
                continue
            terms, built = children + bound, []
            for op in code:
                if type(op) is int:
                    built.append(terms[op])
                elif type(op) is tuple:
                    k = len(built) - op[1]
                    built[k:] = [Node(op[0], built[k:])]
                else:
                    raise op()
            entries.append((Step(label, cache.canon.setdefault(built[0], built[0])), w))

    result = cache.step[term] = FormalSum(sr, entries)
    return result


class Walk(Record):
    """``explore``'s states in breadth-first ``order``, the memoized ``step``
    ``behaviours`` of those it expanded, and whether it is ``closed``."""

    __slots__ = ("order", "behaviours", "closed")


MAX_WALK_NODES = 1_000_000


def explore(spec, roots, horizon, max_states):
    """Breadth-first walk from ``roots`` that steps each state once.

    Roots are deduplicated and taken in the order given, successors in
    behaviour order. Every state within ``horizon`` steps of a root is
    expanded; past that the walk stops as soon as it knows more than
    ``max_states`` states, or states of more than ``MAX_WALK_NODES`` term
    nodes in all. Steps build their targets node by node, so the node count
    bounds the work where the state count does not: the bound allows 100
    nodes for each of ``trace.MAX_AST_STATES``, 10,000 states, and a chain
    whose every step adds 200 nodes stops after about 100 states instead.
    ``closed`` says it expanded the whole reachable space and that space
    fits both bounds.
    """
    dist = dict.fromkeys(roots, 0)
    order = list(dist)
    nodes = sum(t.size for t in order)
    behaviours = {}
    for t in order:  # grows as the walk goes
        d = dist[t]
        if d > horizon and (len(order) > max_states or nodes > MAX_WALK_NODES):
            return Walk(order, behaviours, False)
        behaviour = behaviours[t] = step(spec, t)
        for e in behaviour:
            if e is not STOP and e.target not in dist:
                dist[e.target] = d + 1
                order.append(e.target)
                nodes += e.target.size
    return Walk(order, behaviours, len(order) <= max_states and nodes <= MAX_WALK_NODES)


class ProbReport(Record):
    __slots__ = ("bound", "checked", "violator", "mass")
    _defaults = {"violator": None, "mass": None}

    @property
    def passed(self):
        return self.violator is None

    def describe(self, semiring):
        if self.passed:
            return f"probabilistic: all {self.checked} terms have step mass 1"
        return (
            f"not probabilistic: {print_term(self.violator)} has step mass "
            f"{semiring.show(self.mass)}"
        )


def check_probabilistic(spec, size_bound):
    """Step mass exactly one at each closed term of size <= ``size_bound``
    and at each state within ``size_bound`` steps of one: a horizon."""
    if spec.semiring.name != "rational":
        raise ValueError("check_probabilistic is not applicable to the boolean dialect")
    roots = enumerate_closed_terms(spec.signature, size_bound)
    walk = explore(spec, roots, size_bound, 0)
    for checked, (t, behaviour) in enumerate(walk.behaviours.items(), start=1):
        if not is_affine(behaviour):
            return ProbReport(
                bound=size_bound,
                checked=checked,
                violator=t,
                mass=fs_total(behaviour),
            )
    return ProbReport(bound=size_bound, checked=len(walk.behaviours))
