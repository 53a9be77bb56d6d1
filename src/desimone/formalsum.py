"""Finite-support formal sums over a weight semiring, and the behaviour functors.

``FormalSum`` is the monad T: canonical form keeps nonzero weights only, so
boolean sums are finite sets and rational sums are weight tables. Weights are
nonnegative, so a merged weight is zero only when each of its parts is: the
constructor skips zero entries as they arrive and merges in one pass. ``Step``/
``STOP`` are the elements of B X = L x X + 1; ``Pure``/``Obs`` tag the
coproduct B0 X = X + B X, and ``fs_pair_join`` pairs a sum of values with a
sum of observations under those tags. The law pipeline's distributive laws
live here as well: B T -> T B (``dist_b``), B0 T -> T B0 (``dist_b0``) and
Sigma T -> T Sigma (``dist_sigma``), which ``dist_sigma_star`` applies at
every node of a term.

``payload_key`` is the one total order on payloads. Wherever output must be
deterministic (rendering, witness reports, first-difference selection),
entries are listed in its order.
"""

from __future__ import annotations

from fractions import Fraction

from .semiring import INF, Semiring
from .terms import HOLE, Leaf, Node, Record, Var, fold, graft


class FormalSum:
    """An immutable finite-support map payload -> nonzero weight."""

    __slots__ = ("semiring", "_entries", "_hash")

    def __init__(self, semiring, entries=()):
        if not isinstance(semiring, Semiring):
            raise TypeError("first argument must be a Semiring")
        merged = {}
        for payload, weight in entries:
            weight = semiring.check(weight)
            if semiring.is_zero(weight):
                continue
            seen = merged.get(payload)
            merged[payload] = weight if seen is None else semiring.add(seen, weight)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "_entries", merged)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    def weight(self, payload):
        return self._entries.get(payload, self.semiring.zero)

    def items(self):
        return self._entries.items()

    def sorted_items(self):
        return sorted(self._entries.items(), key=lambda kv: payload_key(kv[0]))

    def payloads(self):
        return self._entries.keys()

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FormalSum)
            and self.semiring is other.semiring
            and self._entries == other._entries
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.semiring.name, frozenset(self._entries.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = ", ".join(
            f"{p!r}: {self.semiring.show(w)}" for p, w in self.sorted_items()
        )
        return f"<{body}>"


def fs_unit(semiring, payload):
    return FormalSum(semiring, [(payload, semiring.one)])


def fs_empty(semiring):
    return FormalSum(semiring)


def fs_map(f, s):
    """Push payloads through f; colliding images merge additively."""
    return FormalSum(s.semiring, ((f(p), w) for p, w in s.items()))


def fs_flatten(s):
    """Monad multiplication: outer weights distribute multiplicatively."""
    sr = s.semiring
    entries = []
    for inner, outer_w in s.items():
        if not isinstance(inner, FormalSum):
            raise TypeError(f"fs_flatten needs sum-of-sums, got payload {inner!r}")
        for p, w in inner.items():
            entries.append((p, sr.mul(outer_w, w)))
    return FormalSum(sr, entries)


def fs_total(s):
    return s.semiring.sum(w for _, w in s.items())


def is_affine(s):
    """Total weight exactly one: nonempty set / probability distribution."""
    return fs_total(s) == s.semiring.one


def fs_pair_join(s, t):
    """The pairing iso T X x T Y = T(X + B X): the entries of ``s`` tagged
    ``Pure`` and those of ``t`` tagged ``Obs``, as a disjoint union."""
    if s.semiring is not t.semiring:
        raise ValueError("fs_pair_join needs sums over the same semiring")
    entries = [(Pure(p), w) for p, w in s.items()]
    entries.extend((Obs(p), w) for p, w in t.items())
    return FormalSum(s.semiring, entries)


# --- behaviour functor B X = L x X + 1 ------------------------------------

class Step:
    """One labelled transition: (label, successor)."""

    __slots__ = ("label", "target", "_hash")

    def __init__(self, label, target):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_hash", hash(("step", label, target)))

    def __setattr__(self, name, value):
        raise AttributeError("Step is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Step)
            and self.label == other.label
            and self.target == other.target
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Step({self.label!r}, {self.target!r})"


class _Stop:
    """The type of ``STOP``, the element 1 of B X; compared with ``is``."""

    def __repr__(self):
        return "STOP"


STOP = _Stop()


def belem_map(e, f):
    """Apply f to the successor position; STOP is fixed."""
    if e is STOP:
        return STOP
    return Step(e.label, f(e.target))


# --- coproduct tagging B0 X = X + B X -------------------------------------

class Pure(Record):
    """An argument seen as its value, the left summand X of B0 X."""

    __slots__ = ("value",)


class Obs(Record):
    """An argument seen by its behaviour: a ``Step`` or ``STOP`` of B X."""

    __slots__ = ("elem",)


# --- the payload order -----------------------------------------------------

def payload_key(x):
    """Sort key of the total order on payloads; keys compare as tuples.

    Numbers (weights) are in numeric order with ``INF`` above every
    rational, tuples (trace words) length-major and then letter by letter,
    terms by operator and then children, a sum by its sorted entries.
    A term's key is flat: its pre-order tokens, ``("node", op)`` per node
    and a leaf's key per leaf, collected on a stack. An operator has one
    arity, so token sequences are prefix-free and order as nested keys
    would, and comparing two keys recurses on payload nesting only, never
    on term depth.
    """
    if isinstance(x, str):
        return ("str", x)
    if x is INF:
        return ("num", 1, 0)
    if isinstance(x, (int, Fraction)):  # bool included
        return ("num", 0, Fraction(x))
    if isinstance(x, tuple):
        return ("tuple", len(x), tuple(payload_key(i) for i in x))
    if isinstance(x, (Leaf, Node)):
        tokens = []
        todo = [x]
        while todo:
            t = todo.pop()
            if isinstance(t, Leaf):
                tokens.append(("leaf", payload_key(t.payload)))
            else:
                tokens.append(("node", t.op))
                todo.extend(reversed(t.children))
        return tokens[0] if isinstance(x, Leaf) else ("node", tuple(tokens))
    if isinstance(x, Var):
        return ("var", x.kind, x.index)
    if x is HOLE:
        return ("hole",)
    if x is STOP:
        return ("belem", 0)
    if isinstance(x, Step):
        return ("belem", 1, x.label, payload_key(x.target))
    if isinstance(x, Pure):
        return ("b0", 0, payload_key(x.value))
    if isinstance(x, Obs):
        return ("b0", 1, payload_key(x.elem))
    if isinstance(x, FormalSum):
        return (
            "fs",
            tuple((payload_key(p), payload_key(w)) for p, w in x.sorted_items()),
        )
    raise TypeError(f"no canonical order for payload {x!r}")


# --- distributivity transformations ---------------------------------------

def dist_b(semiring, e):
    """B T -> T B: move the weight out of the successor; STOP gets weight one."""
    if e is STOP:
        return fs_unit(semiring, STOP)
    inner = e.target
    if not isinstance(inner, FormalSum):
        raise TypeError(f"dist_b expects a formal-sum successor, got {inner!r}")
    return fs_map(lambda p: Step(e.label, p), inner)


def dist_b0(semiring, e):
    """B0 T -> T B0: delegate through the tag."""
    if isinstance(e, Pure):
        inner = e.value
        if not isinstance(inner, FormalSum):
            raise TypeError(f"dist_b0 expects a formal-sum payload, got {inner!r}")
        return fs_map(Pure, inner)
    if isinstance(e, Obs):
        return fs_map(Obs, dist_b(semiring, e.elem))
    raise TypeError(f"not a B0 element: {e!r}")


def dist_sigma(semiring, op, arg_sums):
    """Sigma T -> T Sigma: one independent choice per argument position.

    Returns a sum over flat terms Node(op, Leaf(x1), ..., Leaf(xn)); the
    weight of a combination is the product of the chosen entries' weights.
    """
    combos = [((), semiring.one)]
    for s in arg_sums:
        combos = [
            (chosen + (p,), semiring.mul(acc, w))
            for chosen, acc in combos
            for p, w in s.items()
        ]
    return FormalSum(
        semiring,
        ((Node(op, [Leaf(p) for p in chosen]), w) for chosen, w in combos),
    )


def dist_sigma_star(semiring, t):
    """Sigma* T -> T Sigma*: every leaf occurrence chooses independently.

    Repeated occurrences of the same formal sum are distinct choice points,
    which is exactly what makes non-affine rule targets misbehave.
    """

    def leaf(inner):
        if not isinstance(inner, FormalSum):
            raise TypeError(f"dist_sigma_star expects formal-sum leaves, got {inner!r}")
        return fs_map(Leaf, inner)

    return fold(t, leaf, lambda n, sums: fs_map(graft, dist_sigma(semiring, n.op, sums)))
