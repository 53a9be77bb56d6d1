"""Free terms over a ranked signature, with leaves carrying arbitrary payloads.

A term is either ``Leaf(payload)`` or ``Node(op, children)``. Leaf payloads are
rule variables (``Var``), closed subterms (when a term-over-terms is about to be
grafted), formal sums (inside the distributivity transformations) or a
context's ``HOLE``. Closed terms are all-``Node`` trees over a signature.

Walkers that visit every node (``fold``, ``leaves``, ``Node.__eq__``) keep
their work on an explicit stack, so term depth is not bounded by the
recursion limit. ``fold`` is the one bottom-up walk: ``graft``,
``print_term``, ``payload_key``, ``dist_sigma_star``, ``step_law`` and the
law's rule targets, the engine's rule plans and the context paths of
``analysis`` all go through it.

One size recurrence counts the closed terms for the enumeration bound,
lists them and counts them by class; an argument tuple is built only at the
size where an operator first takes it. A listing holds nothing once it is
read: its sizes live in its own iterator, not in the signature.
``closed_term_at`` rebuilds the term at any index of the listing from the
counts.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, islice
from operator import mul


@dataclass(frozen=True)
class Var:
    """A rule variable: x_i (source argument) or y_i (premise successor)."""

    kind: str  # "x" or "y"
    index: int  # 1-based argument position

    def __post_init__(self):
        if self.kind not in ("x", "y"):
            raise ValueError(f"variable kind must be x or y, got {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")

    @property
    def name(self):
        return f"{self.kind}{self.index}"

    def __repr__(self):
        return self.name


class _Hole:
    """The type of ``HOLE``, the one hole leaf of a context; compared with ``is``."""

    def __repr__(self):
        return "HOLE"

    def __str__(self):
        return "[]"


HOLE = _Hole()


class Leaf:
    __slots__ = ("payload", "_hash")
    size = 0  # leaves carry payloads, not constructors

    def __init__(self, payload):
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", hash(("leaf", payload)))

    def __setattr__(self, name, value):
        raise AttributeError("Leaf is immutable")

    def __eq__(self, other):
        return isinstance(other, Leaf) and self.payload == other.payload

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Leaf({self.payload!r})"


class Node:
    __slots__ = ("op", "children", "size", "_hash")

    def __init__(self, op, children=()):
        children = tuple(children)
        size = 1  # the term's Node constructors
        for c in children:
            size += c.size
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_hash", hash(("node", op, children)))

    def __setattr__(self, name, value):
        raise AttributeError("Node is immutable")

    def __eq__(self, other):
        # node pairs wait on a stack; shared subterms are skipped by identity
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if not (
                isinstance(b, Node)
                and a._hash == b._hash
                and a.op == b.op
                and len(a.children) == len(b.children)
            ):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if isinstance(x, Node):
                    pairs.append((x, y))
                elif x != y:  # a leaf compares its payload
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Node({self.op!r}, {list(self.children)!r})"


class Signature:
    """Operator names with arities, in declaration order."""

    def __init__(self, ops):
        self._ops = {}
        for name, arity in ops:
            if name in self._ops:
                raise ValueError(f"operator {name!r} declared twice")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            self._ops[name] = arity

    @property
    def ops(self):
        return dict(self._ops)

    def names(self):
        return list(self._ops)

    def arity(self, name):
        return self._ops[name]

    def check_arity(self, name, count):
        """Refuse an unknown operator (KeyError) or a wrong argument count (ValueError)."""
        if name not in self._ops:
            raise KeyError(f"unknown operator {name!r}")
        if count != self._ops[name]:
            raise ValueError(f"operator {name!r} expects {self._ops[name]} arguments")

    def __contains__(self, name):
        return name in self._ops

    def __repr__(self):
        body = ", ".join(f"{n}/{a}" for n, a in self._ops.items())
        return f"Signature({body})"


def fold(t, leaf, node):
    """Fold a term bottom-up: ``leaf(payload)`` at each leaf, ``node(n,
    results)`` at each node ``n`` with its children's results in order.

    Post-order on an explicit stack, so depth costs no recursion.
    """
    if isinstance(t, Leaf):
        return leaf(t.payload)
    done = []  # results of finished subterms, in post-order
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # a node whose children are all done
            u = u[0]
            k = len(done) - len(u.children)
            results = done[k:]
            del done[k:]
            done.append(node(u, results))
        elif isinstance(u, Leaf):
            done.append(leaf(u.payload))
        else:
            todo.append((u,))
            todo.extend(reversed(u.children))
    return done[0]


def leaves(t):
    """Leaf payloads in left-to-right order (occurrences, with repeats)."""
    out = []
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Leaf):
            out.append(u.payload)
        else:
            todo.extend(reversed(u.children))
    return out


def term_vars(t):
    return [p for p in leaves(t) if isinstance(p, Var)]


def _rebuild(n, children):
    return Node(n.op, children)


def _graft_leaf(payload):
    if isinstance(payload, (Leaf, Node)):
        return payload
    raise TypeError(f"graft on non-term leaf payload {payload!r}")


def graft(t):
    """Collapse a term whose leaf payloads are themselves terms (free-monad mu)."""
    return fold(t, _graft_leaf, _rebuild)


# --- concrete syntax -------------------------------------------------------
#
# One token set serves closed terms (``parse_term``) and spec lines
# (``rulespec``): a term is ``op(t, ...)`` in both, and rule lines add
# arrows, metavariables, numbers and punctuation around it.

_TOKEN = re.compile(
    r"\s+"
    r"|(?P<arrow>-(?P<label>@?[A-Za-z_]\w*)?(?:\[(?P<weight>[^\[\]]*)\])?->|->)"
    r"|(?P<metavar>@[A-Za-z_]\w*)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<star>\*)|(?P<colon>:)"
)
_VAR = re.compile(r"([xy])(0*[1-9][0-9]*)")  # x0 names no variable


class TermSyntaxError(ValueError):
    """A malformed term or token; ``col`` is 1-based, None at end of input."""

    def __init__(self, message, col=None):
        self.message = message
        self.col = col
        super().__init__(message if col is None else f"{message} (column {col})")


def tokenize(text):
    """``(kind, value, column)`` triples, 1-based columns, whitespace dropped.

    An arrow's value is its ``(label, weight text)`` pair, either part None
    when absent; every other value is the token's text.
    """
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind == "arrow":
            out.append((kind, (m.group("label"), m.group("weight")), pos + 1))
        elif kind is not None:
            out.append((kind, m.group(), pos + 1))
        pos = m.end()
    return out


def var_named(name):
    """The variable ``name`` spells (``x1``, ``y2``, ...), or None."""
    m = _VAR.fullmatch(name)
    return Var(m.group(1), int(m.group(2))) if m else None


def show_token(token):
    """A token as error messages name it: quoted text, or ``an arrow``."""
    return "an arrow" if token[0] == "arrow" else repr(token[1])


def _node(signature, op, children, col):
    if len(children) != signature.arity(op):
        raise TermSyntaxError(
            f"operator {op!r} expects {signature.arity(op)} arguments, "
            f"got {len(children)}",
            col,
        )
    return Node(op, children)


def parse_tokens(signature, tokens, pos, allow_vars):
    """Parse one term from ``tokens[pos:]``; returns ``(term, next_pos)``.

    Nullary parentheses are optional. A name spelled like a variable is a
    variable leaf when ``allow_vars`` is set and an error otherwise. Open
    argument lists wait on an explicit stack, so nesting depth is not
    bounded by the recursion limit.
    """
    stack = []  # open argument lists: (op, op column, paren column, children)
    while True:
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of term")
        token = tokens[pos]
        kind, name, col = token
        if kind != "ident":
            raise TermSyntaxError(f"expected a term, got {show_token(token)}", col)
        pos += 1
        opens = pos < len(tokens) and tokens[pos][0] == "lparen"
        var = var_named(name)
        if var is not None:
            if not allow_vars:
                raise TermSyntaxError(
                    f"variable {name!r} not allowed in a closed term", col
                )
            if opens:
                raise TermSyntaxError(f"variable {name!r} cannot take arguments", col)
            term = Leaf(var)
        elif name not in signature:
            raise TermSyntaxError(f"unknown operator {name!r}", col)
        elif opens and not (pos + 1 < len(tokens) and tokens[pos + 1][0] == "rparen"):
            stack.append((name, col, tokens[pos][2], []))
            pos += 1
            continue
        else:
            if opens:
                pos += 2  # an empty argument list
            term = _node(signature, name, (), col)
        # the term is complete: hand it to the innermost open list, closing
        # every list that ends here, until one continues after a comma
        while stack:
            op, op_col, paren_col, children = stack[-1]
            children.append(term)
            if pos >= len(tokens):
                raise TermSyntaxError("unclosed argument list", paren_col)
            kind = tokens[pos][0]
            if kind == "comma":
                pos += 1
                break
            if kind != "rparen":
                raise TermSyntaxError(
                    f"expected ',' or ')', got {show_token(tokens[pos])}", tokens[pos][2]
                )
            pos += 1
            stack.pop()
            term = _node(signature, op, children, op_col)
        if not stack:
            return term, pos


def parse_term(signature, text):
    """Parse a closed term in ``op(child, ...)`` concrete syntax; nullary
    parens optional. Identifiers spelling a variable (``x1``, ``y2``, ...;
    ``x0`` is an ordinary identifier) are rejected.
    """
    tokens = tokenize(text)
    term, pos = parse_tokens(signature, tokens, 0, allow_vars=False)
    if pos < len(tokens):
        raise TermSyntaxError(f"trailing input {show_token(tokens[pos])}", tokens[pos][2])
    return term


def print_term(t):
    """Canonical rendering; parse_term(print_term(t)) round-trips.

    A leaf prints as ``str`` of its payload: a variable by its name, a
    carrier element as itself, a context's hole as ``[]``.
    """
    return fold(
        t, str, lambda n, args: f"{n.op}({', '.join(args)})" if args else n.op
    )


# --- enumeration -----------------------------------------------------------

def _splits(k, j):
    """Sizes of the first of k arguments of j nodes; the others keep one each."""
    return range(j if k == 1 else 1, j - k + 2)


def _sizes(signature, unit, join, first, apply, close=None, rows=None):
    """The results for sizes 1, 2, ... by the size recurrence: a term of size
    m + 1 is an operator of arity k over k arguments of m nodes in all. The
    algebra: ``unit`` is the empty tuple, ``join`` joins alternatives in
    order, ``first(terms, tuples)`` puts each of ``terms`` before each of
    ``tuples`` and ``apply(op, tuples)`` applies an operator; a given
    ``close`` turns each size's result into the one yielded and built on.
    The order is operator declaration order, then the arguments from the
    first: each position by size, then in its own size's order. A k-tuple
    of j nodes, ``rows[k][j]`` (filled into a given ``rows``), is built only
    when first used: as the last k arguments, with a node in each of the
    others, of an operator of the narrowest arity a >= k at m = j + a - k.
    It runs over counts, tuples (the listing) and classes. The sizes built
    live in the generator, so a listing holds nothing once it is read."""
    ops = signature.ops.items()
    arities = sorted(set(signature.ops.values()))
    empty = join(())
    sizes = [empty]  # sizes[n]: the result for size n
    rows = defaultdict(dict) if rows is None else rows
    rows[0] = {0: unit}
    for m in count():  # the nodes below the root of size m + 1
        for k in range(1, max((a for a in arities if a <= m), default=0) + 1):
            j = m + k - arities[bisect_left(arities, k)]
            rows[k][j] = join(first(sizes[s], rows[k - 1][j - s]) for s in _splits(k, j))
        size = join(apply(op, rows[k].get(m, empty)) for op, k in ops if k <= m)
        sizes.append(size if close is None else close(size))
        yield sizes[-1]


_COUNTS = (1, sum, mul, lambda op, n: n)

_TUPLES = (((),), lambda parts: tuple(chain.from_iterable(parts)),  # lists the terms
           lambda terms, tuples: ((c,) + rest for c in terms for rest in tuples),
           lambda op, tuples: map(partial(Node, op), tuples))


def _merge(parts):
    """``(key, (count, first))`` pairs in order, a key's counts added and its
    first kept: the join over classes."""
    merged = {}
    for key, (n, first) in chain.from_iterable(parts):
        merged[key] = (merged[key][0] + n, merged[key][1]) if key in merged else (n, first)
    return merged


_CLASSES = ({(): (1, ())}, _merge,
            lambda terms, tuples: (((c,) + cs, (n * m, (t,) + ts))
                                   for c, (n, t) in terms.items()
                                   for cs, (m, ts) in tuples.items()),
            lambda op, tuples: (((op, cs), v) for cs, v in tuples.items()))


def closed_term_classes(signature, max_size, classify):
    """For n = 1..``max_size`` in turn, ``{class: (count, first term)}`` of
    the closed terms of size n, in order of first term, where a term's key
    ``(op, child classes)`` decides its class: ``classify`` gets ``{key:
    first term}`` of the keys new at the size and returns their classes in
    order. The size recurrence over classes, after the enumeration bound:
    it builds only those terms and the first term of each class of each size."""
    enumeration_counts(signature, max_size)
    classes = {}  # key -> class

    def close(keys):  # {key: (count, first arguments)}
        fresh = {key: Node(key[0], ts) for key, (_, ts) in keys.items() if key not in classes}
        if fresh:
            classes.update(zip(fresh, classify(fresh)))
        firsts = _merge([((classes[key], (n, key)) for key, (n, _) in keys.items())])
        return {
            c: (n, fresh[key] if key in fresh else Node(key[0], keys[key][1]))
            for c, (n, key) in firsts.items()
        }

    return islice(_sizes(signature, *_CLASSES, close=close), max_size)


MAX_CLOSED_TERMS = 5_000_000  # about 0.7 GB at the 136 bytes a listed term holds


def enumeration_counts(signature, max_size):
    """``counts[n]``, the closed terms of each size n <= ``max_size``, and
    the argument tuple ``rows`` that ``closed_term_at`` reads: the one
    enumeration bound. A negative size, or more than ``MAX_CLOSED_TERMS``
    terms in all, is refused with ``ValueError``; the count stops at the
    first size that passes the bound."""
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    counts, rows = [0], defaultdict(dict)
    for n in islice(_sizes(signature, *_COUNTS, rows=rows), max_size):
        counts.append(n)
        if sum(counts) > MAX_CLOSED_TERMS:
            raise ValueError(
                f"there are {sum(counts):,} closed terms of size <= {len(counts) - 1}, "
                f"more than {MAX_CLOSED_TERMS:,}"
            )
    return counts, rows


def closed_term_at(signature, counts, rows, index):
    """The closed term at ``index`` of the listing that ``enumeration_counts``
    counted, rebuilt from the counts on an explicit stack: its size, its
    operator, then each argument's size and index from the first
    (unranking; Nijenhuis and Wilf, *Combinatorial Algorithms*, 1978)."""
    m = 0  # the nodes below the root
    while index >= counts[m + 1]:
        index, m = index - counts[m + 1], m + 1
    ops = signature.ops.items()
    done, todo = [], [(m, index)]  # (m, index) to rebuild, or (None, (op, arity))
    while todo:
        m, index = todo.pop()
        if m is None:  # apply op to the last ``arity`` terms done
            op, k = index
            done[len(done) - k:] = [Node(op, done[len(done) - k:])]
            continue
        for op, k in ops:
            if index < (n := rows[k].get(m, 0)):
                break
            index -= n
        args = []
        for left in range(k, 0, -1):  # the arguments not yet placed
            for s in _splits(left, m):
                if index < (n := counts[s] * rows[left - 1][m - s]):
                    break
                index -= n
            arg, index = divmod(index, rows[left - 1][m - s])
            args.append((s - 1, arg))
            m -= s
        todo += [(None, (op, k))] + args[::-1]
    return done[0]


def enumerate_closed_terms(signature, max_size):
    """Closed terms of size <= max_size, size-ascending, no duplicates.

    The one listing of the enumeration: the size recurrence over tuples,
    after the bound of ``enumeration_counts``, each size built as it is read
    and nothing kept once the iterator is dropped.
    """
    enumeration_counts(signature, max_size)
    return chain.from_iterable(islice(_sizes(signature, *_TUPLES), max_size))
