"""Free terms over a ranked signature, with leaves carrying arbitrary payloads.

A term is either ``Leaf(payload)`` or ``Node(op, children)``. Leaf payloads are
rule variables (``Var``), closed subterms (when a term-over-terms is about to be
grafted), formal sums (inside the distributivity transformations) or a
context's ``HOLE``. Closed terms are all-``Node`` trees over a signature.

Walkers that visit every node (``fold``, ``leaves``, ``Node.__eq__``) keep
their work on an explicit stack, so term depth is not bounded by the
recursion limit. ``fold`` is the one bottom-up walk: ``substitute``,
``graft``, ``print_term``, ``payload_key``, ``dist_sigma_star``,
``step_law`` and the context paths of ``analysis`` all go through it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain


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
        self._closed = {}  # size -> closed terms in order, see closed_terms_of_size

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

    def __eq__(self, other):
        return isinstance(other, Signature) and self._ops == other._ops

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


def is_affine_term(t):
    """True iff no variable occurs twice (non-variable leaves are ignored)."""
    occurrences = term_vars(t)
    return len(set(occurrences)) == len(occurrences)


class UnboundVariableError(KeyError):
    pass


def _rebuild(n, children):
    return Node(n.op, children)


def substitute(t, subst):
    """Replace each Leaf(Var) by subst[var] (a term). Missing binding raises."""

    def leaf(payload):
        if isinstance(payload, Var):
            try:
                return subst[payload]
            except KeyError:
                raise UnboundVariableError(payload.name) from None
        return Leaf(payload)

    return fold(t, leaf, _rebuild)


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

def closed_terms_of_size(signature, size):
    """All closed terms with exactly `size` Node constructors, in order.

    The order is operator declaration order, then the arguments from the
    first: each position by size, then in its own size's order. Argument
    tuples are generated in exactly that order, so nothing is sorted. The
    tuples are kept on the signature: each size is built once.
    """
    cache = signature._closed
    if size in cache:
        return cache[size]
    out = []
    for op in signature.names():
        arity = signature.arity(op)
        if arity == 0:
            if size == 1:
                out.append(Node(op))
            continue
        if arity >= size:
            continue  # each argument takes at least one node
        partials = [((), size - 1)]  # argument prefixes, with the size left
        for later in reversed(range(arity)):  # positions after this one
            grown = []
            for args, rest in partials:
                # the last position takes what is left; earlier ones leave
                # at least one node to each later position
                low = max(rest, 1) if later == 0 else 1
                for s in range(low, rest - later + 1):
                    grown.extend(
                        (args + (c,), rest - s)
                        for c in closed_terms_of_size(signature, s)
                    )
            partials = grown
        out.extend(Node(op, args) for args, _ in partials)
    out = cache[size] = tuple(out)
    return out


def closed_term_counts(signature, max_size):
    """For n = 1..``max_size`` in turn, the number of closed terms of size
    <= n, by the size recurrence and without building one: a term of size
    n is an operator of arity k over a k-tuple of closed terms of n - 1
    nodes in all."""
    arities = Counter(signature.arity(op) for op in signature.names())
    widest = max(arities, default=0)
    counts = [0]  # counts[n]: closed terms with exactly n nodes
    tuples = [[1]]  # tuples[k][m]: k-tuples of closed terms with m nodes in all
    total = 0
    for n in range(1, max_size + 1):
        m = n - 1
        if m:
            tuples[0].append(0)
            if m <= widest:
                tuples.append([0] * m)  # m nodes make no tuple longer than m
        for k in range(1, min(widest, m) + 1):
            # the last argument takes s nodes, the first k - 1 the rest
            shorter = tuples[k - 1]
            tuples[k].append(sum(counts[s] * shorter[m - s] for s in range(1, m - k + 2)))
        counts.append(sum(c * tuples[k][m] for k, c in arities.items() if k <= m))
        total += counts[n]
        yield total


MAX_CLOSED_TERMS = 5_000_000  # about 1.8 GB at some 360 bytes per term


def enumerate_closed_terms(signature, max_size):
    """Closed terms of size <= max_size, size-ascending, no duplicates.

    The one listing of the enumeration, ``closed_terms_of_size`` for each
    size in turn, built as it is read. One of more than ``MAX_CLOSED_TERMS``
    terms is refused with ``ValueError`` at the call, before any term is
    built; the count stops at the first size that passes the bound.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    for size, count in enumerate(closed_term_counts(signature, max_size), start=1):
        if count > MAX_CLOSED_TERMS:
            raise ValueError(
                f"there are {count:,} closed terms of size <= {size}, "
                f"more than {MAX_CLOSED_TERMS:,}"
            )
    sizes = range(1, max_size + 1)
    return chain.from_iterable(closed_terms_of_size(signature, s) for s in sizes)
