"""Weight semirings for formal sums: booleans and extended nonnegative rationals.

Weights are plain hashable values (ints 0/1 for the boolean semiring,
``fractions.Fraction`` or the ``INF`` sentinel for the rational one); a
``Semiring`` object supplies the arithmetic, ordering and the shared exact
string syntax ``"p/q" | "n" | "inf"``.
"""

from __future__ import annotations

import re
from fractions import Fraction


class _Infinity:
    """The type of ``INF``, the top element of [0, inf]; compared with ``is``."""

    def __repr__(self):
        return "inf"


INF = _Infinity()


class Semiring:
    """A commutative semiring of weights with a total order and string syntax."""

    def __init__(self, name, zero, one, add, mul, leq, parse, show, check):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.leq = leq
        self.parse = parse
        self.show = show
        self.check = check

    def is_zero(self, w):
        return w == self.zero

    def sum(self, weights):
        acc = self.zero
        for w in weights:
            acc = self.add(acc, w)
        return acc

    def as_float(self, w):
        if w is INF:
            return float("inf")
        return float(w)

    def __repr__(self):
        return f"Semiring({self.name})"


def _bool_parse(text):
    t = text.strip()
    if t == "0":
        return 0
    if t == "1":
        return 1
    raise ValueError(f"boolean weight must be 0 or 1, got {text!r}")


def _bool_check(w):
    if w not in (0, 1):
        raise ValueError(f"not a boolean weight: {w!r}")
    return w


BOOLEAN = Semiring(
    name="boolean",
    zero=0,
    one=1,
    add=lambda a, b: a | b,
    mul=lambda a, b: a & b,
    leq=lambda a, b: a <= b,
    parse=_bool_parse,
    show=lambda w: "1" if w else "0",
    check=_bool_check,
)


def _rat_add(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def _rat_mul(a, b):
    # inf * 0 = 0: the annihilator wins, so zero-weight branches stay absent
    # even in the presence of infinite weights.
    if a is INF:
        return INF if b != 0 else Fraction(0)
    if b is INF:
        return INF if a != 0 else Fraction(0)
    return a * b


def _rat_leq(a, b):
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


def _rat_parse(text):
    t = text.strip()
    if t == "inf":
        return INF
    # the exact syntax is "p/q" | "n" | "inf"; no decimals or exponents
    if not re.fullmatch(r"-?\d+(/\d+)?", t):
        raise ValueError(f"bad rational weight {text!r}: expected p/q, n or inf")
    try:
        value = Fraction(t)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational weight {text!r}: {exc}") from None
    if value < 0:
        raise ValueError(f"weight must be nonnegative, got {text!r}")
    return value


def _rat_show(w):
    if w is INF:
        return "inf"
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


def _rat_check(w):
    if w is INF:
        return w
    if not isinstance(w, Fraction):
        w = Fraction(w)
    if w < 0:
        raise ValueError(f"weight must be nonnegative: {w!r}")
    return w


RATIONAL = Semiring(
    name="rational",
    zero=Fraction(0),
    one=Fraction(1),
    add=_rat_add,
    mul=_rat_mul,
    leq=_rat_leq,
    parse=_rat_parse,
    show=_rat_show,
    check=_rat_check,
)

SEMIRINGS = {"boolean": BOOLEAN, "rational": RATIONAL}
