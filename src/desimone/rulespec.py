"""Rule-specification DSL: parsing, forall-expansion, and format validation.

A spec file is line-oriented:

    # comment
    dialect desimone | weighted
    semiring boolean | rational
    labels a, b
    op par : 2
    rule par(x1, x2) -@l-> par(y1, x2) when x1 -@l-> y1 forall @l
    rule par(x1, x2) -[1/2]-> * when x1 -> *

Premises are ``xi -LBL-> yi`` (transition) or ``xj -> *`` (termination,
weighted dialect only). A conclusion is ``-LBL->`` / ``-LBL[W]->`` with a term
target, or ``-[W]-> *`` (termination). ``@name`` metavariables range over the
declared labels and must be bound by the ``forall`` clause.

One ``Rule`` type with one ``Premise`` type runs from parser to engine; in
both, a label of None marks termination. ``expand_forall`` grounds a parsed
rule over its ``forall`` metavariables, and equal ground rules merge.

Parsing enforces structural sanity (declared names, arities, head shape).
The tokenizer, the term parser and the rule parser raise ``TermSyntaxError``
with a column; ``parse_spec`` puts each on its line as a ``SpecParseError``.
``validate_format`` reports rule-format violations as data without blocking
evaluation, so deliberately ill-formed specs can still be run against the
checkers: ``spec.rules`` keeps every ground rule, while ``rules_for`` leaves
out those premised past their operator's arity, which can never fire.
"""

from __future__ import annotations

import itertools
import re

from .semiring import INF, SEMIRINGS
from .terms import (
    Record,
    Signature,
    TermSyntaxError,
    Var,
    parse_tokens,
    print_term,
    show_token,
    term_vars,
    tokenize,
    var_named,
)


class SpecParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", column {col}"
            where += ": "
        super().__init__(where + message)


class RuleTargetError(Exception):
    """A fired rule whose target names a variable its premises leave unbound:
    ``validate_format``'s ``target-vars``, refused only once the rule fires."""

    def __init__(self, rule, var):
        self.line, self.var = rule.line, var
        super().__init__(
            f"line {rule.line}: the rule's target names {var}, "
            "which is unbound when the rule fires"
        )


class Premise(Record):
    """``x_index -label-> y_index``, or ``x_index -> *`` when label is None."""

    __slots__ = ("index", "label")

    def show(self):
        if self.label is None:
            return f"x{self.index} -> *"
        return f"x{self.index} -{self.label}-> y{self.index}"


class Rule(Record, uncompared=("line",)):
    """A rule; a ``label`` and ``target`` of None mean a termination
    conclusion. ``line`` (not compared) is its spec line. A parsed rule
    lists its label metavariables in ``forall``; a spec's ground rules have
    none, and their premises in canonical order (by source)."""

    __slots__ = ("op", "arity", "premises", "label", "weight", "target", "line", "forall")
    _defaults = {"line": 0, "forall": ()}

    def show(self, semiring=None):
        head = self.op
        if self.arity:
            head += "(" + ", ".join(f"x{i}" for i in range(1, self.arity + 1)) + ")"
        label = self.label or ""
        if semiring is not None:
            label += f"[{semiring.show(self.weight)}]"
        arrow = f"-{label}->" if label else "->"
        target = "*" if self.target is None else print_term(self.target)
        concl = f"{head} {arrow} {target}"
        if self.premises:
            concl += " when " + ", ".join(p.show() for p in self.premises)
        return concl


class Violation(Record):
    __slots__ = ("rule", "condition", "fragment", "severity", "line")


class RuleSpec:
    """A parsed specification: dialect, semiring, labels, signature, ground rules."""

    def __init__(self, dialect, semiring, labels, signature, rules):
        self.dialect = dialect
        self.semiring = semiring
        self.labels = tuple(labels)
        self.signature = signature
        self.rules = tuple(rules)
        self._by_op = {}
        for r in self.rules:
            if all(p.index <= r.arity for p in r.premises):
                self._by_op.setdefault(r.op, []).append(r)

    def rules_for(self, op):
        """The rules of ``op`` that can fire: every premise names an argument."""
        return self._by_op.get(op, [])

    def __repr__(self):
        return (
            f"RuleSpec({self.dialect}/{self.semiring.name}, "
            f"{len(self.signature.ops)} ops, {len(self.rules)} rules)"
        )


_IDENT = re.compile(r"[A-Za-z_]\w*")


class _RuleParser:
    """Descent over one tokenized ``rule`` line, with one token cursor; terms
    go to ``parse_tokens``. Errors are ``TermSyntaxError``s with a column,
    None at the end of the line; ``parse_spec`` puts them on their line."""

    def __init__(self, tokens, line, signature, labels, semiring, dialect):
        self.toks, self.pos, self.line = tokens, 0, line
        self.signature, self.labels = signature, labels
        self.semiring, self.dialect = semiring, dialect

    def col(self):
        return self.toks[self.pos][2] if self.pos < len(self.toks) else None

    def peek(self, kind, value=None):
        if self.pos >= len(self.toks):
            return False
        k, v, _ = self.toks[self.pos]
        return k == kind and value in (None, v)

    def skip(self, kind, value=None):
        """Consume the next token if it matches; return whether it did."""
        if self.peek(kind, value):
            self.pos += 1
            return True
        return False

    def take(self, kind, what):
        if not self.skip(kind):
            got = "'end of line'"
            if self.pos < len(self.toks):
                got = show_token(self.toks[self.pos])
            raise TermSyntaxError(f"expected {what}, got {got}", self.col())
        return self.toks[self.pos - 1]

    def listed(self, item, *args):
        """One ``item(*args)``, then one more after each comma."""
        out = [item(*args)]
        while self.skip("comma"):
            out.append(item(*args))
        return out

    def var(self, kind):
        _, name, col = self.take("ident", "a variable")
        v = var_named(name)
        if v is None:
            raise TermSyntaxError(f"expected a variable, got {name!r}", col)
        if v.kind != kind:
            raise TermSyntaxError(f"expected an {kind}-variable, got {v.name}", col)
        return v

    def declared(self, arrow):
        """The arrow's label, None when unlabelled; a plain one must be declared."""
        label = arrow[1][0]
        if label is not None and not label.startswith("@") and label not in self.labels:
            raise TermSyntaxError(f"undeclared label {label!r}", arrow[2])
        return label

    def conclusion_arrow(self):
        """The conclusion arrow's column, label and weight."""
        tok = self.take("arrow", "an arrow")
        label, text, col = self.declared(tok), tok[1][1], tok[2]
        if self.dialect == "desimone":
            if text is not None:
                raise TermSyntaxError("weights are not part of the desimone dialect", col)
            return col, label, self.semiring.one
        if text is None or not text.strip():
            raise TermSyntaxError("missing weight", col)
        try:
            return col, label, self.semiring.parse(text)
        except ValueError as exc:
            raise TermSyntaxError(str(exc), col) from None

    def premise(self):
        source = self.var("x")
        tok = self.take("arrow", "a premise arrow")
        if tok[1][1] is not None:
            raise TermSyntaxError("premises carry no weight", tok[2])
        if tok[1][0] is None:
            self.take("star", "'*'")
            return Premise(source.index, None)
        label = self.declared(tok)
        if self.var("y").index != source.index:
            raise TermSyntaxError(
                f"premise successor must be y{source.index} to match x{source.index}",
                self.col(),
            )
        return Premise(source.index, label)

    def parse(self):
        _, op, op_col = self.take("ident", "an operator")
        if op not in self.signature:
            raise TermSyntaxError(f"unknown operator {op!r}", op_col)
        arity = self.signature.arity(op)
        seen = []
        if self.skip("lparen") and not self.skip("rparen"):
            seen = self.listed(self.var, "x")
            self.take("rparen", "',' or ')'")
        # lengths first: a declared arity can be far larger than any head
        if len(seen) != arity or seen != [Var("x", i) for i in range(1, arity + 1)]:
            want = (
                ", ".join(f"x{i}" for i in range(1, arity + 1)) or "()"
                if arity <= 10
                else f"x1, ..., x{arity}"
            )
            raise TermSyntaxError(
                f"rule head for {op!r} must list exactly ({want})", op_col
            )

        arrow_col, label, weight = self.conclusion_arrow()
        if self.skip("star"):
            target = None
        elif label is None:
            raise TermSyntaxError("a term target needs a labelled arrow", arrow_col)
        else:
            target, self.pos = parse_tokens(
                self.signature, self.toks, self.pos, allow_vars=True
            )
        premises = self.listed(self.premise) if self.skip("ident", "when") else []
        forall = []

        def metavar():
            _, name, col = self.take("metavar", "a metavariable")
            if name in forall:
                raise TermSyntaxError(f"metavariable {name} listed twice", col)
            forall.append(name)

        if self.skip("ident", "forall"):
            self.listed(metavar)
        if self.pos != len(self.toks):
            raise TermSyntaxError(
                f"trailing input {show_token(self.toks[self.pos])}", self.col()
            )

        named = [label] + [p.label for p in premises]
        used = {m for m in named if m is not None and m.startswith("@")}
        unbound = min(used.difference(forall), default=None)
        if unbound:
            raise TermSyntaxError(f"unbound metavariable {unbound}", arrow_col)
        unused = min(set(forall) - used, default=None)
        if unused:
            raise TermSyntaxError(f"metavariable {unused} bound but never used", arrow_col)

        return Rule(
            op, arity, tuple(premises), label, weight, target, self.line, tuple(forall)
        )


def expand_forall(rule, labels):
    """Ground a rule: its metavariables range independently over the labels."""
    out = []
    for combo in itertools.product(labels, repeat=len(rule.forall)):
        asg = dict(zip(rule.forall, combo))
        premises = sorted(
            (Premise(p.index, asg.get(p.label, p.label)) for p in rule.premises),
            key=lambda p: (p.index, p.label is None, p.label or ""),
        )
        label = asg.get(rule.label, rule.label)
        out.append(
            Rule(rule.op, rule.arity, tuple(premises), label, rule.weight, rule.target, rule.line)
        )
    return out


def _merge_rules(rules, semiring):
    """Duplicate rules merge by semiring addition, idempotent when boolean."""
    merged = {}
    for r in rules:
        key = (r.op, r.premises, r.label, r.target)
        old = merged.get(key)
        if old is not None:
            weight = semiring.add(old.weight, r.weight)
            r = Rule(old.op, old.arity, old.premises, old.label, weight, old.target, old.line)
        merged[key] = r
    return list(merged.values())


def parse_spec(text):
    lines = text.splitlines()
    dialect = None
    semiring = None
    labels = []
    ops = []
    rules = []
    signature = None

    def strip_comment(s):
        i = s.find("#")
        return s if i < 0 else s[:i]

    for line_no, raw in enumerate(lines, start=1):
        raw = strip_comment(raw)
        line = raw.strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        rest = line[len(word):].strip()

        try:
            if word == "dialect":
                if dialect is not None:
                    raise SpecParseError("dialect declared twice", line_no)
                if rest not in ("desimone", "weighted"):
                    raise SpecParseError(f"unknown dialect {rest!r}", line_no)
                dialect = rest
            elif word == "semiring":
                if dialect is None:
                    raise SpecParseError("dialect must be declared first", line_no)
                if semiring is not None:
                    raise SpecParseError("semiring declared twice", line_no)
                if rest not in SEMIRINGS:
                    raise SpecParseError(f"unknown semiring {rest!r}", line_no)
                if dialect == "desimone" and rest != "boolean":
                    raise SpecParseError(
                        "desimone dialect requires the boolean semiring", line_no
                    )
                semiring = SEMIRINGS[rest]
            elif word == "labels":
                if semiring is None:
                    raise SpecParseError("labels must follow the header", line_no)
                for name in [s.strip() for s in rest.split(",")]:
                    if not name or not _IDENT.fullmatch(name):
                        raise SpecParseError(f"bad label name {name!r}", line_no)
                    if name in labels:
                        raise SpecParseError(f"label {name!r} declared twice", line_no)
                    labels.append(name)
            elif word == "op":
                if semiring is None:
                    raise SpecParseError("op declarations must follow the header", line_no)
                toks = tokenize(raw)[1:]  # columns count from the line start
                shape = [t[0] for t in toks]
                if shape != ["ident", "colon", "number"]:
                    raise SpecParseError("expected 'op name : arity'", line_no)
                name, arity = toks[0][1], int(toks[2][1])
                if var_named(name) is not None:
                    raise SpecParseError(
                        f"operator name {name!r} collides with variable syntax", line_no
                    )
                if any(name == n for n, _ in ops):
                    raise SpecParseError(f"operator {name!r} declared twice", line_no)
                ops.append((name, arity))
                signature = None
            elif word == "rule":
                if semiring is None:
                    raise SpecParseError("rules must follow the header", line_no)
                if signature is None:
                    signature = Signature(ops)
                toks = tokenize(raw)[1:]
                parser = _RuleParser(toks, line_no, signature, labels, semiring, dialect)
                rules.append(parser.parse())
            else:
                raise SpecParseError(f"unknown declaration {word!r}", line_no)
        except TermSyntaxError as exc:
            raise SpecParseError(exc.message, line_no, exc.col) from None

    if dialect is None:
        raise SpecParseError("missing dialect declaration")
    if semiring is None:
        raise SpecParseError("missing semiring declaration")
    if not labels:
        raise SpecParseError("missing labels declaration")
    if signature is None:
        signature = Signature(ops)

    ground = [g for rule in rules for g in expand_forall(rule, labels)]
    ground = _merge_rules(ground, semiring)
    return RuleSpec(dialect, semiring, labels, signature, ground)


# --- format validation -----------------------------------------------------

def validate_format(spec):
    """Check every ground rule against the rule-format conditions.

    Returns a list of Violations; severity "error" marks a rule outside the
    format (the evaluation pipeline still runs on such specs, which is what
    makes the format counterexamples observable), severity "warning" flags
    legal but suspicious corners.
    """
    out = []

    def flag(rule, condition, fragment, severity="error"):
        out.append(
            Violation(
                rule=rule.show(spec.semiring if spec.dialect == "weighted" else None),
                condition=condition,
                fragment=fragment,
                severity=severity,
                line=rule.line,
            )
        )

    for rule in spec.rules:
        premise_indices = [p.index for p in rule.premises]
        repeated = _repeats(premise_indices)
        if repeated:
            flag(rule, "distinct-premise-sources", f"x{min(repeated)} premised twice")
        for p in rule.premises:
            if not 1 <= p.index <= rule.arity:
                flag(rule, "premise-source-range", f"x{p.index} out of range")
        if spec.dialect == "desimone":
            for p in rule.premises:
                if p.label is None:
                    flag(rule, "dialect-term-premise", p.show())
            if rule.target is None and rule.label is None:
                flag(rule, "dialect-termination", "conclusion '-> *'")
        if rule.target is None and rule.label is not None:
            flag(
                rule,
                "labelled-termination",
                f"label {rule.label!r} on a termination conclusion",
            )
        if rule.target is not None:
            occurrences = term_vars(rule.target)
            repeated = _repeats(occurrences)
            if repeated:
                flag(
                    rule,
                    "affine-target",
                    f"variable {repeated[0].name} occurs twice in "
                    f"{print_term(rule.target)}",
                )
            trans_indices = {p.index for p in rule.premises if p.label is not None}
            for v in dict.fromkeys(occurrences):
                if v.kind == "y":
                    if v.index not in trans_indices:
                        flag(
                            rule,
                            "target-vars",
                            f"{v.name} has no matching transition premise",
                        )
                else:
                    if not 1 <= v.index <= rule.arity:
                        flag(rule, "target-vars", f"{v.name} out of range")
                    elif v.index in premise_indices:
                        flag(
                            rule,
                            "target-vars",
                            f"{v.name} is premised and may not be copied into the target",
                        )
        if rule.weight is INF:
            flag(rule, "weight-inf", "infinite rule weight", severity="warning")
    return out


def _repeats(items):
    """The items that occur earlier in ``items``, in order."""
    seen = set()
    return [x for x in items if x in seen or seen.add(x)]


def format_errors(spec):
    return [v for v in validate_format(spec) if v.severity == "error"]
