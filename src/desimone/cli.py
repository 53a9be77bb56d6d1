"""Command-line front end: load a spec file, run one analysis, report.

Every command computes its result once, as the payload that ``--json``
prints with sorted keys and deterministic entry order, byte-identical across
runs for fixed inputs and seeds. The human output is rendered from that same
payload: weights as exact strings ("1/4", "inf"), and with ``--float`` each
followed by its decimal approximation, ``null`` in JSON when it has none.

Exit codes: 0 success / property holds, 1 semantic failure (format
violation, witness, inequivalence, bad term), 2 usage, file or spec-parse
error, a fired rule whose target names an unbound variable, a declared
arity too wide to enumerate, or an input too deep for Python's recursion
limit, each refused with one line on stderr.
A reader that closes stdout early ends the command quietly with exit 1.
Two inputs meet the depth refusal: a table depth past the limit (tables
recurse once per depth), and premised nesting past it under ``step`` (it
recurses once per premised level, so ``step --direct`` refuses ``par``
nested 10,000 deep). Term depth alone is answered: rule targets of any
depth fire, since every whole-term walk goes through ``terms.fold``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import counterexample_search, fingerprint_buckets, first_difference
from .formalsum import STOP, Pure, fs_empty, fs_total
from .law import naturality_check
from .opmodel import step, step_law
from .rulespec import RuleTargetError, SpecParseError, parse_spec, validate_format
from .terms import TermSyntaxError, parse_term, print_term
from .trace import ast_estimate, trace_bounded, trace_direct, word_to_str


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_spec(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}", 2) from None
    try:
        return parse_spec(text)
    except SpecParseError as exc:
        raise CliError(f"{path}: {exc}", 2) from None


def _load_term(spec, text):
    # a term that does not fit the signature is a semantic failure of the
    # query, not a usage error: exit 1, like any other failed check
    try:
        return parse_term(spec.signature, text)
    except TermSyntaxError as exc:
        raise CliError(f"bad term {text!r}: {exc}", 1) from None


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _weighed(spec, entry, key, w, with_float):
    """Store ``w`` in ``entry[key]`` exactly, plus ``entry[key + "_float"]``
    when floats are asked for, None (JSON ``null``) when ``w`` has no finite
    float; returns the entry."""
    entry[key] = spec.semiring.show(w)
    if with_float:
        try:
            f = spec.semiring.as_float(w)
        except OverflowError:  # a Fraction past the float range
            f = math.inf
        entry[f"{key}_float"] = f if math.isfinite(f) else None
    return entry


def _shown(entry, key):
    """A weight stored by ``_weighed``, as ``1/2`` or ``1/2 = 0.5``."""
    text = entry[key]
    if entry.get(f"{key}_float") is not None:
        text += f" = {entry[f'{key}_float']:g}"
    return text


def _behaviour_entries(spec, behaviour, with_float=False):
    entries = []
    for e, w in behaviour.sorted_items():
        if e is STOP:
            entry = {"kind": "stop"}
        else:
            entry = {"kind": "step", "label": e.label, "target": print_term(e.target)}
        entries.append(_weighed(spec, entry, "weight", w, with_float))
    return entries


def _print_behaviour(entries, indent):
    if not entries:
        print(f"{indent}(empty)")
    for e in entries:
        move = "-> *" if e["kind"] == "stop" else f"-{e['label']}-> {e['target']}"
        print(f"{indent}{move}  [{_shown(e, 'weight')}]")


def _table_entries(spec, table, with_float):
    return [
        _weighed(spec, {"word": word_to_str(word, spec.labels)}, "weight", w, with_float)
        for word, w in table.sorted_items()
    ]


def _print_table(entries):
    if not entries:
        print("  (no completed traces)")
    for e in entries:
        print(f"  {e['word'] or '(empty)':<12} {_shown(e, 'weight')}")


# --- subcommands -----------------------------------------------------------
#
# Each command builds its ``--json`` payload once; the human rendering reads
# only that payload.

def cmd_validate(args):
    spec = _load_spec(args.spec)
    violations = validate_format(spec)
    errors = sum(v.severity == "error" for v in violations)
    payload = {
        "spec": args.spec,
        "dialect": spec.dialect,
        "semiring": spec.semiring.name,
        "labels": list(spec.labels),
        "operators": [
            {"name": name, "arity": spec.signature.arity(name)}
            for name in spec.signature.names()
        ],
        "rules": len(spec.rules),
        "violations": [
            {
                "rule": v.rule,
                "condition": v.condition,
                "fragment": v.fragment,
                "severity": v.severity,
                "line": v.line,
            }
            for v in violations
        ],
        "valid": not errors,
    }
    if args.json:
        _emit_json(payload)
    else:
        ops = ", ".join(f"{o['name']}/{o['arity']}" for o in payload["operators"])
        print(
            f"{payload['spec']}: dialect {payload['dialect']}, "
            f"semiring {payload['semiring']}, labels {', '.join(payload['labels'])}, "
            f"ops {ops}, {payload['rules']} ground rules"
        )
        found = payload["violations"]
        for v in found:
            print(f"  line {v['line']} {v['severity']} {v['condition']}: {v['fragment']}")
            print(f"    in rule: {v['rule']}")
        if not payload["valid"]:
            print(f"invalid: {errors} format violations, {len(found) - errors} warnings")
        elif found:
            print(f"valid with {len(found)} warnings")
        else:
            print("valid")
    return 0 if payload["valid"] else 1


def cmd_step(args):
    spec = _load_spec(args.spec)
    term = _load_term(spec, args.term)
    if args.oracle:
        canonical = step_law(spec, term)
        direct = step(spec, term)
        payload = {
            "entries": _behaviour_entries(spec, canonical, args.float),
            "direct_entries": _behaviour_entries(spec, direct, args.float),
            "agree": canonical == direct,
        }
    else:
        behaviour = step(spec, term) if args.direct else step_law(spec, term)
        payload = {"entries": _behaviour_entries(spec, behaviour, args.float)}
    payload["term"] = print_term(term)
    if args.json:
        _emit_json(payload)
    else:
        how = "rule-by-rule" if args.direct and not args.oracle else "structural recursion"
        print(f"step of {payload['term']} ({how}):")
        _print_behaviour(payload["entries"], "  ")
        if args.oracle:
            print("step of the same term (rule-by-rule):")
            _print_behaviour(payload["direct_entries"], "  ")
            print(f"agree: {'yes' if payload['agree'] else 'NO'}")
    return 0 if payload.get("agree", True) else 1


def cmd_traces(args):
    spec = _load_spec(args.spec)
    term = _load_term(spec, args.term)
    if args.depth < 0:
        raise CliError("--depth must be >= 0", 2)
    table = trace_bounded(spec, term, args.depth)
    payload = {
        "term": print_term(term),
        "depth": args.depth,
        "traces": _table_entries(spec, table, args.float),
    }
    _weighed(spec, payload, "mass", fs_total(table), args.float)
    if args.oracle:
        # the fixpoint iterate at depth d holds words of length <= d - 1,
        # the path-sum oracle is parameterized by word length
        oracle = (
            trace_direct(spec, term, args.depth - 1)
            if args.depth > 0
            else fs_empty(spec.semiring)
        )
        payload["oracle"] = _table_entries(spec, oracle, args.float)
        payload["agree"] = oracle == table
    if args.json:
        _emit_json(payload)
    else:
        print(f"completed traces of {payload['term']} at depth {payload['depth']}:")
        _print_table(payload["traces"])
        print(f"mass: {_shown(payload, 'mass')}")
        if args.oracle:
            print("path-sum oracle:")
            _print_table(payload["oracle"])
            print(f"agree: {'yes' if payload['agree'] else 'NO'}")
    return 0 if payload.get("agree", True) else 1


def cmd_equiv(args):
    spec = _load_spec(args.spec)
    left = _load_term(spec, args.left)
    right = _load_term(spec, args.right)
    if args.depth < 0:
        raise CliError("--depth must be >= 0", 2)
    difference = first_difference(spec, left, right, args.depth)
    payload = {
        "left": print_term(left),
        "right": print_term(right),
        "depth": args.depth,
        "equivalent": difference is None,
        "first_difference": None,
    }
    if difference is not None:
        word, wl, wr = difference
        payload["first_difference"] = {
            "word": word_to_str(word, spec.labels),
            "left_weight": spec.semiring.show(wl),
            "right_weight": spec.semiring.show(wr),
        }
    if args.json:
        _emit_json(payload)
    else:
        pair, depth = f"{payload['left']} and {payload['right']}", payload["depth"]
        d = payload["first_difference"]
        if d is None:
            print(f"{pair} have equal trace tables at depth {depth}")
        else:
            print(f"{pair} differ at depth {depth}:")
            print(
                f"  word {d['word'] or '(empty)'}: "
                f"{d['left_weight']} vs {d['right_weight']}"
            )
    return 0 if payload["equivalent"] else 1


def _sum_entries(spec, s):
    return [
        {"value": str(p), "weight": spec.semiring.show(w)}
        for p, w in s.sorted_items()
    ]


def _sum_str(entries):
    return "{" + ", ".join(f"{e['value']}: {e['weight']}" for e in entries) + "}"


def _arg_json(spec, arg):
    if isinstance(arg, Pure):
        return {"kind": "pure", "sum": _sum_entries(spec, arg.value)}
    if arg.elem is STOP:
        return {"kind": "stop"}
    return {
        "kind": "step",
        "label": arg.elem.label,
        "sum": _sum_entries(spec, arg.elem.target),
    }


def _arg_str(arg):
    if arg["kind"] == "pure":
        return f"pure {_sum_str(arg['sum'])}"
    if arg["kind"] == "stop":
        return "observed termination"
    return f"observed step {arg['label']} into {_sum_str(arg['sum'])}"


def cmd_naturality(args):
    spec = _load_spec(args.spec)
    try:
        result = naturality_check(
            spec, carrier_size=args.carrier, include_nonaffine=args.include_nonaffine
        )
    except ValueError as exc:
        raise CliError(str(exc), 2) from None
    payload = {
        "carrier": list(result.carrier),
        "include_nonaffine": args.include_nonaffine,
        "checked": result.checked,
        "passed": result.passed,
        "witness": None,
    }
    if result.witness is not None:
        w = result.witness
        payload["witness"] = {
            "op": w.op,
            "args": [_arg_json(spec, a) for a in w.args],
            "law_first": _behaviour_entries(spec, w.law_first),
            "args_first": _behaviour_entries(spec, w.args_first),
        }
    if args.json:
        _emit_json(payload)
    else:
        mode = "affine and sub-unit sums" if payload["include_nonaffine"] else "affine sums"
        carrier = ", ".join(payload["carrier"])
        w = payload["witness"]
        if w is None:
            print(
                f"naturality holds on carrier ({carrier}) over {mode}: "
                f"{payload['checked']} inputs checked"
            )
        else:
            print(
                f"naturality fails on carrier ({carrier}) over {mode} "
                f"(input {payload['checked']}):"
            )
            print(f"  operator {w['op']}")
            for i, a in enumerate(w["args"], start=1):
                print(f"  argument {i}: {_arg_str(a)}")
            print("  law first, then distribute:")
            _print_behaviour(w["law_first"], "    ")
            print("  distribute arguments first, then law:")
            _print_behaviour(w["args_first"], "    ")
    return 0 if payload["passed"] else 1


def cmd_congruence(args):
    spec = _load_spec(args.spec)
    if args.depth < 1:
        raise CliError("--depth must be >= 1", 2)
    if args.size < 0:
        raise CliError("--size must be >= 0", 2)
    if args.contexts < 0:
        raise CliError("--contexts must be >= 0", 2)
    buckets = fingerprint_buckets(spec, args.size, args.depth)
    try:
        violation = counterexample_search(
            spec,
            args.size,
            args.depth,
            extra_contexts=args.contexts,
            seed=args.seed,
            buckets=buckets,
        )
    except ValueError as exc:
        raise CliError(str(exc), 2) from None
    payload = {
        "size": args.size,
        "depth": args.depth,
        "extra_contexts": args.contexts,
        "seed": args.seed,
        "terms": sum(len(members) for _, members, _ in buckets),
        "equivalent_pairs": sum(
            len(members) * (len(members) - 1) // 2 for _, members, _ in buckets
        ),
        "violation": violation.describe(spec) if violation else None,
        "passed": violation is None,
    }
    if args.json:
        _emit_json(payload)
    elif payload["passed"]:
        print(
            f"no congruence violation: {payload['terms']} terms of size "
            f"<= {payload['size']}, {payload['equivalent_pairs']} trace-equivalent "
            f"pairs at depth {payload['depth']}, seed {payload['seed']}"
        )
    else:
        d = payload["violation"]
        print("congruence violation:")
        print(f"  pair:     {d['pair'][0]}  vs  {d['pair'][1]}")
        print(f"  context:  {d['context']}")
        print(f"  word:     {d['word'] or '(empty)'}")
        print(f"  weights:  {d['left_weight']} vs {d['right_weight']}")
        print(f"  verified by path-sum recomputation: {'yes' if d['verified'] else 'NO'}")
        if d["deep_context"]:
            print("  (found only beyond the depth-1 context layer)")
    return 0 if payload["passed"] else 1


def cmd_ast(args):
    spec = _load_spec(args.spec)
    if spec.semiring.name != "rational":
        raise CliError("ast needs a weighted spec over the rational semiring", 2)
    term = _load_term(spec, args.term)
    if args.depth < 1:
        raise CliError("--depth must be >= 1", 2)
    report = ast_estimate(spec, term, args.depth)
    payload = {
        "term": print_term(term),
        "depth": args.depth,
        "masses": [
            _weighed(spec, {"depth": depth}, "mass", mass, args.float)
            for depth, mass in report.masses
        ],
        "verdict": report.verdict,
        "exact": report.exact,
        "limit": None,
        "detail": report.detail,
    }
    if report.limit is not None:
        _weighed(spec, payload, "limit", report.limit, args.float)
    if args.json:
        _emit_json(payload)
    else:
        print(f"completed-trace mass of {payload['term']} by depth:")
        for e in payload["masses"]:
            print(f"  {e['depth']:>3}  {_shown(e, 'mass')}")
        if payload["limit"] is not None:
            print(f"limit: {_shown(payload, 'limit')} (exact)")
        print(f"verdict: {payload['verdict']}")
        print(f"  {payload['detail']}")
    return 0 if payload["verdict"] == "ast-consistent" else 1


# --- wiring ----------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="desimone",
        description=(
            "Parse weighted transition-rule specifications, validate them "
            "against the rule format, and run the induced semantics and its "
            "checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_arg(p):
        p.add_argument("spec", help="path to a .spec file")

    def json_arg(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def float_arg(p):
        p.add_argument(
            "--float", action="store_true", help="append decimal approximations"
        )

    p = sub.add_parser("validate", help="check a spec against the rule format")
    spec_arg(p)
    json_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("step", help="one-step behaviour of a closed term")
    spec_arg(p)
    p.add_argument("term", help="closed term, e.g. 'par(pre_a(nil), nil)'")
    p.add_argument(
        "--direct",
        action="store_true",
        help="compute rule-by-rule instead of through the law pipeline",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="compute both ways and compare",
    )
    json_arg(p)
    float_arg(p)
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("traces", help="bounded completed-trace table of a term")
    spec_arg(p)
    p.add_argument("term")
    p.add_argument("--depth", type=int, default=5, help="fixpoint iterations (default 5)")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also compute by path summation and compare",
    )
    json_arg(p)
    float_arg(p)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("equiv", help="compare two terms' bounded trace tables")
    spec_arg(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--depth", type=int, default=6, help="table depth (default 6)")
    json_arg(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser(
        "congruence",
        help="search enumerated trace-equivalent pairs for a context that splits them",
    )
    spec_arg(p)
    p.add_argument("--size", type=int, default=6, help="term size bound (default 6)")
    p.add_argument("--depth", type=int, default=4, help="trace depth (default 4)")
    p.add_argument(
        "--contexts",
        type=int,
        default=100,
        help="random contexts beyond the depth-1 layer (default 100)",
    )
    p.add_argument("--seed", type=int, default=0, help="context sampling seed")
    json_arg(p)
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser(
        "naturality",
        help="compare the two evaluation orders of the law on a small carrier",
    )
    spec_arg(p)
    p.add_argument(
        "--carrier", type=int, default=2, help="carrier size 1..3 (default 2)"
    )
    p.add_argument(
        "--include-nonaffine",
        action="store_true",
        help="also range over empty and sub-unit argument sums",
    )
    json_arg(p)
    p.set_defaults(func=cmd_naturality)

    p = sub.add_parser(
        "ast", help="estimate whether a term terminates with probability one"
    )
    spec_arg(p)
    p.add_argument("term")
    p.add_argument("--depth", type=int, default=20, help="mass sequence depth (default 20)")
    json_arg(p)
    float_arg(p)
    p.set_defaults(func=cmd_ast)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the exit flush writes to devnull (Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(f"desimone: {exc}", file=sys.stderr)
        return exc.code
    except RuleTargetError as exc:
        print(f"desimone: {args.spec}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "desimone: input too deep for this command "
            "(maximum recursion depth exceeded)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
