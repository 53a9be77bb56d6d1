"""Command-line front end: load a spec file, run one analysis, report.

Human output prints weights as exact strings ("1/4", "inf"); ``--float``
appends decimal approximations. ``--json`` switches to a machine rendering
with sorted keys and deterministic entry order, byte-identical across runs
for fixed inputs and seeds.

Exit codes: 0 success / property holds, 1 semantic failure (format
violation, witness, inequivalence, bad term), 2 usage, file or spec-parse
error, or an input nested or chained too deeply for Python's recursion
limit (``traces`` and ``equiv`` recurse once per depth), refused with one
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import counterexample_search, fingerprint_buckets, first_difference
from .formalsum import STOP, Obs, Pure
from .law import naturality_check
from .opmodel import step, step_law
from .rulespec import SpecParseError, parse_spec, validate_format
from .terms import Leaf, TermSyntaxError, Var, parse_term, print_term
from .trace import ast_estimate, empty_table, total_mass, trace_bounded, trace_direct, word_to_str


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
    print(json.dumps(payload, sort_keys=True, indent=2))


def _show_weight(spec, w, with_float):
    text = spec.semiring.show(w)
    if with_float:
        text += f" = {spec.semiring.as_float(w):g}"
    return text


def _behaviour_entries(spec, behaviour, with_float):
    entries = []
    for e, w in behaviour.sorted_items():
        if e is STOP:
            entry = {"kind": "stop", "weight": spec.semiring.show(w)}
        else:
            entry = {
                "kind": "step",
                "label": e.label,
                "target": print_term(e.target),
                "weight": spec.semiring.show(w),
            }
        if with_float:
            entry["weight_float"] = spec.semiring.as_float(w)
        entries.append(entry)
    return entries


def _print_behaviour(spec, behaviour, with_float, indent="  "):
    if not len(behaviour):
        print(f"{indent}(empty)")
    for e, w in behaviour.sorted_items():
        weight = _show_weight(spec, w, with_float)
        if e is STOP:
            print(f"{indent}-> *  [{weight}]")
        else:
            print(f"{indent}-{e.label}-> {print_term(e.target)}  [{weight}]")


def _word_str(spec, word):
    return word_to_str(word, spec.labels) if word else "(empty)"


def _table_entries(spec, table, with_float):
    entries = []
    for word, w in table.sorted_items():
        entry = {
            "word": word_to_str(word, spec.labels),
            "weight": spec.semiring.show(w),
        }
        if with_float:
            entry["weight_float"] = spec.semiring.as_float(w)
        entries.append(entry)
    return entries


def _print_table(spec, table, with_float, indent="  "):
    if not len(table):
        print(f"{indent}(no completed traces)")
    for word, w in table.sorted_items():
        print(f"{indent}{_word_str(spec, word):<12} {_show_weight(spec, w, with_float)}")


# --- subcommands -----------------------------------------------------------

def cmd_validate(args):
    spec = _load_spec(args.spec)
    violations = validate_format(spec)
    errors = [v for v in violations if v.severity == "error"]
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
        ops = ", ".join(f"{n}/{spec.signature.arity(n)}" for n in spec.signature.names())
        print(
            f"{args.spec}: dialect {spec.dialect}, semiring {spec.semiring.name}, "
            f"labels {', '.join(spec.labels)}, ops {ops}, {len(spec.rules)} ground rules"
        )
        for v in violations:
            print(f"  line {v.line} {v.severity} {v.condition}: {v.fragment}")
            print(f"    in rule: {v.rule}")
        if errors:
            warnings = len(violations) - len(errors)
            print(f"invalid: {len(errors)} format violations, {warnings} warnings")
        elif violations:
            print(f"valid with {len(violations)} warnings")
        else:
            print("valid")
    return 1 if errors else 0


def cmd_step(args):
    spec = _load_spec(args.spec)
    term = _load_term(spec, args.term)
    if args.oracle:
        canonical = step_law(spec, term)
        direct = step(spec, term)
        agree = canonical == direct
        payload = {
            "term": print_term(term),
            "entries": _behaviour_entries(spec, canonical, args.float),
            "direct_entries": _behaviour_entries(spec, direct, args.float),
            "agree": agree,
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"step of {print_term(term)} (structural recursion):")
            _print_behaviour(spec, canonical, args.float)
            print("step of the same term (rule-by-rule):")
            _print_behaviour(spec, direct, args.float)
            print(f"agree: {'yes' if agree else 'NO'}")
        return 0 if agree else 1

    behaviour = step(spec, term) if args.direct else step_law(spec, term)
    payload = {
        "term": print_term(term),
        "entries": _behaviour_entries(spec, behaviour, args.float),
    }
    if args.json:
        _emit_json(payload)
    else:
        how = "rule-by-rule" if args.direct else "structural recursion"
        print(f"step of {print_term(term)} ({how}):")
        _print_behaviour(spec, behaviour, args.float)
    return 0


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
        "mass": spec.semiring.show(total_mass(table)),
    }
    if args.float:
        payload["mass_float"] = spec.semiring.as_float(total_mass(table))
    agree = None
    if args.oracle:
        # the fixpoint iterate at depth d holds words of length <= d - 1,
        # the path-sum oracle is parameterized by word length
        oracle = (
            trace_direct(spec, term, args.depth - 1)
            if args.depth > 0
            else empty_table(spec.semiring)
        )
        agree = oracle == table
        payload["oracle"] = _table_entries(spec, oracle, args.float)
        payload["agree"] = agree
    if args.json:
        _emit_json(payload)
    else:
        print(f"completed traces of {print_term(term)} at depth {args.depth}:")
        _print_table(spec, table, args.float)
        print(f"mass: {_show_weight(spec, total_mass(table), args.float)}")
        if args.oracle:
            print("path-sum oracle:")
            _print_table(spec, oracle, args.float)
            print(f"agree: {'yes' if agree else 'NO'}")
    return 0 if agree in (None, True) else 1


def cmd_equiv(args):
    spec = _load_spec(args.spec)
    left = _load_term(spec, args.left)
    right = _load_term(spec, args.right)
    if args.depth < 0:
        raise CliError("--depth must be >= 0", 2)
    difference = first_difference(spec, left, right, args.depth)
    equivalent = difference is None
    payload = {
        "left": print_term(left),
        "right": print_term(right),
        "depth": args.depth,
        "equivalent": equivalent,
        "first_difference": None,
    }
    if not equivalent:
        word, wl, wr = difference
        payload["first_difference"] = {
            "word": word_to_str(word, spec.labels),
            "left_weight": spec.semiring.show(wl),
            "right_weight": spec.semiring.show(wr),
        }
    if args.json:
        _emit_json(payload)
    elif equivalent:
        print(
            f"{print_term(left)} and {print_term(right)} have equal trace "
            f"tables at depth {args.depth}"
        )
    else:
        print(f"{print_term(left)} and {print_term(right)} differ at depth {args.depth}:")
        print(
            f"  word {_word_str(spec, word)}: "
            f"{spec.semiring.show(wl)} vs {spec.semiring.show(wr)}"
        )
    return 0 if equivalent else 1


def _sum_entries(spec, s):
    return [
        {"value": str(p), "weight": spec.semiring.show(w)}
        for p, w in s.sorted_items()
    ]


def _sum_str(spec, s):
    body = ", ".join(f"{p}: {spec.semiring.show(w)}" for p, w in s.sorted_items())
    return "{" + body + "}"


def _tree_str(t):
    """Terms whose leaves carry carrier elements or variables."""
    if isinstance(t, Leaf):
        p = t.payload
        if isinstance(p, str):
            return p
        if isinstance(p, Var):
            return p.name
        return repr(p)
    if not t.children:
        return t.op
    return f"{t.op}({', '.join(_tree_str(c) for c in t.children)})"


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


def _arg_str(spec, arg):
    if isinstance(arg, Pure):
        return f"pure {_sum_str(spec, arg.value)}"
    if arg.elem is STOP:
        return "observed termination"
    return f"observed step {arg.elem.label} into {_sum_str(spec, arg.elem.target)}"


def _leg_entries(spec, leg):
    entries = []
    for e, w in leg.sorted_items():
        if e is STOP:
            entries.append({"kind": "stop", "weight": spec.semiring.show(w)})
        else:
            entries.append(
                {
                    "kind": "step",
                    "label": e.label,
                    "target": _tree_str(e.target),
                    "weight": spec.semiring.show(w),
                }
            )
    return entries


def _print_leg(spec, leg):
    if not len(leg):
        print("    (empty)")
    for e, w in leg.sorted_items():
        weight = spec.semiring.show(w)
        if e is STOP:
            print(f"    -> *  [{weight}]")
        else:
            print(f"    -{e.label}-> {_tree_str(e.target)}  [{weight}]")


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
            "law_first": _leg_entries(spec, w.law_first),
            "args_first": _leg_entries(spec, w.args_first),
        }
    if args.json:
        _emit_json(payload)
    else:
        mode = "affine and sub-unit sums" if args.include_nonaffine else "affine sums"
        carrier = ", ".join(result.carrier)
        if result.passed:
            print(
                f"naturality holds on carrier ({carrier}) over {mode}: "
                f"{result.checked} inputs checked"
            )
        else:
            w = result.witness
            print(
                f"naturality fails on carrier ({carrier}) over {mode} "
                f"(input {result.checked}):"
            )
            print(f"  operator {w.op}")
            for i, a in enumerate(w.args, start=1):
                print(f"  argument {i}: {_arg_str(spec, a)}")
            print("  law first, then distribute:")
            _print_leg(spec, w.law_first)
            print("  distribute arguments first, then law:")
            _print_leg(spec, w.args_first)
    return 0 if result.passed else 1


def cmd_congruence(args):
    spec = _load_spec(args.spec)
    if args.depth < 1:
        raise CliError("--depth must be >= 1", 2)
    buckets = fingerprint_buckets(spec, args.size, args.depth)
    terms = sum(len(members) for _, members in buckets)
    pairs = sum(
        len(members) * (len(members) - 1) // 2 for _, members in buckets
    )
    violation = counterexample_search(
        spec,
        args.size,
        args.depth,
        extra_contexts=args.contexts,
        seed=args.seed,
        buckets=buckets,
    )
    payload = {
        "size": args.size,
        "depth": args.depth,
        "extra_contexts": args.contexts,
        "seed": args.seed,
        "terms": terms,
        "equivalent_pairs": pairs,
        "violation": violation.describe(spec) if violation else None,
        "passed": violation is None,
    }
    if args.json:
        _emit_json(payload)
    elif violation is None:
        print(
            f"no congruence violation: {terms} terms of size <= {args.size}, "
            f"{pairs} trace-equivalent pairs at depth {args.depth}, "
            f"seed {args.seed}"
        )
    else:
        d = violation.describe(spec)
        print("congruence violation:")
        print(f"  pair:     {d['pair'][0]}  vs  {d['pair'][1]}")
        print(f"  context:  {d['context']}")
        print(f"  word:     {d['word'] or '(empty)'}")
        print(f"  weights:  {d['left_weight']} vs {d['right_weight']}")
        print(f"  verified by path-sum recomputation: {'yes' if d['verified'] else 'NO'}")
        if d["deep_context"]:
            print("  (found only beyond the depth-1 context layer)")
    return 0 if violation is None else 1


def cmd_ast(args):
    spec = _load_spec(args.spec)
    if spec.semiring.name != "rational":
        raise CliError("ast needs a weighted spec over the rational semiring", 2)
    term = _load_term(spec, args.term)
    if args.depth < 1:
        raise CliError("--depth must be >= 1", 2)
    report = ast_estimate(spec, term, args.depth)
    masses = []
    for depth, mass in report.masses:
        entry = {"depth": depth, "mass": spec.semiring.show(mass)}
        if args.float:
            entry["mass_float"] = spec.semiring.as_float(mass)
        masses.append(entry)
    payload = {
        "term": print_term(term),
        "depth": args.depth,
        "masses": masses,
        "verdict": report.verdict,
        "exact": report.exact,
        "limit": spec.semiring.show(report.limit) if report.limit is not None else None,
        "detail": report.detail,
    }
    if args.float and report.limit is not None:
        payload["limit_float"] = spec.semiring.as_float(report.limit)
    if args.json:
        _emit_json(payload)
    else:
        print(f"completed-trace mass of {print_term(term)} by depth:")
        for depth, mass in report.masses:
            print(f"  {depth:>3}  {_show_weight(spec, mass, args.float)}")
        if report.limit is not None:
            print(f"limit: {_show_weight(spec, report.limit, args.float)} (exact)")
        print(f"verdict: {report.verdict}")
        print(f"  {report.detail}")
    return 0 if report.verdict == "ast-consistent" else 1


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
        return args.func(args)
    except CliError as exc:
        print(f"desimone: {exc}", file=sys.stderr)
        return exc.code
    except RecursionError:
        print(
            "desimone: input too deep for this command "
            "(maximum recursion depth exceeded)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
