"""Command-line front end: load a spec file, run one analysis, report.

One pipeline serves every command: ``main`` loads the spec, runs the
command's ``cmd_X``, which computes its result once as a payload, prints
that payload as ``--json`` or hands it to ``show_X`` for the human output,
and sets the exit code. The JSON has sorted keys and deterministic entry
order, byte-identical across runs for fixed inputs and seeds. The human
output is rendered from the payload and the flags alone: weights as exact
strings ("1/4", "inf"), and with ``--float`` each followed by its decimal
approximation, ``null`` in JSON when it has none. Only ``rulespec``,
``semiring`` and ``terms`` load with this module; each command, or the
helper that needs one, imports the other layers in its own body, so a
command loads only what it runs.

Exit codes: 0 success / property holds, 1 semantic failure (format
violation, witness, inequivalence, bad term), 2 usage, file or spec-parse
error, a fired rule whose target names an unbound variable, a library
refusal (a ``ValueError``: a bound out of range, a declared arity too wide
to enumerate, or more than ``MAX_CLOSED_TERMS`` closed terms up to
``--size``), an input too deep for Python's recursion limit, or one that
runs out of memory. ``main`` maps each refusal to one line on stderr.
A reader that closes stdout early ends the command quietly with exit 1.
Two inputs meet the depth refusal: a table depth past the limit (tables
recurse once per depth, and ``traces`` tables before its ``--oracle`` lists
a path, so ``traces --depth 3000`` is refused either way), and premised
nesting past it under ``step`` (it recurses once per premised level, so
``step --direct`` refuses ``par`` nested 10,000 deep). Term depth alone is
answered: every whole-term walk goes through ``terms.fold`` or a stack of
its own, and a term's sort key is flat, so rule targets of any depth fire
and sort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .rulespec import RuleTargetError, SpecParseError, parse_spec, validate_format
from .terms import TermSyntaxError, parse_term, print_term


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


def _entries(spec, s, entry, with_float=False):
    """The weighted listing of the formal sum ``s``: per element, in sorted
    order, the dict ``entry(element)`` with its weight stored by ``_weighed``."""
    return [_weighed(spec, entry(p), "weight", w, with_float) for p, w in s.sorted_items()]


def _move(e):
    """A behaviour's element as an entry: a stop or a labelled step."""
    from .formalsum import STOP

    if e is STOP:
        return {"kind": "stop"}
    return {"kind": "step", "label": e.label, "target": print_term(e.target)}


def _print_behaviour(entries, indent):
    if not entries:
        print(f"{indent}(empty)")
    for e in entries:
        move = "-> *" if e["kind"] == "stop" else f"-{e['label']}-> {e['target']}"
        print(f"{indent}{move}  [{_shown(e, 'weight')}]")


def _print_table(entries):
    if not entries:
        print("  (no completed traces)")
    for e in entries:
        print(f"  {e['word'] or '(empty)':<12} {_shown(e, 'weight')}")


# --- subcommands -----------------------------------------------------------
#
# Each command is ``cmd_X(spec, args)``, which returns its ``--json`` payload
# and whether the checked property holds, and ``show_X(payload, args)``,
# which renders the human output from that payload and the flags alone.

def _at_least(args, flag, low):
    if getattr(args, flag) < low:
        raise CliError(f"--{flag} must be >= {low}", 2)


def cmd_validate(spec, args):
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
            {f: getattr(v, f) for f in v.__slots__} for v in validate_format(spec)
        ],
    }
    found = payload["violations"]
    payload["valid"] = not any(v["severity"] == "error" for v in found)
    return payload, payload["valid"]


def show_validate(payload, args):
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
    errors = sum(v["severity"] == "error" for v in found)
    if errors:
        print(f"invalid: {errors} format violations, {len(found) - errors} warnings")
    elif found:
        print(f"valid with {len(found)} warnings")
    else:
        print("valid")


def cmd_step(spec, args):
    from .law import step_law
    from .opmodel import step

    term = _load_term(spec, args.term)
    if args.oracle:
        canonical = step_law(spec, term)
        direct = step(spec, term)
        payload = {
            "entries": _entries(spec, canonical, _move, args.float),
            "direct_entries": _entries(spec, direct, _move, args.float),
            "agree": canonical == direct,
        }
    else:
        behaviour = step(spec, term) if args.direct else step_law(spec, term)
        payload = {"entries": _entries(spec, behaviour, _move, args.float)}
    payload["term"] = print_term(term)
    return payload, payload.get("agree", True)


def show_step(payload, args):
    how = "rule-by-rule" if args.direct and not args.oracle else "structural recursion"
    print(f"step of {payload['term']} ({how}):")
    _print_behaviour(payload["entries"], "  ")
    if args.oracle:
        print("step of the same term (rule-by-rule):")
        _print_behaviour(payload["direct_entries"], "  ")
        print(f"agree: {'yes' if payload['agree'] else 'NO'}")


def cmd_traces(spec, args):
    from .formalsum import fs_empty, fs_total
    from .trace import trace_bounded, trace_direct, word_to_str

    def listed(table):
        return _entries(spec, table, lambda w: {"word": word_to_str(w, spec.labels)}, args.float)

    term = _load_term(spec, args.term)
    _at_least(args, "depth", 0)
    table = trace_bounded(spec, term, args.depth)
    payload = {"term": print_term(term), "depth": args.depth, "traces": listed(table)}
    _weighed(spec, payload, "mass", fs_total(table), args.float)
    if args.oracle:
        # the fixpoint iterate at depth d holds words of length <= d - 1,
        # the path-sum oracle is parameterized by word length
        oracle = (
            trace_direct(spec, term, args.depth - 1)
            if args.depth > 0
            else fs_empty(spec.semiring)
        )
        payload["oracle"] = listed(oracle)
        payload["agree"] = oracle == table
    return payload, payload.get("agree", True)


def show_traces(payload, args):
    print(f"completed traces of {payload['term']} at depth {payload['depth']}:")
    _print_table(payload["traces"])
    print(f"mass: {_shown(payload, 'mass')}")
    if args.oracle:
        print("path-sum oracle:")
        _print_table(payload["oracle"])
        print(f"agree: {'yes' if payload['agree'] else 'NO'}")


def cmd_equiv(spec, args):
    from .analysis import first_difference
    from .trace import word_to_str

    left = _load_term(spec, args.left)
    right = _load_term(spec, args.right)
    _at_least(args, "depth", 0)
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
    return payload, payload["equivalent"]


def show_equiv(payload, args):
    pair, depth = f"{payload['left']} and {payload['right']}", payload["depth"]
    d = payload["first_difference"]
    if d is None:
        print(f"{pair} have equal trace tables at depth {depth}")
    else:
        print(f"{pair} differ at depth {depth}:")
        print(f"  word {d['word'] or '(empty)'}: {d['left_weight']} vs {d['right_weight']}")


def _sum_str(entries):
    return "{" + ", ".join(f"{e['value']}: {e['weight']}" for e in entries) + "}"


def _arg_json(spec, arg):
    from .formalsum import STOP, Pure

    def listed(s):
        return _entries(spec, s, lambda p: {"value": str(p)})

    if isinstance(arg, Pure):
        return {"kind": "pure", "sum": listed(arg.value)}
    if arg.elem is STOP:
        return {"kind": "stop"}
    return {"kind": "step", "label": arg.elem.label, "sum": listed(arg.elem.target)}


def _arg_str(arg):
    if arg["kind"] == "pure":
        return f"pure {_sum_str(arg['sum'])}"
    if arg["kind"] == "stop":
        return "observed termination"
    return f"observed step {arg['label']} into {_sum_str(arg['sum'])}"


def cmd_naturality(spec, args):
    from .law import naturality_check

    result = naturality_check(
        spec, carrier_size=args.carrier, include_nonaffine=args.include_nonaffine
    )
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
            "law_first": _entries(spec, w.law_first, _move),
            "args_first": _entries(spec, w.args_first, _move),
        }
    return payload, payload["passed"]


def show_naturality(payload, args):
    mode = "affine and sub-unit sums" if payload["include_nonaffine"] else "affine sums"
    carrier = ", ".join(payload["carrier"])
    w = payload["witness"]
    if w is None:
        print(
            f"naturality holds on carrier ({carrier}) over {mode}: "
            f"{payload['checked']} inputs checked"
        )
        return
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


def cmd_congruence(spec, args):
    from .analysis import counterexample_search, fingerprint_buckets

    _at_least(args, "depth", 1)
    _at_least(args, "size", 0)
    _at_least(args, "contexts", 0)
    buckets = fingerprint_buckets(spec, args.size, args.depth)
    violation = counterexample_search(spec, args.size, args.depth, args.contexts, args.seed)
    payload = {
        "size": args.size,
        "depth": args.depth,
        "extra_contexts": args.contexts,
        "seed": args.seed,
        "terms": sum(n for _, n, _ in buckets),
        "equivalent_pairs": sum(n * (n - 1) // 2 for _, n, _ in buckets),
        "violation": violation.describe(spec) if violation else None,
        "passed": violation is None,
    }
    return payload, payload["passed"]


def show_congruence(payload, args):
    d = payload["violation"]
    if d is None:
        print(
            f"no congruence violation: {payload['terms']} terms of size "
            f"<= {payload['size']}, {payload['equivalent_pairs']} trace-equivalent "
            f"pairs at depth {payload['depth']}, seed {payload['seed']}"
        )
        return
    print("congruence violation:")
    print(f"  pair:     {d['pair'][0]}  vs  {d['pair'][1]}")
    print(f"  context:  {d['context']}")
    print(f"  word:     {d['word'] or '(empty)'}")
    print(f"  weights:  {d['left_weight']} vs {d['right_weight']}")
    print(f"  verified by path-sum recomputation: {'yes' if d['verified'] else 'NO'}")
    if d["deep_context"]:
        print("  (found only beyond the depth-1 context layer)")


def cmd_ast(spec, args):
    from .trace import ast_estimate

    if spec.semiring.name != "rational":
        raise CliError("ast needs a weighted spec over the rational semiring", 2)
    term = _load_term(spec, args.term)
    _at_least(args, "depth", 1)
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
    return payload, payload["verdict"] == "ast-consistent"


def show_ast(payload, args):
    print(f"completed-trace mass of {payload['term']} by depth:")
    for e in payload["masses"]:
        print(f"  {e['depth']:>3}  {_shown(e, 'mass')}")
    if payload["limit"] is not None:
        print(f"limit: {_shown(payload, 'limit')} (exact)")
    print(f"verdict: {payload['verdict']}")
    print(f"  {payload['detail']}")


# --- wiring ----------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


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

    def command(name, summary, run, show, *arguments, floats=False):
        """A subcommand: ``spec``, then ``arguments`` (``_arg`` pairs), then
        ``--json`` and, with ``floats``, ``--float``; argparse lists the
        options in that order."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("spec", help="path to a .spec file")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if floats:
            p.add_argument(
                "--float", action="store_true", help="append decimal approximations"
            )
        p.set_defaults(run=run, show=show)

    command("validate", "check a spec against the rule format", cmd_validate, show_validate)
    command(
        "step", "one-step behaviour of a closed term", cmd_step, show_step,
        _arg("term", help="closed term, e.g. 'par(pre_a(nil), nil)'"),
        _arg(
            "--direct",
            action="store_true",
            help="compute rule-by-rule instead of through the law pipeline",
        ),
        _arg("--oracle", action="store_true", help="compute both ways and compare"),
        floats=True,
    )
    command(
        "traces", "bounded completed-trace table of a term", cmd_traces, show_traces,
        _arg("term"),
        _arg("--depth", type=int, default=5, help="fixpoint iterations (default 5)"),
        _arg(
            "--oracle",
            action="store_true",
            help="also compute by path summation and compare",
        ),
        floats=True,
    )
    command(
        "equiv", "compare two terms' bounded trace tables", cmd_equiv, show_equiv,
        _arg("left"),
        _arg("right"),
        _arg("--depth", type=int, default=6, help="table depth (default 6)"),
    )
    command(
        "congruence",
        "search enumerated trace-equivalent pairs for a context that splits them",
        cmd_congruence,
        show_congruence,
        _arg("--size", type=int, default=6, help="term size bound (default 6)"),
        _arg("--depth", type=int, default=4, help="trace depth (default 4)"),
        _arg(
            "--contexts",
            type=int,
            default=100,
            help="random contexts beyond the depth-1 layer (default 100)",
        ),
        _arg("--seed", type=int, default=0, help="context sampling seed"),
    )
    command(
        "naturality",
        "compare the two evaluation orders of the law on a small carrier",
        cmd_naturality,
        show_naturality,
        _arg("--carrier", type=int, default=2, help="carrier size 1..3 (default 2)"),
        _arg(
            "--include-nonaffine",
            action="store_true",
            help="also range over empty and sub-unit argument sums",
        ),
    )
    command(
        "ast", "estimate whether a term terminates with probability one", cmd_ast, show_ast,
        _arg("term"),
        _arg("--depth", type=int, default=20, help="mass sequence depth (default 20)"),
        floats=True,
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        payload, holds = args.run(_load_spec(args.spec), args)
        if args.json:
            _emit_json(payload)
        else:
            args.show(payload, args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return 0 if holds else 1
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
    except MemoryError:
        print("desimone: out of memory for this command", file=sys.stderr)
        return 2
    except ValueError as exc:  # a library refusal: a bound or a range
        print(f"desimone: {exc}", file=sys.stderr)
        return 2
