"""Command-line behaviour: output bytes, exit codes, error routing.

Everything runs in-process through ``main(argv)`` except the subprocess
tests: a smoke test for the console-script entry point declared in
pyproject.toml, a reader that closes stdout early, ``validate`` under two
hash seeds, and, under an address-space limit, the refusals of inputs too
wide to enumerate and a search past an operator with no rules.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import desimone
from desimone import load_spec, spec_path
from desimone.cli import cmd_validate, main
from test_error_pins import WIDE_RULE


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def path(name):
    return str(spec_path(name))


# --- step -------------------------------------------------------------------

def test_step_json_bytes(run):
    code, out, err = run("step", path("prob_par"), "par(pre_a(nil), nil)", "--json")
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "entries": [\n'
        "    {\n"
        '      "kind": "stop",\n'
        '      "weight": "1/2"\n'
        "    },\n"
        "    {\n"
        '      "kind": "step",\n'
        '      "label": "a",\n'
        '      "target": "par(nil, nil)",\n'
        '      "weight": "1/2"\n'
        "    }\n"
        "  ],\n"
        '  "term": "par(pre_a(nil), nil)"\n'
        "}\n"
    )


def test_step_human_with_floats(run):
    code, out, _ = run("step", path("prob_par"), "par(pre_a(nil), nil)", "--float")
    assert code == 0
    assert out.splitlines() == [
        "step of par(pre_a(nil), nil) (structural recursion):",
        "  -> *  [1/2 = 0.5]",
        "  -a-> par(nil, nil)  [1/2 = 0.5]",
    ]


def test_step_oracle_human_with_floats(run):
    code, out, err = run(
        "step", path("prob_par"), "par(pre_a(nil), nil)", "--oracle", "--float"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "step of par(pre_a(nil), nil) (structural recursion):",
        "  -> *  [1/2 = 0.5]",
        "  -a-> par(nil, nil)  [1/2 = 0.5]",
        "step of the same term (rule-by-rule):",
        "  -> *  [1/2 = 0.5]",
        "  -a-> par(nil, nil)  [1/2 = 0.5]",
        "agree: yes",
    ]


def test_step_oracle_mode_compares_both_computations(run):
    code, out, _ = run("step", path("prob_par"), "nil", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["entries"] == payload["direct_entries"]
    assert payload["entries"] == [{"kind": "stop", "weight": "1"}]


def test_step_direct_flag(run):
    code, out, _ = run("step", path("de_simone_par"), "pre_a(nil)", "--direct", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == [
        {"kind": "stop", "weight": "1"},
        {"kind": "step", "label": "a", "target": "nil", "weight": "1"},
    ]


def test_step_direct_on_terms_nested_past_half_the_recursion_limit(run):
    # sorting the 501 deep targets compared their keys recursively in C
    nested = "par(pre_a(nil), " * 500 + "nil" + ")" * 500
    code, out, err = run("step", path("de_simone_par"), nested, "--direct", "--json")
    assert (code, err) == (0, "")
    entries = json.loads(out)["entries"]
    assert len(entries) == 501 and entries[0] == {"kind": "stop", "weight": "1"}
    assert all(e["label"] == "a" and e["weight"] == "1" for e in entries[1:])
    assert len({e["target"] for e in entries[1:]}) == 500
    assert entries[1]["target"] == "par(nil, " + nested[16:]


# --- traces -----------------------------------------------------------------

def test_traces_json_with_oracle(run):
    code, out, _ = run(
        "traces", path("prob_par"), "par(pre_a(nil), pre_b(nil))",
        "--depth", "3", "--json", "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    quarters = [
        {"weight": "1/4", "word": "a"},
        {"weight": "1/4", "word": "b"},
        {"weight": "1/4", "word": "ab"},
        {"weight": "1/4", "word": "ba"},
    ]
    assert payload["traces"] == quarters
    assert payload["oracle"] == quarters
    assert payload["agree"] is True and payload["mass"] == "1"


def test_traces_human_table(run):
    code, out, _ = run(
        "traces", path("prob_par"), "par(pre_a(nil), pre_b(nil))", "--depth", "3"
    )
    assert code == 0
    assert out.splitlines() == [
        "completed traces of par(pre_a(nil), pre_b(nil)) at depth 3:",
        "  a            1/4",
        "  b            1/4",
        "  ab           1/4",
        "  ba           1/4",
        "mass: 1",
    ]


def test_traces_human_oracle_with_floats(run):
    code, out, err = run(
        "traces", path("leaky"), "c0", "--depth", "3", "--float", "--oracle"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "completed traces of c0 at depth 3:",
        "  (empty)      1/3 = 0.333333",
        "  a            1/6 = 0.166667",
        "  aa           1/12 = 0.0833333",
        "mass: 7/12 = 0.583333",
        "path-sum oracle:",
        "  (empty)      1/3 = 0.333333",
        "  a            1/6 = 0.166667",
        "  aa           1/12 = 0.0833333",
        "agree: yes",
    ]


# --- equiv ------------------------------------------------------------------

def test_equiv_equal_terms(run):
    code, out, _ = run(
        "equiv", path("prob_par"), "nil", "par(nil, nil)", "--depth", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True and payload["first_difference"] is None


def test_equiv_reports_the_splitting_word(run):
    code, out, _ = run(
        "equiv", path("prob_par"), "pre_a(nil)", "pre_b(nil)", "--depth", "3", "--json"
    )
    assert code == 1
    assert json.loads(out)["first_difference"] == {
        "left_weight": "1",
        "right_weight": "0",
        "word": "a",
    }


def test_equiv_human_difference(run):
    code, out, _ = run("equiv", path("prob_par"), "pre_a(nil)", "pre_b(nil)", "--depth", "3")
    assert code == 1
    assert out.splitlines() == [
        "pre_a(nil) and pre_b(nil) differ at depth 3:",
        "  word a: 1 vs 0",
    ]


# --- validate ---------------------------------------------------------------

def test_validate_clean_spec_json(run):
    code, out, _ = run("validate", path("de_simone_par"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["violations"] == []
    assert payload["dialect"] == "desimone" and payload["semiring"] == "boolean"
    assert payload["operators"][0] == {"arity": 0, "name": "nil"}
    assert payload["rules"] == 10


def test_validate_flags_the_copying_rule(run):
    code, out, _ = run("validate", path("copy_nonaffine"))
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "  line 24 error affine-target: variable y1 occurs twice in g(y1, y1)"
    assert lines[2] == "    in rule: f(x1) -a-> g(y1, y1) when x1 -a-> y1"
    assert lines[3] == "invalid: 1 format violations, 0 warnings"


def test_validate_violations_keep_their_field_order():
    args = argparse.Namespace(spec="copy_nonaffine")
    payload, valid = cmd_validate(load_spec("copy_nonaffine"), args)
    assert not valid and payload["violations"]
    for v in payload["violations"]:
        assert list(v) == ["rule", "condition", "fragment", "severity", "line"]


@pytest.mark.parametrize("name", ["de_simone_par", "prob_par", "leaky", "loop"])
def test_bundled_specs_other_than_the_nonaffine_ones_validate(run, name):
    code, out, _ = run("validate", path(name))
    assert code == 0
    assert out.splitlines()[-1] == "valid"


# --- naturality -------------------------------------------------------------

def test_naturality_witness_legs_in_json(run):
    code, out, _ = run(
        "naturality", path("pair_nonaffine"), "--carrier", "2", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    witness = payload["witness"]
    assert witness["op"] == "f"
    diag = {e["target"] for e in witness["args_first"] if e["kind"] == "step"}
    full = {e["target"] for e in witness["law_first"] if e["kind"] == "step"}
    assert diag == {"f(x0, x0)", "f(x1, x1)"}
    assert full == {"f(x0, x0)", "f(x0, x1)", "f(x1, x0)", "f(x1, x1)"}


def test_naturality_witness_human(run):
    code, out, err = run("naturality", path("pair_nonaffine"), "--carrier", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "naturality fails on carrier (x0, x1) over affine sums (input 42):",
        "  operator f",
        "  argument 1: observed step a into {x0: 1, x1: 1}",
        "  argument 2: pure {x0: 1}",
        "  law first, then distribute:",
        "    -> *  [1]",
        "    -b-> f(x0, x0)  [1]",
        "    -b-> f(x0, x1)  [1]",
        "    -b-> f(x1, x0)  [1]",
        "    -b-> f(x1, x1)  [1]",
        "  distribute arguments first, then law:",
        "    -> *  [1]",
        "    -b-> f(x0, x0)  [1]",
        "    -b-> f(x1, x1)  [1]",
    ]


def test_naturality_clean_spec_human(run):
    code, out, _ = run("naturality", path("pair_affine"), "--carrier", "2")
    assert code == 0
    assert out == "naturality holds on carrier (x0, x1) over affine sums: 101 inputs checked\n"


def test_naturality_carrier_bounds(run):
    code, _, err = run("naturality", path("pair_affine"), "--carrier", "4")
    assert code == 2 and "carrier" in err


# --- congruence -------------------------------------------------------------

def test_congruence_clean_spec(run):
    code, out, _ = run(
        "congruence", path("de_simone_par"), "--size", "4", "--depth", "3",
        "--contexts", "10",
    )
    assert code == 0
    assert out == (
        "no congruence violation: 29 terms of size <= 4, "
        "57 trace-equivalent pairs at depth 3, seed 0\n"
    )


def test_congruence_finds_the_copying_violation(run):
    code, out, _ = run(
        "congruence", path("copy_nonaffine"), "--size", "7", "--depth", "4",
        "--contexts", "10", "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violation"] == {
        "context": "f([])",
        "deep_context": False,
        "left_weight": "1",
        "pair": [
            "pre_a(plus(pre_b(nil), pre_c(nil)))",
            "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))",
        ],
        "right_weight": "0",
        "verified": True,
        "word": "abc",
    }


COPY_WITNESS_REPORT = (
    "congruence violation:\n"
    "  pair:     pre_a(plus(pre_b(nil), pre_c(nil)))  vs  "
    "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))\n"
    "  context:  {context}\n"
    "  word:     abc\n"
    "  weights:  1 vs 0\n"
    "  verified by path-sum recomputation: yes\n"
)


def test_congruence_reports_the_copying_violation_as_text(run):
    code, out, err = run(
        "congruence", path("copy_nonaffine"), "--size", "7", "--depth", "4",
        "--contexts", "10",
    )
    assert (code, err) == (1, "")
    assert out == COPY_WITNESS_REPORT.format(context="f([])")


def _wrapped_copy_spec(tmp_path):
    """copy_nonaffine with f reading only a new label d, which only the new
    wrapper w gives (for its argument's a): the copying pair splits only
    under the two-deep context f(w([]))."""
    text = desimone.spec_text("copy_nonaffine")
    for old, new in [
        ("labels a, b, c\n", "labels a, b, c, d\n"),
        ("op h : 1\n", "op h : 1\nop w : 1\n"),
        ("g(y1, y1) when x1 -a-> y1\n", "g(y1, y1) when x1 -d-> y1\n"),
    ]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    spec = tmp_path / "wrapped.spec"
    spec.write_text(text + "rule w(x1) -d-> y1 when x1 -a-> y1\n")
    return str(spec)


def test_congruence_reports_a_witness_beyond_the_depth_one_layer(run, tmp_path):
    spec = _wrapped_copy_spec(tmp_path)
    argv = ("congruence", spec, "--size", "7", "--depth", "4", "--seed", "0")
    code, out, err = run(*argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "depth": 4,
        "equivalent_pairs": 1319469149,
        "extra_contexts": 100,
        "passed": False,
        "seed": 0,
        "size": 7,
        "terms": 104265,
        "violation": {
            "context": "f(w([]))",
            "deep_context": True,
            "left_weight": "1",
            "pair": [
                "pre_a(plus(pre_b(nil), pre_c(nil)))",
                "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))",
            ],
            "right_weight": "0",
            "verified": True,
            "word": "abc",
        },
    }
    code, out, err = run(*argv)
    assert (code, err) == (1, "")
    assert out == COPY_WITNESS_REPORT.format(context="f(w([]))") + (
        "  (found only beyond the depth-1 context layer)\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--contexts", "-4"], "--contexts must be >= 0"),
        (["--contexts", "-20"], "--contexts must be >= 0"),
        (["--size", "-1"], "--size must be >= 0"),
    ],
)
def test_congruence_refuses_negative_bounds(run, flags, message):
    # a negative context count would cut the depth-1 layer short and lose
    # the f([]) witness
    code, out, err = run(
        "congruence", path("copy_nonaffine"), "--size", "7", "--depth", "4", *flags
    )
    assert (code, out) == (2, "")
    assert err == f"desimone: {message}\n"


def test_congruence_over_constants_only_has_no_context_to_try(run):
    # loop declares a single constant: there is no one-hole context at all
    code, out, err = run(
        "congruence", path("loop"), "--size", "3", "--depth", "2", "--contexts", "0"
    )
    assert (code, err) == (0, "")
    assert out == (
        "no congruence violation: 1 terms of size <= 3, "
        "0 trace-equivalent pairs at depth 2, seed 0\n"
    )


# c1 and c2 both have the traces ab and ac, and c1 alone moves to a state
# offering both b and c: trace-equivalent, not bisimilar
BRANCHING_CONSTANTS = """\
dialect desimone
semiring boolean
labels a, b, c
op c1 : 0
op c2 : 0
op d1 : 0
op d2 : 0
op d3 : 0
op nil : 0
rule c1 -a-> d1
rule d1 -b-> nil
rule d1 -c-> nil
rule c2 -a-> d2
rule c2 -a-> d3
rule d2 -b-> nil
rule d3 -c-> nil
"""


def test_congruence_over_constants_only_splits_a_bucket_with_no_context(
    run, tmp_path
):
    # the bucket {c1, c2} has two representatives, so the search goes on to
    # split it, and over constants only there is no context to do it with
    spec = tmp_path / "branching.spec"
    spec.write_text(BRANCHING_CONSTANTS)
    parsed = desimone.parse_spec(BRANCHING_CONSTANTS)
    buckets = desimone.fingerprint_buckets(parsed, 1, 3)
    assert [len(reps) for _, _, reps in buckets if len(reps) > 1] == [2]
    argv = ("congruence", str(spec), "--size", "1", "--depth", "3", "--contexts", "0")
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert out == (
        "no congruence violation: 6 terms of size <= 1, "
        "1 trace-equivalent pairs at depth 3, seed 0\n"
    )
    code, out, err = run(*argv, "--json")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "depth": 3,\n  "equivalent_pairs": 1,\n  "extra_contexts": 0,\n'
        '  "passed": true,\n  "seed": 0,\n  "size": 1,\n  "terms": 6,\n'
        '  "violation": null\n}\n'
    )


NO_CLOSED_TERMS = (
    "dialect desimone\nsemiring boolean\nlabels a\nop f : 1\nrule f(x1) -a-> x1\n"
)


@pytest.mark.parametrize("contexts", ["100", "0"])
def test_congruence_without_closed_terms_has_nothing_to_split(
    run, tmp_path, contexts
):
    # a valid spec whose only operator takes an argument: nothing to enumerate,
    # and no closed term to fill a context slot with
    spec = tmp_path / "open.spec"
    spec.write_text(NO_CLOSED_TERMS)
    code, out, err = run(
        "congruence", str(spec), "--size", "5", "--depth", "3", "--contexts", contexts
    )
    assert (code, err) == (0, "")
    assert out == (
        "no congruence violation: 0 terms of size <= 5, "
        "0 trace-equivalent pairs at depth 3, seed 0\n"
    )


def test_congruence_without_closed_terms_json(run, tmp_path):
    spec = tmp_path / "open.spec"
    spec.write_text(NO_CLOSED_TERMS)
    code, out, err = run(
        "congruence", str(spec), "--size", "5", "--depth", "3", "--json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "size": 5,
        "depth": 3,
        "extra_contexts": 100,
        "seed": 0,
        "terms": 0,
        "equivalent_pairs": 0,
        "violation": None,
        "passed": True,
    }


def test_congruence_computes_its_buckets_once(run, monkeypatch, quotient_calls):
    import desimone.analysis as analysis_module

    calls, bucket_reps = [], []
    buckets = analysis_module.fingerprint_buckets

    def counting(*args):
        calls.append(args[1:])
        found = buckets(*args)
        bucket_reps.extend(reps for _, _, reps in found)
        return found

    monkeypatch.setattr(analysis_module, "fingerprint_buckets", counting)
    code, _, _ = run(
        "congruence", path("copy_nonaffine"), "--size", "5", "--depth", "3",
        "--contexts", "10",
    )
    assert code == 0 and calls == [(5, 3)]
    quotients = [roots for roots, depth in quotient_calls if depth == 3]
    assert 0 < len(quotients) <= 5  # at most one quotient per term size
    # every other call thins one bucket's representatives for a context
    assert len(quotients) < len(quotient_calls)
    for roots, depth in quotient_calls:
        assert depth == 3 or (roots in bucket_reps and 0 < depth < 3)


# --- ast --------------------------------------------------------------------

def test_ast_loop_json(run):
    code, out, _ = run("ast", path("loop"), "c", "--depth", "4", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "non-ast"
    assert payload["exact"] is True and payload["limit"] == "0"
    assert payload["masses"] == [
        {"depth": d, "mass": "0"} for d in range(1, 5)
    ]


def test_ast_terminating_term_human(run):
    code, out, _ = run(
        "ast", path("prob_par"), "par(pre_a(nil), nil)", "--depth", "4", "--float"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "    1  1/2 = 0.5"
    assert lines[-3] == "limit: 1 = 1 (exact)"
    assert lines[-2] == "verdict: ast-consistent"


def test_ast_exact_limit_human_with_floats(run):
    code, out, err = run("ast", path("leaky"), "c0", "--depth", "5", "--float")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "completed-trace mass of c0 by depth:",
        "    1  1/3 = 0.333333",
        "    2  1/2 = 0.5",
        "    3  7/12 = 0.583333",
        "    4  5/8 = 0.625",
        "    5  31/48 = 0.645833",
        "limit: 2147483647/3221225472 = 0.666667 (exact)",
        "verdict: non-ast",
        "  closed acyclic state space; limit mass is exactly "
        "2147483647/3221225472 < 1",
    ]


HOT = (
    "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\nop hot : 0\n"
    "rule hot -a[inf]-> nil\nrule hot -[1/2]-> *\nrule nil -[1]-> *\n"
)


def test_ast_limit_above_one_is_inconclusive(run, tmp_path):
    spec = tmp_path / "hot.spec"
    spec.write_text(HOT)
    code, out, err = run("ast", str(spec), "hot", "--depth", "3", "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    assert payload["exact"] is True and payload["limit"] == "inf"
    assert payload["detail"] == (
        "closed acyclic state space; limit mass is exactly inf > 1, "
        "so it is not a termination probability"
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["traces", "ast"])
def test_float_json_writes_null_for_an_infinite_weight(run, tmp_path, command):
    spec = tmp_path / "hot.spec"
    spec.write_text(HOT)
    code, out, err = run(command, str(spec), "hot", "--depth", "3", "--float", "--json")
    assert err == "" and code in (0, 1)
    payload = json.loads(out, parse_constant=_reject_constant)
    floats = {k: v for k, v in payload.items() if k.endswith("_float")}
    assert floats == {"mass_float" if command == "traces" else "limit_float": None}
    _, human, _ = run(command, str(spec), "hot", "--depth", "3", "--float")
    assert ("mass: inf" if command == "traces" else "limit: inf (exact)") in human


def test_float_of_a_weight_past_the_float_range_is_null(run, tmp_path):
    big = 10**400
    spec = tmp_path / "big.spec"
    spec.write_text(HOT.replace("[inf]", f"[{big}]"))
    code, out, err = run("traces", str(spec), "hot", "--depth", "3", "--float", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert (payload["mass"], payload["mass_float"]) == (f"{2 * big + 1}/2", None)
    assert [t["weight_float"] for t in payload["traces"]] == [0.5, None]


CHAIN_CELLS = 500


def _chain_spec(tmp_path):
    # c0 -a-> c1 -a-> ... -a-> c499 -> *
    cells = CHAIN_CELLS
    lines = ["dialect weighted", "semiring rational", "labels a"]
    lines += [f"op c{n} : 0" for n in range(cells)]
    lines += [f"rule c{n} -a[1]-> c{n + 1}" for n in range(cells - 1)]
    lines.append(f"rule c{cells - 1} -[1]-> *")
    spec = tmp_path / "chain.spec"
    spec.write_text("\n".join(lines) + "\n")
    return str(spec)


def _run_under_recursion_limit(run, *argv):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        return run(*argv)
    finally:
        sys.setrecursionlimit(limit)


def test_ast_on_a_chain_deeper_than_the_recursion_limit(run, tmp_path):
    # every mass is 0 until depth 500, where the single path of 499 steps
    # completes with weight 1
    cells = CHAIN_CELLS
    code, out, err = _run_under_recursion_limit(
        run, "ast", _chain_spec(tmp_path), "c0", "--depth", str(cells), "--json"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "ast-consistent"
    assert payload["exact"] is True and payload["limit"] == "1"
    assert payload["masses"] == [
        {"depth": d, "mass": "1" if d == cells else "0"} for d in range(1, cells + 1)
    ]


@pytest.mark.parametrize(
    "argv",
    [["traces", "c0"], ["traces", "c0", "--json"], ["equiv", "c0", "c1"]],
)
def test_tables_deeper_than_the_recursion_limit_are_refused(run, tmp_path, argv):
    command, *rest = argv
    code, out, err = _run_under_recursion_limit(
        run, command, _chain_spec(tmp_path), *rest, "--depth", str(CHAIN_CELLS)
    )
    assert (code, out) == (2, "")
    assert err == (
        "desimone: input too deep for this command "
        "(maximum recursion depth exceeded)\n"
    )


def test_running_out_of_memory_is_a_one_line_refusal(run, monkeypatch):
    import desimone.analysis as analysis_module

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(analysis_module, "fingerprint_buckets", exhausted)
    code, out, err = run("congruence", path("copy_nonaffine"), "--size", "5", "--json")
    assert (code, out) == (2, "")
    assert err == "desimone: out of memory for this command\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["step", "pre_a(nil)"],
        ["step", "pre_a(nil)", "--oracle"],
        ["naturality"],
    ],
)
def test_desimone_stop_conclusion_runs_through_the_law(run, tmp_path, argv):
    spec = tmp_path / "stop.spec"
    spec.write_text(
        "dialect desimone\nsemiring boolean\nlabels a\nop nil : 0\n"
        "op pre_a : 1\nrule nil -> *\nrule pre_a(x1) -a-> x1\n"
    )
    command, *rest = argv
    code, out, err = run(command, str(spec), *rest)
    assert (code, err) == (0, "")
    if command == "step":
        assert out.splitlines()[1:3] == ["  -> *  [1]", "  -a-> nil  [1]"]
    else:
        assert out.startswith("naturality holds on carrier (x0, x1)")


# specs whose premises break the format (validate rejects both): the engine,
# which every analysis steps through, and the law pipeline read them apart
MALFORMED_PREMISES = [
    (
        "dialect weighted\nsemiring rational\nlabels a\n"
        "op nil : 0\nop p : 1\nop g : 1\n"
        "rule p(x1) -a[1]-> p(x1)\nrule p(x1) -[1/2]-> *\n"
        "rule g(x1) -a[1]-> g(y1) when x1 -a-> y1, x1 -> *\n",
        "distinct-premise-sources",
        ["  (empty)"],
        ["  -a-> g(p(nil))  [1/2]"],
    ),
    (
        "dialect desimone\nsemiring boolean\nlabels a\n"
        "op nil : 0\nop p : 1\nop g : 1\n"
        "rule p(x1) -a-> p(x1)\nrule g(x1) -a-> nil when x1 -> *\n",
        "dialect-term-premise",
        ["  -> *  [1]"],
        ["  -> *  [1]", "  -a-> nil  [1]"],
    ),
]


@pytest.mark.parametrize("text, violation, law, engine", MALFORMED_PREMISES)
def test_step_on_premises_that_break_the_format(
    run, tmp_path, text, violation, law, engine
):
    spec = tmp_path / "malformed.spec"
    spec.write_text(text)
    code, out, _ = run("validate", str(spec))
    assert code == 1 and f"error {violation}:" in out
    code, out, err = run("step", str(spec), "g(p(nil))")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == law
    code, out, err = run("step", str(spec), "g(p(nil))", "--direct")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == engine
    code, out, err = run("step", str(spec), "g(p(nil))", "--oracle", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["agree"] is False


# rules whose targets name a variable their premises leave unbound (validate
# reports each as target-vars): refused with one line once the rule fires
MALFORMED_TARGETS = [
    ("rule p(x1) -a[1]-> x2", "x2"),
    ("rule p(x1) -a[1]-> y1", "y1"),
    ("rule p(x1) -a[1]-> x1 when x1 -a-> y1", "x1"),
]
FIRING_COMMANDS = [
    ["step", "p(q)"],
    ["step", "p(q)", "--direct"],
    ["step", "p(q)", "--oracle"],
    ["traces", "p(q)"],
    ["congruence", "--size", "3", "--depth", "2", "--contexts", "5"],
    ["naturality"],
]


@pytest.mark.parametrize("rule, var", MALFORMED_TARGETS)
def test_a_fired_rule_with_an_unbound_target_variable_is_refused(
    run, tmp_path, rule, var
):
    spec = tmp_path / "target.spec"
    spec.write_text(
        "dialect weighted\nsemiring rational\nlabels a\n"
        f"op nil : 0\nop q : 0\nop p : 1\nrule q -a[1]-> nil\n{rule}\n"
    )
    code, out, _ = run("validate", str(spec))
    assert code == 1 and "line 8 error target-vars:" in out
    for command, *rest in FIRING_COMMANDS:
        code, out, err = run(command, str(spec), *rest)
        assert (code, out) == (2, ""), command
        assert err == (
            f"desimone: {spec}: line 8: the rule's target names {var}, "
            "which is unbound when the rule fires\n"
        )
    # a term that never fires the rule still answers
    code, out, err = run("step", str(spec), "q", "--oracle")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "  -a-> nil  [1]"


# --- error routing ----------------------------------------------------------

# --- output paths the bundled specs do not reach --------------------------

TICKS = """\
dialect weighted
semiring rational
labels tick, tock
op nil : 0
op t : 1
rule nil -[1]-> *
rule t(x1) -tick[1/4]-> x1
rule t(x1) -tock[1/4]-> x1
rule t(x1) -[1/2]-> *
"""


def test_words_over_multi_character_labels_are_dotted(run, tmp_path):
    spec = tmp_path / "ticks.spec"
    spec.write_text(TICKS)
    code, out, err = run("traces", str(spec), "t(t(nil))", "--depth", "3", "--oracle")
    assert (code, err) == (0, "")
    table = [
        "  (empty)      1/2",
        "  tick         1/8",
        "  tock         1/8",
        "  tick.tick    1/16",
        "  tick.tock    1/16",
        "  tock.tick    1/16",
        "  tock.tock    1/16",
    ]
    assert out.splitlines() == [
        "completed traces of t(t(nil)) at depth 3:", *table, "mass: 1",
        "path-sum oracle:", *table, "agree: yes",
    ]


def test_traces_at_depth_zero_with_the_oracle_are_empty(run, tmp_path):
    spec = tmp_path / "ticks.spec"
    spec.write_text(TICKS)
    code, out, err = run("traces", str(spec), "t(nil)", "--depth", "0", "--oracle")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "completed traces of t(nil) at depth 0:",
        "  (no completed traces)",
        "mass: 0",
        "path-sum oracle:",
        "  (no completed traces)",
        "agree: yes",
    ]
    code, out, _ = run("traces", str(spec), "t(nil)", "--depth", "0", "--oracle", "--json")
    assert code == 0
    assert json.loads(out) == {
        "agree": True, "depth": 0, "mass": "0", "oracle": [], "term": "t(nil)",
        "traces": [],
    }


def test_a_spec_whose_only_finding_is_a_warning_is_valid(run, tmp_path):
    spec = tmp_path / "inf.spec"
    spec.write_text(
        "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\n"
        "rule nil -[inf]-> *\n"
    )
    code, out, err = run("validate", str(spec))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{spec}: dialect weighted, semiring rational, labels a, ops nil/0, "
        "1 ground rules",
        "  line 5 warning weight-inf: infinite rule weight",
        "    in rule: nil -[inf]-> *",
        "valid with 1 warnings",
    ]


def test_a_naturality_witness_can_observe_termination(run, tmp_path):
    spec = tmp_path / "stop.spec"
    spec.write_text(
        "dialect weighted\nsemiring rational\nlabels a\nop nil : 0\nop f : 2\n"
        "rule nil -[1]-> *\nrule f(x1, x2) -a[1]-> f(x2, x2) when x1 -> *\n"
    )
    code, out, err = run("naturality", str(spec), "--carrier", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "naturality fails on carrier (x0, x1) over affine sums (input 112):",
        "  operator f",
        "  argument 1: observed termination",
        "  argument 2: pure {x0: 1/4, x1: 3/4}",
        "  law first, then distribute:",
        "    -a-> f(x0, x0)  [1/16]",
        "    -a-> f(x0, x1)  [3/16]",
        "    -a-> f(x1, x0)  [3/16]",
        "    -a-> f(x1, x1)  [9/16]",
        "  distribute arguments first, then law:",
        "    -a-> f(x0, x0)  [1/4]",
        "    -a-> f(x1, x1)  [3/4]",
    ]
    code, out, _ = run("naturality", str(spec), "--carrier", "2", "--json")
    assert code == 1
    assert json.loads(out)["witness"]["args"] == [
        {"kind": "stop"},
        {"kind": "pure", "sum": [
            {"value": "x0", "weight": "1/4"}, {"value": "x1", "weight": "3/4"},
        ]},
    ]


def test_an_empty_spec_misses_its_dialect_declaration(run, tmp_path):
    spec = tmp_path / "empty.spec"
    spec.write_text("")
    code, out, err = run("validate", str(spec))
    assert (code, out) == (2, "")
    assert err == f"desimone: {spec}: missing dialect declaration\n"


def test_missing_spec_file_is_a_usage_error(run):
    code, out, err = run("validate", "/does/not/exist.spec")
    assert code == 2 and out == ""
    assert err.startswith("desimone: cannot read /does/not/exist.spec")


def test_unparseable_term_is_a_semantic_failure(run):
    code, _, err = run("step", path("prob_par"), "wat(nil)")
    assert code == 1
    assert err == "desimone: bad term 'wat(nil)': unknown operator 'wat' (column 1)\n"


DEEP = 10_000
DEEP_CHAIN = "pre_a(" * DEEP + "nil" + ")" * DEEP


@pytest.mark.parametrize("flags", [[], ["--json"], ["--oracle"]])
def test_step_answers_on_a_term_deeper_than_the_recursion_limit(run, flags):
    code, out, err = run("step", path("prob_par"), DEEP_CHAIN, *flags)
    assert (code, err) == (0, "")
    target = "pre_a(" * (DEEP - 1) + "nil" + ")" * (DEEP - 1)
    assert target in out and DEEP_CHAIN in out


def test_equiv_answers_on_terms_deeper_than_the_recursion_limit(run):
    code, out, err = run("equiv", path("prob_par"), DEEP_CHAIN, DEEP_CHAIN, "--depth", "3")
    assert (code, err) == (0, "")
    assert out.endswith(" have equal trace tables at depth 3\n")


def test_the_engine_refuses_a_deeply_nested_premised_argument(run):
    # par steps its arguments, so the engine recurses once per level
    nested = "par(" * DEEP + "nil" + ", nil)" * DEEP
    code, out, err = run("step", path("prob_par"), nested, "--direct")
    assert (code, out) == (2, "")
    assert err == (
        "desimone: input too deep for this command "
        "(maximum recursion depth exceeded)\n"
    )


DEEP_TARGET = "s(" * DEEP + "x1" + ")" * DEEP


@pytest.mark.parametrize(
    "argv, code",
    [
        ("validate", 0),
        ("step g(nil)", 0),
        ("step g(nil) --direct", 0),
        ("step g(nil) --oracle", 0),
        ("traces g(nil)", 0),
        ("equiv g(nil) g(s(nil))", 0),
        ("equiv g(nil) nil", 1),
        ("ast g(nil)", 0),
        ("naturality", 0),
        ("congruence --size 2 --depth 2", 0),
    ],
)
def test_every_command_answers_on_a_rule_target_deeper_than_the_recursion_limit(
    run, tmp_path, argv, code
):
    spec = tmp_path / "deep_target.spec"
    spec.write_text(
        "dialect weighted\nsemiring rational\nlabels a\n"
        "op nil : 0\nop s : 1\nop g : 1\n"
        f"rule nil -[1]-> *\nrule s(x1) -[1]-> *\nrule g(x1) -a[1]-> {DEEP_TARGET}\n"
    )
    command, *rest = argv.split()
    got, out, err = run(command, str(spec), *rest)
    assert (got, err) == (code, "")
    if command == "step":
        assert DEEP_TARGET.replace("x1", "nil") in out


def test_operator_names_from_the_spec_are_typeable(run, tmp_path):
    spec = tmp_path / "u.spec"
    spec.write_text(
        "dialect desimone\nsemiring boolean\nlabels a\nop café : 0\nop g : 1\n"
        "rule g(x1) -a-> x1\n",
        encoding="utf-8",
    )
    code, out, err = run("step", str(spec), "g(café)", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["term"] == "g(café)"
    assert [e["target"] for e in payload["entries"] if e["kind"] == "step"] == ["café"]


def test_bad_characters_in_a_term_are_named_by_column(run):
    code, out, err = run("step", path("prob_par"), "nil $")
    assert (code, out) == (1, "")
    assert err == "desimone: bad term 'nil $': unexpected character '$' (column 5)\n"


def test_ast_rejects_boolean_specs(run):
    code, _, err = run("ast", path("de_simone_par"), "nil")
    assert code == 2
    assert err == "desimone: ast needs a weighted spec over the rational semiring\n"


def test_negative_depth_is_a_usage_error(run):
    code, _, err = run("traces", path("prob_par"), "nil", "--depth", "-1")
    assert code == 2 and "--depth must be >= 0" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_spec_parse_error_is_a_usage_error(run, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("dialect nonsense\n")
    code, _, err = run("validate", str(bad))
    assert code == 2 and str(bad) in err


# --- stability and the installed script -------------------------------------

def test_json_output_is_byte_stable_across_runs(run):
    argv = ("traces", path("prob_par"), "par(pre_a(nil), pre_b(nil))",
            "--depth", "3", "--json")
    first = run(*argv)
    second = run(*argv)
    assert first == second and first[0] == 0


def _cli_env(**extra):
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(desimone.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


def test_validate_lists_violations_in_the_same_order_under_any_hash_seed(tmp_path):
    spec = tmp_path / "vars.spec"
    spec.write_text(
        "dialect weighted\nsemiring rational\nlabels a\nop f : 2\n"
        "rule f(x1, x2) -a[1]-> f(y1, f(y2, f(x3, x1))) when x1 -a-> y1\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-m", "desimone", "validate", str(spec), "--json"],
            capture_output=True, env=_cli_env(PYTHONHASHSEED=seed), timeout=60,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    fragments = [v["fragment"] for v in json.loads(outs[0])["violations"]]
    assert [f.split()[0] for f in fragments] == ["y2", "x3", "x1"]


def _limit_memory(mib=1024):
    limit = mib << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "base, extra, argv, message",
    [
        pytest.param(
            "prob_par", WIDE_RULE, ["congruence", "--size", "4", "--depth", "3"],
            "the depth-1 context layer needs 121,000,006 argument slots, "
            "more than 120,000,000",
            id="congruence",
        ),
        (
            "pair_affine", "op g : 20\n", ["naturality"],
            "naturality would check more than 1,000,000 inputs",
        ),
    ],
)
def test_a_huge_declared_arity_is_refused_before_it_is_enumerated(
    tmp_path, base, extra, argv, message
):
    # under a 1 GiB address space and a timeout, so that a command that
    # allocates or enumerates first fails here instead of exhausting memory
    spec = tmp_path / "wide.spec"
    spec.write_text(desimone.spec_text(base) + extra)
    command, *rest = argv
    proc = subprocess.run(
        [sys.executable, "-m", "desimone", command, str(spec), *rest],
        capture_output=True, text=True, env=_cli_env(), timeout=10,
        preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"desimone: {message}\n"


@pytest.mark.parametrize("arity", [10_000, 100_000])
def test_an_operator_without_rules_gets_no_depth_one_contexts_built(tmp_path, arity):
    # each of the depth-1 contexts of p would hold as many children as it
    # has, some 800 MB in all at arity 10,000, and none steps its hole;
    # under 256 MiB of address space the search answers without them, and
    # the context-slot bound does not count them
    spec = tmp_path / "idle.spec"
    spec.write_text(desimone.spec_text("prob_par") + f"op p : {arity}\n")
    proc = subprocess.run(
        [
            sys.executable, "-m", "desimone", "congruence", str(spec),
            "--size", "4", "--depth", "3",
        ],
        capture_output=True, text=True, env=_cli_env(), timeout=10,
        preexec_fn=lambda: _limit_memory(256),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "no congruence violation: 22 terms of size <= 4, "
        "9 trace-equivalent pairs at depth 3, seed 0\n"
    )


def test_an_enumeration_too_large_to_hold_is_refused_before_it_is_built():
    # 13,092,190 closed terms of size <= 10 would take some 4.7 GB; size 9,
    # with 1,933,985, still answers
    proc = subprocess.run(
        [
            sys.executable, "-m", "desimone", "congruence", path("copy_nonaffine"),
            "--size", "10", "--depth", "2",
        ],
        capture_output=True, text=True, env=_cli_env(), timeout=10,
        preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "desimone: there are 13,092,190 closed terms of size <= 10, "
        "more than 5,000,000\n"
    )


def test_console_script_smoke():
    # run the [project.scripts] entry point, which need not be installed on
    # PATH, in a fresh interpreter that imports this checkout's package
    import tomllib

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["desimone"]
    module, _, func = entry.partition(":")
    proc = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())",
            "validate", path("loop"),
        ],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "valid"


def test_a_closed_stdout_ends_quietly():
    # the reader stops after two lines, as ``| head -2`` does; the command
    # prints 118 kB, more than a pipe holds, so its write fails for sure
    term = (
        "par(par(pre_a(pre_b(pre_a(nil))), pre_b(pre_a(pre_b(nil)))), "
        "par(pre_a(pre_a(pre_b(nil))), pre_b(pre_a(pre_b(nil)))))"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "desimone", "traces", path("de_simone_par"),
            term, "--depth", "13", "--json",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == [b"{\n", b'  "depth": 13,\n'] and err == b""
