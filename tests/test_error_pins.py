"""Byte-identity of the CLI's refusals, usage errors and help across refactors.

Runs a fixed set of in-process CLI commands that each end in a refusal, an
argparse usage error or ``--help``, and compares the sha256 of each
command's ``(argv, exit code, stdout, stderr)`` with ``error_pins.json``.
Every command runs in one temporary directory that holds the bundled specs
and a few broken ones, so the paths in the messages are the same in any
checkout, and at a fixed terminal width, so ``--help`` wraps the same way.
A change that alters these bytes on purpose rewrites the pins with

    PYTHONPATH=src python tests/test_error_pins.py --write

and says in its description which commands moved.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from desimone import SPEC_NAMES, spec_text
from desimone.cli import main
from pins import check_pins, digest, write_pins

PINS = Path(__file__).with_name("error_pins.json")

COMMANDS = ("validate", "step", "traces", "equiv", "congruence", "naturality", "ast")

# an operator of arity 11,000 with a rule, so its depth-1 contexts are built
WIDE_RULE = "op q : 11000\nrule q({}) -a[1]-> nil\n".format(
    ", ".join(f"x{i}" for i in range(1, 11001))
)

# specs written beside the bundled ones, by file name
BROKEN_SPECS = {
    "bad.spec": "dialect nonsense\n",
    "wide_contexts.spec": spec_text("prob_par") + WIDE_RULE,
    "wide_naturality.spec": spec_text("pair_affine") + "op g : 20\n",
    "target.spec": (
        "dialect weighted\nsemiring rational\nlabels a\n"
        "op nil : 0\nop q : 0\nop p : 1\nrule q -a[1]-> nil\n"
        "rule p(x1) -a[1]-> y1\n"
    ),
}

# each refusal runs with and without --json: neither prints to stdout
REFUSALS = [
    ["validate", "missing.spec"],
    ["validate", "bad.spec"],
    ["step", "missing.spec", "nil"],
    ["step", "bad.spec", "nil"],
    # bad terms
    ["step", "prob_par.spec", "wat(nil)"],
    ["step", "prob_par.spec", "nil $"],
    ["traces", "prob_par.spec", "par(nil)"],
    ["equiv", "prob_par.spec", "nil", "pre_a("],
    ["ast", "leaky.spec", "c99"],
    # bound checks
    ["traces", "prob_par.spec", "nil", "--depth", "-1"],
    ["traces", "prob_par.spec", "wat", "--depth", "-1"],
    ["equiv", "prob_par.spec", "nil", "nil", "--depth", "-1"],
    ["congruence", "prob_par.spec", "--depth", "0"],
    ["congruence", "prob_par.spec", "--size", "-1"],
    ["congruence", "prob_par.spec", "--contexts", "-1"],
    ["congruence", "prob_par.spec", "--depth", "0", "--size", "-1", "--contexts", "-1"],
    ["congruence", "prob_par.spec", "--size", "-1", "--contexts", "-1"],
    ["ast", "leaky.spec", "c0", "--depth", "0"],
    ["ast", "leaky.spec", "wat", "--depth", "0"],
    # the naturality bounds and the context-slot bound
    ["naturality", "pair_affine.spec", "--carrier", "0"],
    ["naturality", "pair_affine.spec", "--carrier", "4"],
    ["naturality", "wide_naturality.spec"],
    ["congruence", "wide_contexts.spec", "--size", "4", "--depth", "3"],
    # ast on a boolean spec, before and after its term and depth
    ["ast", "de_simone_par.spec", "nil"],
    ["ast", "de_simone_par.spec", "wat", "--depth", "0"],
    # a fired rule whose target names an unbound variable
    ["step", "target.spec", "p(q)"],
    ["step", "target.spec", "p(q)", "--direct"],
    ["step", "target.spec", "p(q)", "--oracle"],
    ["traces", "target.spec", "p(q)"],
    ["equiv", "target.spec", "p(q)", "q"],
    ["congruence", "target.spec", "--size", "3", "--depth", "2", "--contexts", "5"],
    ["naturality", "target.spec"],
    # a table deeper than the recursion limit
    ["traces", "loop.spec", "c", "--depth", "3000"],
]

USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["validate"],
    ["step", "prob_par.spec"],
    ["equiv", "prob_par.spec", "nil"],
    ["traces", "prob_par.spec", "nil", "--depth", "x"],
    ["congruence", "prob_par.spec", "--bogus"],
    ["congruence", "prob_par.spec", "--size"],
    ["naturality", "prob_par.spec", "--carrier", "2.5"],
    ["validate", "prob_par.spec", "--float"],
    ["ast", "leaky.spec", "c0", "extra"],
]

HELP = [["--help"]] + [[command, "--help"] for command in COMMANDS]


def commands():
    """Every pinned argv."""
    return [argv + flag for argv in REFUSALS for flag in ([], ["--json"])] + (
        USAGE_ERRORS + HELP
    )


@contextlib.contextmanager
def _spec_dir():
    """A temporary working directory that holds every spec the commands name."""
    cwd = os.getcwd()
    columns = os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name in SPEC_NAMES:
            Path(tmp, f"{name}.spec").write_text(spec_text(name), encoding="utf-8")
        for name, text in BROKEN_SPECS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def _digest(argv):
    """sha256 of ``(argv, exit code, stdout, stderr)``; run in ``_spec_dir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return digest([argv, code, stdout.getvalue(), stderr.getvalue()])


def _key(argv):
    return json.dumps(argv)


def _digests():
    with _spec_dir():
        return {_key(argv): _digest(argv) for argv in commands()}


def test_cli_refusals_usage_errors_and_help_match_the_pins():
    check_pins(PINS, _digests())


if __name__ == "__main__":
    write_pins(PINS, _digests)
