"""Byte-identity of CLI output across refactors.

Runs a fixed set of in-process CLI commands over every bundled spec and
compares the sha256 of each command's ``(argv, exit code, stdout)`` with
``output_pins.json``. A change that should keep every byte keeps every pin.
A change that alters output on purpose rewrites the pins with

    PYTHONPATH=src python tests/test_output_pins.py --write

and says in its description which commands moved.

A second test checks that the text output is rendered from the payload
alone: for each pinned text command, and its ``--float`` variant where the
command has one, the command's ``show`` function prints the text output
from the parsed ``--json`` payload and the command's flags.
"""

import contextlib
import io
import json
import os
from itertools import islice
from pathlib import Path

from desimone import SPEC_NAMES, enumerate_closed_terms, load_spec, print_term, spec_path
from desimone.cli import _build_parser, main
from pins import check_pins, digest, write_pins

PINS = Path(__file__).with_name("output_pins.json")
TERMS_PER_SPEC = 6
FLOAT_COMMANDS = ("step", "traces", "ast")


def _terms(spec):
    """Up to six terms spread over the spec's enumeration up to size 4."""
    pool = list(enumerate_closed_terms(spec.signature, 4))
    stride = max(1, len(pool) // TERMS_PER_SPEC)
    return [print_term(t) for t in islice(pool, 0, None, stride)][:TERMS_PER_SPEC]


def commands():
    """Every pinned command; argv[1] is a bundled spec's name."""
    out = []
    for name in SPEC_NAMES:
        out.append(["validate", name])
        out.append(["naturality", name, "--carrier", "2"])
        out.append(["congruence", name, "--size", "4", "--depth", "3"])
        spec = load_spec(name)
        terms = _terms(spec)
        weighted = spec.semiring.name == "rational"
        for i, term in enumerate(terms):
            other = terms[(i + 1) % len(terms)]
            out.append(["step", name, term, "--oracle"])
            out.append(["traces", name, term, "--depth", "3"])
            out.append(["equiv", name, term, other, "--depth", "3"])
            if weighted:
                out.append(["ast", name, term, "--depth", "8"])
    return [argv + flag for argv in out for flag in ([], ["--json"])]


def _run(argv):
    """``(exit code, stdout)`` of a pinned command. It runs in the specs'
    directory, so ``validate`` prints the same path in any checkout."""
    command, name, *rest = argv
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(Path(spec_path(name)).parent)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, f"{name}.spec", *rest])
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def _digests():
    """sha256 of ``(argv, exit code, stdout)`` per command, keyed by argv."""
    return {" ".join(argv): digest([argv, *_run(argv)]) for argv in commands()}


def test_cli_output_matches_the_pins():
    check_pins(PINS, _digests())


def test_each_text_output_is_rendered_from_its_json_payload():
    # every pinned text command, and with --float where the command has it:
    # the command's show function, given the parsed --json payload and the
    # same flags, prints exactly the text output
    parser = _build_parser()
    text_commands = [argv for argv in commands() if argv[-1] != "--json"]
    text_commands += [
        argv + ["--float"] for argv in text_commands if argv[0] in FLOAT_COMMANDS
    ]
    assert len(text_commands) == 192
    for argv in text_commands:
        code, text = _run(argv)
        json_code, out = _run(argv + ["--json"])
        assert code == json_code, argv
        command, name, *rest = argv
        args = parser.parse_args([command, f"{name}.spec", *rest])
        rendered = io.StringIO()
        with contextlib.redirect_stdout(rendered):
            args.show(json.loads(out), args)
        assert rendered.getvalue() == text, argv


if __name__ == "__main__":
    write_pins(PINS, _digests)
