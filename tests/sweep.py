"""Sweep of CLI commands for comparing two checkouts byte for byte.

    PYTHONPATH=<checkout>/src python tests/sweep.py

Runs each command through ``desimone.cli.main`` in this process and prints
one line per command: a short sha256 of ``(argv, exit code, stdout,
stderr)``, then the argv. A last line gives the command count and one
digest over every line. Run it from the repo root against two checkouts
(the ``PYTHONPATH`` picks the package) and diff the outputs: a change that
keeps every byte prints identical lines.

The commands are every command ``test_output_pins.py`` pins; ``congruence``
at sizes 0-6 and depths 1, 3 and 4 (size 6 at depth 4 only), and on the
bundled specs also at sizes 7 and 8 and depths 3 and 4, each with the
default contexts, ``--contexts 0`` and ``--contexts 7 --seed 3``, plus
``validate --json`` and ``naturality --carrier 1``, on the bundled specs, on
30 seed-0 ``random_valid_spec`` specs (10 plain, 10 normalised, 10 copying)
and on four specs with idle or wide operators (the tests' idle-operator and
constants-only specs, ``leaky`` plus a rule-less ``op w : 10`` and
``prob_par`` plus ``op p : 10000``, the last two also at sizes 7 and 8);
``traces --oracle`` on the weighted specs and ``ast`` only on the weighted
bundled ones (on some random ones its closure walk takes minutes); two
refusals; and, last, ``step --oracle`` with and without ``--json`` on each
closed term up to size 3 of the two specs whose rules break the format
(``oracles.BROKEN_DESIMONE`` and ``BROKEN_WEIGHTED``), where the law and
the engine can disagree. Every spec is written to one temporary directory,
which is the working directory while the commands run, so argv names no
path; a path that reaches the output anyway is replaced by ``<tmp>`` or
``<checkout>``. A command that runs past ``LIMIT_S`` seconds, or a process
that reaches ``LIMIT_BYTES`` of address space, is recorded as raising.
Needs only what the test suite needs; this module is not collected by
pytest.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import tempfile
from pathlib import Path

import desimone
from desimone import (
    SPEC_NAMES, enumerate_closed_terms, parse_spec, print_term, spec_text,
)
from desimone.cli import main
from oracles import BROKEN_DESIMONE, BROKEN_WEIGHTED, random_valid_spec
from test_analysis import IDLE_OPERATORS
from test_cli import BRANCHING_CONSTANTS
from test_error_pins import WIDE_RULE
from test_output_pins import _terms, commands

CHECKOUT = str(Path(desimone.__file__).resolve().parents[2])
SIZES = [(size, depth) for depth in (1, 3, 4) for size in range(6 + (depth == 4))]
LARGE = [(size, depth) for depth in (3, 4) for size in (7, 8)]  # bundled specs only
CONTEXTS = ([], ["--contexts", "0"], ["--contexts", "7", "--seed", "3"])
WIDE = ("leaky_w10", "prob_par_p10000")  # also swept at sizes 7 and 8
BROKEN = {"broken_desimone": BROKEN_DESIMONE, "broken_weighted": BROKEN_WEIGHTED}
LIMIT_S = 60  # per command
LIMIT_BYTES = 2 << 30


def _specs():
    """``{name: spec text}``: the bundled specs, 30 random ones, then the
    idle and wide ones."""
    specs = {name: spec_text(name) for name in SPEC_NAMES}
    for family, options in (
        ("plain", {}),
        ("normalised", {"normalised": True}),
        ("copying", {"copying": True}),
    ):
        rng = random.Random(0)
        for i in range(10):
            specs[f"{family}{i}"] = random_valid_spec(rng, **options)
    specs["idle"] = IDLE_OPERATORS
    specs["branching"] = BRANCHING_CONSTANTS
    specs["leaky_w10"] = spec_text("leaky") + "op w : 10\n"
    specs["prob_par_p10000"] = spec_text("prob_par") + "op p : 10000\n"
    return specs


def _commands(specs):
    out = [[argv[0], f"{argv[1]}.spec", *argv[2:]] for argv in commands()]
    for name, text in specs.items():
        path = f"{name}.spec"
        sizes = SIZES + LARGE * (name in SPEC_NAMES) + [(7, 3), (8, 3)] * (name in WIDE)
        for size, depth in sizes:
            for contexts in CONTEXTS:
                out.append(
                    ["congruence", path, "--size", str(size), "--depth", str(depth)]
                    + contexts
                )
        out.append(["validate", path, "--json"])
        out.append(["naturality", path, "--carrier", "1"])
        spec = parse_spec(text)
        if spec.semiring.name == "rational":
            for term in _terms(spec):
                if name in SPEC_NAMES:
                    out.append(["ast", path, term, "--depth", "4"])
                out.append(["traces", path, term, "--depth", "3", "--oracle"])
    out.append(["congruence", "copy_nonaffine.spec", "--size", "10"])
    out.append(["congruence", "wide_rule.spec", "--size", "4", "--depth", "3"])
    for name, text in BROKEN.items():
        for term in enumerate_closed_terms(parse_spec(text).signature, 3):
            for json_flag in ([], ["--json"]):
                argv = ["step", f"{name}.spec", print_term(term), "--oracle"]
                out.append(argv + json_flag)
    return out


def _run(argv, tmp):
    """The command's line: a short digest of its record, then its argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        signal.alarm(LIMIT_S)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a result too
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
    record = json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()])
    record = record.replace(tmp, "<tmp>").replace(CHECKOUT, "<checkout>")
    return f"{hashlib.sha256(record.encode()).hexdigest()[:12]} {' '.join(argv)}"


def _time_out(signum, frame):
    raise TimeoutError(f"over {LIMIT_S} s")


def sweep():
    signal.signal(signal.SIGALRM, _time_out)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard == resource.RLIM_INFINITY or hard > LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, hard))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        specs = _specs()
        for name, text in {**specs, **BROKEN}.items():
            Path(tmp, f"{name}.spec").write_text(text, encoding="utf-8")
        Path(tmp, "wide_rule.spec").write_text(
            spec_text("prob_par") + WIDE_RULE, encoding="utf-8"
        )
        os.chdir(tmp)
        try:
            lines = [_run(argv, tmp) for argv in _commands(specs)]
        finally:
            os.chdir(cwd)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"{len(lines)} commands {total}"]


if __name__ == "__main__":
    print("\n".join(sweep()))
