"""The benchmark's seed-0 gate, run in process.

``bench/expected.json`` holds the sha256 and byte count of each benchmark
workload's ``--json`` stdout at seed 0. ``bench/run.py`` checks its runs
against them; this test runs the same three commands through ``main`` so
a change that moves a byte fails here first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from desimone import leaky_spec_text, spec_path
from desimone.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


@pytest.mark.parametrize(
    "workload, argv, exit_code",
    [
        ("congruence-copy",
         ["congruence", "copy_nonaffine", "--size", "7", "--depth", "4", "--seed", "0"], 1),
        ("congruence-prob",
         ["congruence", "prob_par", "--size", "7", "--depth", "5", "--seed", "0"], 0),
        # the 160-cell leaky chain, written out as the benchmark does
        ("ast-leaky", ["ast", None, "c0", "--depth", "160"], 1),
    ],
    ids=["congruence-copy", "congruence-prob", "ast-leaky"],
)
def test_workload_stdout_matches_the_benchmark_golden(
    workload, argv, exit_code, tmp_path, capsys
):
    command, name, *rest = argv
    if name is None:
        path = tmp_path / "leaky160.spec"
        path.write_text(leaky_spec_text(160))
    else:
        path = spec_path(name)
    assert main([command, str(path), *rest, "--json"]) == exit_code
    stdout = capsys.readouterr().out.encode("utf-8")
    golden = json.loads(GOLDEN.read_text())[workload]
    assert (hashlib.sha256(stdout).hexdigest(), len(stdout)) == (
        golden["sha256"],
        golden["bytes"],
    )
