"""The demos run to completion and print their headline line.

Each demo runs in a fresh interpreter that imports this checkout's package.
The copying demo's congruence search is left out: acceptance test_07 runs the
same search.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import desimone

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo, line",
    [
        ("probabilistic_termination", "exact limit: 2147483647/3221225472  (~0.666666666)"),
        ("tour_of_a_spec", "  depth 3: differ on word ab: 1 vs 0"),
        ("write_your_own_spec", "  -tick-> walk(ticker(still))  [1/4]"),
    ],
)
def test_demo_runs(demo, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(desimone.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
