"""Smoke test of the benchmark on reduced inputs.

    python3 bench/smoke.py

Runs each workload once at a reduced size (copy size 6, which passes; prob
size 6; the bundled 30-cell leaky chain) through the same runner and gates
as bench/run.py, the prob one traced as well, and checks that every gate
passes. Then it corrupts one expected output per gate and checks that the
gate reports a failure. Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run
from workloads import Congruence, LeakyAst, check_validate

COPY = Congruence("copy-small", "copy_nonaffine", 6, 4, 3875176, valid=False)
PROB = Congruence("prob-small", "prob_par", 6, 5, 143)
LEAKY = LeakyAst("leaky-small", 30, bundled=True, limit="2147483647/3221225472")

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main():
    run.require_package()
    stdout = {}
    for workload in (COPY, PROB, LEAKY):
        for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            if trace and workload is not PROB:
                continue
            bench, result = run.bench_workload(workload, 0, 0, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload.name} trace={trace}: every run passes its gate {bench.problems}")
            expect(set(result["metrics"]) == set(wanted),
                   f"{workload.name} trace={trace}: every metric is reported")
            stdout[workload.name] = bench.last_stdout
            if trace:
                layers = {name: m["value"] for name, m in result["metrics"].items()}

    self_sum = sum(layers[f"self.{module}_s"] for module in run.MODULES)
    expect(layers["unspanned_s"] >= 0
           and abs(self_sum + layers["unspanned_s"] - layers["traced_wall_s"]) < 1e-9,
           "prob-small traced: self times plus the unspanned rest make the wall time")
    expect(layers["analysis.split_checks"] > 0 and layers["analysis.split_s"] > 0,
           "prob-small traced: the split phase is measured")

    # a corrupted expected output must make each gate report a failure
    def reported(workload, exit_code, name):
        spec_path = workload.spec_path(run.ROOT, run.OUT)
        return workload.check(run.ROOT, spec_path, exit_code, stdout[name], 0) != []

    expect(reported(replace(LEAKY, limit="1/2"), 1, LEAKY.name),
           "leaky-small: a wrong expected limit is reported")
    expect(reported(replace(LEAKY, golden={"sha256": "0" * 64}), 1, LEAKY.name),
           "leaky-small: --json bytes unlike the captured ones are reported")
    expect(reported(replace(PROB, pairs=144), 0, PROB.name),
           "prob-small: a wrong expected pair count is reported")
    expect(reported(replace(COPY, witness=("nil", "nil", "f([])", "a")), 0, COPY.name),
           "copy-small: an expected witness that is not found is reported")
    expect(check_validate(True, 1, b'{"valid": false}') != [],
           "validate: a spec expected valid but reported invalid is reported")
    bench, result = run.bench_workload(replace(LEAKY, limit="1/2"), 0, 0, 0)
    stamp = bench.stamp(run.END_TO_END)
    expect(not result["correct"] and result["failed"] == 1 and stamp["failed_ratio"] > 0,
           "leaky-small: a run against a corrupted expectation counts as failed")

    print(f"{len(failures)} smoke checks failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
