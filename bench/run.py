"""The desimone benchmark: cold command-line runs timed from outside.

    python3 bench/run.py --workload congruence-copy --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all                  # every workload, a table

Each sample is one cold `python -m desimone ... --json` process, which is how
the tool is used, so every memo table starts empty. The load is a closed
loop with one client: the next process starts when the last one exits.

A run first validates the workload's spec once (this also writes the
bytecode cache), then runs the workload's command until the next run would
end past `--seconds` (at least once), with SETUP_SAMPLES more `validate`
processes for `setup_s` split before and after. Every process is checked by the
workload's gate; a wrong exit code or output counts as failed. With
`--trace 1` the untraced runs are followed by one traced run
(bench/tracer.py) whose spans give the per-layer metrics.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it stamps the run with the interpreter, CPU,
commit, seed, and each metric's samples and quartiles. Scratch files (the
generated leaky spec, child output, traced spans) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, check_validate, full_workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 20
SETUP_SAMPLES = 10
RUN_BUDGET_S = 170  # a run is cut here, so it exits within 180 s

END_TO_END = {"verdict_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MODULES = ("cli", "rulespec", "terms", "law", "opmodel", "formalsum", "trace", "analysis")
PER_LAYER = {
    "rulespec.parse_s": "s",
    "terms.enumerate_s": "s",
    "terms.enumerated": "count",
    "law.bar_rho_step_calls": "count",
    "law.bar_rho_step_self_s": "s",
    "opmodel.step_calls": "count",
    "opmodel.step_self_s": "s",
    "opmodel.step_memo": "count",
    "opmodel.step_hit_ratio": "ratio",
    "formalsum.constructed": "count",
    "formalsum.init_s": "s",
    "semiring.add_calls": "count",
    "semiring.mul_calls": "count",
    "trace.bounded_calls": "count",
    "trace.bounded_self_s": "s",
    "trace.partial_calls": "count",
    "trace.partial_self_s": "s",
    "trace.direct_s": "s",
    "trace.memo_tables": "count",
    "trace.memo_words": "count",
    "trace.ast_self_s": "s",
    "analysis.fingerprint_s": "s",
    "analysis.buckets": "count",
    "analysis.bisim_s": "s",
    "analysis.bisim_states": "count",
    "analysis.bisim_blocks": "count",
    "analysis.contexts": "count",
    "analysis.split_s": "s",
    "analysis.split_checks": "count",
    "analysis.composite_tables": "count",
    "cli.fingerprint_s": "s",
    **{f"self.{module}_s": "s" for module in MODULES},
    "unspanned_s": "s",
    "traced_wall_s": "s",
    "untraced_verdict_s": "s",
    "tracing_overhead_s": "s",
}


def require_package():
    """Import desimone from this checkout's src/, or stop without a result."""
    init = SRC / "desimone" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no desimone package at {init}")
    sys.path.insert(0, str(SRC))
    import desimone

    if Path(desimone.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported desimone from {desimone.__file__}, not {init}")


class Run:
    """The samples and gate results of one benchmark run of one workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_BUDGET_S
        self.samples = defaultdict(list)
        self.attempted = 0
        self.problems = []
        OUT.mkdir(exist_ok=True)
        self.spec_path = workload.spec_path(ROOT, OUT)
        self.tag = f"{workload.name}-{seed}-{os.getpid()}"

    def child(self, args):
        """One cold process under PYTHONPATH=src, killed at the run's deadline.

        Returns (wall seconds from launch to exit, exit code, peak RSS in MB,
        stdout bytes). Peak RSS is the child's own ru_maxrss, from wait4.
        The hash seed follows the workload seed, so a seed repeats its
        dict and set layouts, and with them its memory use.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(self.seed % 2**32))
        stdout_path = OUT / f"{self.tag}.stdout"
        with open(stdout_path, "wb") as out, open(OUT / f"{self.tag}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err
            )
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024, stdout_path.read_bytes()

    def gate(self, problems):
        """Record one process's problems; a process with any has failed."""
        self.attempted += 1
        if problems:
            self.problems.append(problems)

    def validate(self):
        wall, code, _, stdout = self.child(
            ["-m", "desimone", "validate", str(self.spec_path), "--json"]
        )
        self.gate(check_validate(self.workload.valid, code, stdout))
        return wall

    def verdict(self):
        args = ["-m", "desimone", *self.workload.argv(self.spec_path, self.seed)]
        wall, code, rss, stdout = self.child(args)
        self.gate(self.workload.check(ROOT, self.spec_path, code, stdout, self.seed))
        self.last_stdout = stdout
        return wall, rss

    def measure(self, seconds, setup=True):
        """Verdict runs until the next would overrun `seconds`, with half the
        set-up probes before them and half after, so that the probes span
        the run as the verdict samples do."""
        self.validate()  # warm-up: compiles the bytecode cache, not timed
        probes = SETUP_SAMPLES // 2 if setup else 0
        self.probe_setup(probes)
        end = time.perf_counter() + seconds
        while True:
            wall, rss = self.verdict()
            self.samples["verdict_s"].append(wall)
            self.samples["peak_rss_mb"].append(rss)
            if time.perf_counter() + statistics.median(self.samples["verdict_s"]) > end:
                break
        self.probe_setup(probes)

    def probe_setup(self, count):
        for _ in range(count):
            self.samples["setup_s"].append(self.validate())

    def traced(self):
        """One traced run; per-layer metrics from its spans and totals."""
        spans_path = OUT / f"{self.tag}.trace.json"
        spans_path.unlink(missing_ok=True)
        run_id = f"{self.tag}-traced"
        args = ["bench/tracer.py", str(spans_path), run_id, "--",
                *self.workload.argv(self.spec_path, self.seed)]
        wall, code, _, stdout = self.child(args)
        problems = self.workload.check(ROOT, self.spec_path, code, stdout, self.seed)
        metrics = None
        try:
            report = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            problems.append("traced run wrote no spans")
        else:
            untraced = statistics.median(self.samples["verdict_s"])
            metrics = layer_metrics(report, wall, untraced)
            if metrics["unspanned_s"] < 0:
                problems.append("self times exceed the traced wall time")
        self.gate(problems)
        return metrics

    def stamp(self, metric_names):
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "python": platform.python_version(),
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "attempted": self.attempted,
            "failed": len(self.problems),
            "failed_ratio": len(self.problems) / self.attempted,
            "problems": self.problems[:5],
            "samples": {
                name: summary(self.samples[name])
                for name in metric_names
                if name in self.samples
            },
        }


def summary(values):
    """Sample count, median and quartiles (both the value when n is 1)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def layer_metrics(report, traced_wall, untraced_verdict):
    """Per-layer metrics from a tracer report (see bench/tracer.py)."""
    self_s, calls = report["self_s"], report["calls"]
    counts, times, memo = report["counts"], report["times"], report["memo"]
    step_calls = calls.get("opmodel.step", 0)
    metrics = {
        "rulespec.parse_s": self_s.get("rulespec.parse_spec", 0.0),
        "terms.enumerate_s": self_s.get("terms.enumerate_closed_terms", 0.0),
        "terms.enumerated": counts.get("terms.enumerated", 0),
        "law.bar_rho_step_calls": calls.get("law.bar_rho_step", 0),
        "law.bar_rho_step_self_s": self_s.get("law.bar_rho_step", 0.0),
        "opmodel.step_calls": step_calls,
        "opmodel.step_self_s": self_s.get("opmodel.step", 0.0),
        "opmodel.step_memo": memo.get("opmodel.step_memo", 0),
        "opmodel.step_hit_ratio": counts.get("opmodel.step_hits", 0) / max(step_calls, 1),
        "formalsum.constructed": calls.get("formalsum.FormalSum", 0),
        "formalsum.init_s": self_s.get("formalsum.FormalSum", 0.0),
        "semiring.add_calls": counts.get("semiring.add_calls", 0),
        "semiring.mul_calls": counts.get("semiring.mul_calls", 0),
        "trace.bounded_calls": calls.get("trace.trace_bounded", 0),
        "trace.bounded_self_s": self_s.get("trace.trace_bounded", 0.0),
        "trace.partial_calls": calls.get("trace.partial_trace_bounded", 0),
        "trace.partial_self_s": self_s.get("trace.partial_trace_bounded", 0.0),
        "trace.direct_s": self_s.get("trace.trace_direct", 0.0),
        "trace.memo_tables": memo.get("trace.memo_tables", 0),
        "trace.memo_words": memo.get("trace.memo_words", 0),
        "trace.ast_self_s": self_s.get("trace.ast_estimate", 0.0),
        "analysis.fingerprint_s": times.get("analysis.fingerprint_s", 0.0),
        "analysis.bisim_s": times.get("analysis.bisim_s", 0.0),
        "analysis.split_s": times.get("analysis.split_s", 0.0),
        "cli.fingerprint_s": times.get("cli.fingerprint_s", 0.0),
    }
    for name in ("buckets", "bisim_states", "bisim_blocks", "contexts",
                 "split_checks", "composite_tables"):
        metrics[f"analysis.{name}"] = counts.get(f"analysis.{name}", 0)
    by_module = dict.fromkeys(MODULES, 0.0)
    for layer, seconds in self_s.items():
        by_module[layer.split(".")[0]] += seconds
    for module, seconds in by_module.items():
        metrics[f"self.{module}_s"] = seconds
    metrics["unspanned_s"] = traced_wall - sum(by_module.values())
    metrics["traced_wall_s"] = traced_wall
    metrics["untraced_verdict_s"] = untraced_verdict
    metrics["tracing_overhead_s"] = traced_wall - untraced_verdict
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench_workload(workload, seed, seconds, trace):
    """Run one workload; returns the Run and its result line."""
    run = Run(workload, seed)
    run.measure(seconds, setup=not trace)
    if trace:
        values, units = run.traced() or {}, PER_LAYER
    else:
        values = {name: statistics.median(run.samples[name]) for name in END_TO_END}
        units = END_TO_END
    result = {
        "correct": not run.problems and set(values) == set(units),
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    return run, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_package()
    workloads = full_workloads()
    if args.all:
        names = list(workloads)
    elif args.workload in workloads:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads)}")

    results = {}
    for name in names:
        run, result = bench_workload(workloads[name], args.seed, args.seconds, args.trace)
        stamp = run.stamp(END_TO_END)
        print(json.dumps({"stamp": stamp}))
        results[name] = (stamp, result)
    if args.all:
        for name, (stamp, result) in results.items():
            for metric, m in result["metrics"].items():
                print(f"{name:<16} {metric:<28} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:<16} {'failed_ratio':<28} {stamp['failed_ratio']:>14.6g} "
                  f"of {stamp['attempted']} runs")
        result = {
            "correct": all(r["correct"] for _, r in results.values()),
            "attempted": sum(r["attempted"] for _, r in results.values()),
            "failed": sum(r["failed"] for _, r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, (_, r) in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
