"""The benchmark's workloads and the gate that checks each run's output.

A workload is one `python -m desimone ... --json` command line. Its gate
compares the run against expectations that do not come from the code under
test: witness weights recomputed by path summation, closed-form limits,
closed-term counts from the size recurrence, and, at the default seed, the
exact `--json` bytes captured at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
BENCH = Path(__file__).resolve().parent
SPECS = Path("src") / "desimone" / "specs"


def load_golden():
    """sha256 and length of each full workload's `--json` stdout at seed 0."""
    return json.loads((BENCH / "expected.json").read_text())


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def count_closed_terms(spec_text, max_size):
    """Closed terms of size <= max_size, counted from the `op name : k`
    declarations by the size recurrence, without building a term."""
    arities = [
        int(k) for k in re.findall(r"^op\s+\w+\s*:\s*(\d+)\s*$", spec_text, re.M)
    ]
    exact = [0] * (max_size + 1)  # exact[s]: terms with exactly s nodes
    for size in range(1, max_size + 1):
        for arity in arities:
            # tuples of `arity` terms whose sizes add up to size - 1
            tuples = [1] + [0] * (size - 1)
            for _ in range(arity):
                tuples = [
                    sum(tuples[n - s] * exact[s] for s in range(1, n + 1))
                    for n in range(size)
                ]
            exact[size] += tuples[size - 1]
    return sum(exact)


def leaky_masses(cutoff):
    """Exact completed-trace mass of c0 at depths 1..cutoff+1 on the leaky
    chain, from its closed form: cell n stops with 1/(2^n+2) and moves on
    with (2^n+1)/(2^n+2). The last entry is the limit."""
    masses, mass, reach = [], Fraction(0), Fraction(1)
    for n in range(cutoff + 1):
        mass += reach / (2**n + 2)
        reach *= Fraction(2**n + 1, 2**n + 2)
        masses.append(mass)
    return masses


def show(weight):
    return str(weight.numerator) if weight.denominator == 1 else str(weight)


@dataclass(frozen=True)
class Congruence:
    """`congruence SPEC --size S --depth D --seed SEED --json`."""

    name: str
    spec: str
    size: int
    depth: int
    pairs: int
    witness: tuple = None  # (left, right, context, word), or None: passes
    valid: bool = True  # what `validate` says of the spec
    golden: dict = field(default=None, compare=False)

    def spec_path(self, root, out_dir):
        return SPECS / f"{self.spec}.spec"

    def argv(self, spec_path, seed):
        return [
            "congruence", str(spec_path), "--size", str(self.size),
            "--depth", str(self.depth), "--seed", str(seed), "--json",
        ]

    def check(self, root, spec_path, exit_code, stdout, seed):
        """Problems with one run's output; empty when it is right."""
        try:
            out = json.loads(stdout)
        except ValueError:
            return [f"stdout is not JSON (exit {exit_code})"]
        problems = []
        want_exit = 0 if self.witness is None else 1
        if exit_code != want_exit:
            problems.append(f"exit code {exit_code}, expected {want_exit}")
        terms = count_closed_terms((root / spec_path).read_text(), self.size)
        expected = {
            "size": self.size, "depth": self.depth, "seed": seed,
            "terms": terms, "equivalent_pairs": self.pairs,
            "passed": self.witness is None,
        }
        for key, want in expected.items():
            if out.get(key) != want:
                problems.append(f"{key} is {out.get(key)!r}, expected {want!r}")
        violation = out.get("violation")
        if self.witness is None:
            if violation is not None:
                problems.append(f"unexpected violation {violation!r}")
        elif not isinstance(violation, dict):
            problems.append("no violation reported")
        else:
            problems += self._check_witness(root / spec_path, violation, seed)
        if seed == DEFAULT_SEED and self.golden is not None:
            if sha256(stdout) != self.golden["sha256"]:
                problems.append("--json bytes differ from the captured output")
        return problems

    def _check_witness(self, spec_file, v, seed):
        """Recompute the split by path summation (`trace_direct`)."""
        from desimone import parse_spec, parse_term, trace_direct

        problems = []
        left, right = v["pair"]
        if seed == DEFAULT_SEED and (left, right, v["context"], v["word"]) != self.witness:
            problems.append(f"witness {v!r}, expected {self.witness!r}")
        if (v["left_weight"], v["right_weight"], v["verified"]) != ("1", "0", True):
            problems.append(f"witness weights {v!r}, expected verified 1 vs 0")
        spec = parse_spec(spec_file.read_text())
        sig = spec.signature
        word = tuple(v["word"]) if all(len(a) == 1 for a in spec.labels) else tuple(
            v["word"].split(".")
        )
        tables = [
            trace_direct(spec, parse_term(sig, text), self.depth - 1)
            for text in (left, right)
        ]
        if tables[0] != tables[1]:
            problems.append("witness pair is not trace-equivalent by path summation")
        composites = [
            trace_direct(spec, parse_term(sig, v["context"].replace("[]", text)), self.depth - 1)
            for text in (left, right)
        ]
        weights = [table.weight(word) for table in composites]
        if weights != [1, 0]:
            problems.append(f"path summation gives {weights} on {v['word']!r}, expected [1, 0]")
        return problems


@dataclass(frozen=True)
class LeakyAst:
    """`ast LEAKY c0 --depth N --json` on the N-cell leaky chain."""

    name: str
    cutoff: int
    bundled: bool = False  # use the packaged leaky.spec (cutoff 30)
    limit: str = None  # expected limit; None: the closed form
    valid: bool = True
    golden: dict = field(default=None, compare=False)

    def spec_path(self, root, out_dir):
        if self.bundled:
            return SPECS / "leaky.spec"
        from desimone import leaky_spec_text

        path = out_dir / f"leaky{self.cutoff}.spec"
        path.write_text(leaky_spec_text(self.cutoff))
        return path.relative_to(root)

    def argv(self, spec_path, seed):
        return ["ast", str(spec_path), "c0", "--depth", str(self.cutoff), "--json"]

    def check(self, root, spec_path, exit_code, stdout, seed):
        try:
            out = json.loads(stdout)
        except ValueError:
            return [f"stdout is not JSON (exit {exit_code})"]
        problems = []
        if exit_code != 1:
            problems.append(f"exit code {exit_code}, expected 1")
        closed = leaky_masses(self.cutoff)
        limit = self.limit or show(closed[-1])
        expected = {"verdict": "non-ast", "exact": True, "limit": limit,
                    "term": "c0", "depth": self.cutoff}
        for key, want in expected.items():
            if out.get(key) != want:
                problems.append(f"{key} is {out.get(key)!r}, expected {want!r}")
        want_masses = [
            {"depth": d, "mass": show(m)} for d, m in enumerate(closed[:-1], start=1)
        ]
        if out.get("masses") != want_masses:
            problems.append("masses by depth differ from the closed form")
        if seed == DEFAULT_SEED and self.golden is not None:
            if sha256(stdout) != self.golden["sha256"]:
                problems.append("--json bytes differ from the captured output")
        return problems


def check_validate(spec_valid, exit_code, stdout):
    """The set-up probe: the spec parses and validates as it should."""
    try:
        valid = json.loads(stdout).get("valid")
    except ValueError:
        return [f"validate stdout is not JSON (exit {exit_code})"]
    problems = []
    if valid is not spec_valid:
        problems.append(f"validate says valid={valid!r}, expected {spec_valid!r}")
    if exit_code != (0 if spec_valid else 1):
        problems.append(f"validate exit code {exit_code}")
    return problems


COPY_WITNESS = (
    "pre_a(plus(pre_b(nil), pre_c(nil)))",
    "plus(pre_a(pre_b(nil)), pre_a(pre_c(nil)))",
    "f([])",
    "abc",
)


def full_workloads():
    """The benchmark's workloads by name, in the order `--all` runs them."""
    golden = load_golden()
    workloads = (
        Congruence("congruence-copy", "copy_nonaffine", 7, 4, 158728513,
                   COPY_WITNESS, valid=False, golden=golden["congruence-copy"]),
        Congruence("congruence-prob", "prob_par", 7, 5, 847,
                   golden=golden["congruence-prob"]),
        LeakyAst("ast-leaky", 160, golden=golden["ast-leaky"]),
    )
    return {w.name: w for w in workloads}
