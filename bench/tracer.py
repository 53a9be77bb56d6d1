"""Traced run of the desimone command line, with spans recorded from outside.

    PYTHONPATH=src python3 bench/tracer.py OUT.json RUN_ID -- congruence ... --json

Wraps the public function at each module boundary, runs `desimone.cli.main`
on the remaining arguments, and writes the spans and per-layer totals to
OUT.json when the command returns. The exit code is the command's.

A span (name, start, end, parent, run id) is kept for each phase-level call:
the command itself, spec parsing, the fingerprint pass, bisimulation,
context generation, the context-split phase, the congruence search and the
termination estimate. Hot boundaries (`step`, `bar_rho_step`, the
`FormalSum` constructor, the trace tables and term enumeration) run up to
millions of times, so each is kept as a call count and a self time instead
of one span per call. Semiring `add` and `mul` are counted, not timed; their
time stays in their callers' self time.

Self time is a call's duration minus the time its wrapped callees took, so
the self times of all wrapped layers plus the time outside every wrapper
(interpreter start, imports, exit) add up to the process's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.frames = []  # open wrapped calls: [start, time spent in callees]
        self.open_spans = []  # ids of open phase spans
        self.spans = []
        self.self_s = defaultdict(float)  # layer -> self time
        self.calls = defaultdict(int)  # layer -> calls
        self.counts = defaultdict(int)  # named work counters
        self.times = defaultdict(float)  # named phase times
        self.specs = []
        self.split_start = None  # set while counterexample_search splits
        self.last_closed = None  # id of the phase span that ended last

    def parent_span(self):
        return self.spans[self.open_spans[-1]]["name"] if self.open_spans else None

    def wrap(self, layer, fn, span=False, before=None, after=None):
        """`fn` timed as `layer`; `before(args)` runs first and its result,
        with the call's arguments, result and duration, goes to `after`."""
        frames, self_s, calls = self.frames, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            note = before(args) if before else None
            if span:
                self.open_spans.append(len(self.spans))
                self.spans.append({
                    "name": layer,
                    "parent": self.open_spans[-2] if len(self.open_spans) > 1 else None,
                    "run": self.run_id,
                })
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if frames:
                    frames[-1][1] += duration
                if span:
                    self.last_closed = self.open_spans.pop()
                    record = self.spans[self.last_closed]
                    record["start"], record["end"] = frame[0], end
            if after:
                after(note, args, result, duration)
            return result

        return wrapper

    def wrap_generator(self, layer, fn):
        """A generator function, timed only while it computes the next item."""
        frames, self_s = self.frames, self.self_s

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[layer] += 1
            while True:
                frame = [clock(), 0.0]
                frames.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = clock() - frame[0]
                    frames.pop()
                    self_s[layer] += duration - frame[1]
                    if frames:
                        frames[-1][1] += duration
                self.counts["terms.enumerated"] += 1
                yield item

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper


def _rebind(original, wrapper):
    """Point every desimone module's name for `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name == "desimone" or name.startswith("desimone."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the public functions at each module boundary."""
    import desimone.cli  # noqa: F401  (loads every module before rebinding)
    from desimone import analysis, cli, formalsum, law, opmodel, rulespec, terms, trace
    from desimone.semiring import SEMIRINGS

    t = tracer
    model_cache = opmodel.model_cache

    def step_before(args):
        spec, term = args[0], args[1]
        return term in model_cache(spec).step

    def step_after(hit, args, result, duration):
        t.counts["opmodel.step_hits"] += hit

    def bounded_before(args):
        spec, term, depth = args
        return depth > 0 and (term, depth) not in model_cache(spec).trace

    def bounded_after(miss, args, result, duration):
        if t.split_start is not None:
            t.counts["analysis.split_checks"] += 1
            t.counts["analysis.composite_tables"] += miss

    def parsed(note, args, spec, duration):
        t.specs.append(spec)

    def fingerprinted(note, args, buckets, duration):
        if t.parent_span() == "analysis.counterexample_search":
            t.times["analysis.fingerprint_s"] += duration
            t.counts["analysis.buckets"] += len(buckets)
        else:
            t.times["cli.fingerprint_s"] += duration

    def partitioned(note, args, blocks, duration):
        t.times["analysis.bisim_s"] += duration
        t.counts["analysis.bisim_states"] += len(blocks)
        t.counts["analysis.bisim_blocks"] += len(set(blocks.values()))

    def contexts_made(note, args, contexts, duration):
        t.counts["analysis.contexts"] += len(contexts)
        if t.parent_span() == "analysis.counterexample_search":
            t.split_start = clock()

    def searched(note, args, result, duration):
        # the split phase: from generate_contexts returning to the search's end
        search = t.spans[t.last_closed]
        if t.split_start is not None:
            t.times["analysis.split_s"] += search["end"] - t.split_start
            t.spans.append({
                "name": "analysis.split", "start": t.split_start, "end": search["end"],
                "parent": t.last_closed, "run": t.run_id,
            })
            t.split_start = None

    wrapped = [
        (cli.main, t.wrap("cli.main", cli.main, span=True)),
        (rulespec.parse_spec, t.wrap("rulespec.parse_spec", rulespec.parse_spec,
                                     span=True, after=parsed)),
        (terms.enumerate_closed_terms,
         t.wrap_generator("terms.enumerate_closed_terms", terms.enumerate_closed_terms)),
        (law.bar_rho_step, t.wrap("law.bar_rho_step", law.bar_rho_step)),
        (opmodel.step, t.wrap("opmodel.step", opmodel.step,
                              before=step_before, after=step_after)),
        (trace.trace_bounded, t.wrap("trace.trace_bounded", trace.trace_bounded,
                                     before=bounded_before, after=bounded_after)),
        (trace.partial_trace_bounded,
         t.wrap("trace.partial_trace_bounded", trace.partial_trace_bounded)),
        (trace.trace_direct, t.wrap("trace.trace_direct", trace.trace_direct)),
        (trace.ast_estimate, t.wrap("trace.ast_estimate", trace.ast_estimate, span=True)),
        (analysis.fingerprint_buckets,
         t.wrap("analysis.fingerprint_buckets", analysis.fingerprint_buckets,
                span=True, after=fingerprinted)),
        (analysis.bisim_partition,
         t.wrap("analysis.bisim_partition", analysis.bisim_partition,
                span=True, after=partitioned)),
        (analysis.generate_contexts,
         t.wrap("analysis.generate_contexts", analysis.generate_contexts,
                span=True, after=contexts_made)),
        (analysis.counterexample_search,
         t.wrap("analysis.counterexample_search", analysis.counterexample_search,
                span=True, after=searched)),
    ]
    for original, wrapper in wrapped:
        _rebind(original, wrapper)
    formalsum.FormalSum.__init__ = t.wrap("formalsum.FormalSum", formalsum.FormalSum.__init__)
    for semiring in SEMIRINGS.values():
        semiring.add = t.counter("semiring.add_calls", semiring.add)
        semiring.mul = t.counter("semiring.mul_calls", semiring.mul)
    return cli


def memo_sizes(tracer):
    """Memo table sizes of every parsed spec, read when the command is done."""
    from desimone.opmodel import model_cache

    sizes = defaultdict(int)
    for spec in tracer.specs:
        cache = model_cache(spec)
        sizes["opmodel.step_memo"] += len(cache.step)
        for memo in (cache.trace, cache.partial):
            sizes["trace.memo_tables"] += len(memo)
            sizes["trace.memo_words"] += sum(len(table) for table in memo.values())
    return dict(sizes)


def main(argv):
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json RUN_ID -- DESIMONE_ARGS...")
    tracer = Tracer(run_id)
    cli = install(tracer)
    code = cli.main(cli_args)
    sys.stdout.flush()
    report = {
        "run": run_id,
        "spans": tracer.spans,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "times": dict(tracer.times),
        "memo": memo_sizes(tracer),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
