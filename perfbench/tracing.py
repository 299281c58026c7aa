"""Span tracer that wraps loopsynth's public functions from outside.

Each wrapped name is replaced where its callers look it up (for example
``loopsynth.cli.run_loop_sampled`` and ``loopsynth.engine.run_loop_sampled``
both point at one traced wrapper), so no file of the package changes.  A
span records a name, a start, an end and its parent span.  Spans stay in
memory while the workload runs and are written out once at the end.

``engine.run_loop`` is a generator: each resumption is its own span, opened
when the consumer asks for the next record and closed when the record is
handed over.  The consumer's own work between records therefore counts for
the consumer, not for the engine.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import loopsynth.cli
import loopsynth.compiler
import loopsynth.engine
import loopsynth.schedule
import loopsynth.verifier
import loopsynth.waveform

ROOT = "bench.op"

# span name -> the modules whose attribute of that name is replaced
CALL_SITES = {
    "compiler.compile_target": ("compile_target", (
        loopsynth.cli, loopsynth.compiler, loopsynth.verifier)),
    "compiler.hardware_check": ("hardware_check", (loopsynth.cli, loopsynth.compiler)),
    "schedule.parse_schedule": ("parse_schedule", (loopsynth.cli, loopsynth.schedule)),
    "schedule.serialize_schedule": ("serialize_schedule", (
        loopsynth.cli, loopsynth.schedule)),
    "engine.run_loop_sampled": ("run_loop_sampled", (loopsynth.cli, loopsynth.engine)),
    "engine.run_unrolled": ("run_unrolled", (
        loopsynth.cli, loopsynth.engine, loopsynth.verifier)),
    "engine.memory_experiment": ("memory_experiment", (loopsynth.cli, loopsynth.engine)),
    "verifier.stream_nullifier_variances": ("stream_nullifier_variances", (
        loopsynth.cli, loopsynth.verifier)),
    "verifier.plan_measurements": ("plan_measurements", (
        loopsynth.cli, loopsynth.verifier)),
    "verifier.estimate": ("estimate", (loopsynth.cli, loopsynth.verifier)),
    "verifier.variance_analytic": ("variance_analytic", (
        loopsynth.cli, loopsynth.verifier)),
    "waveform.synthesize_frames": ("synthesize_frames", (loopsynth.waveform,)),
    "waveform.extract_quadratures": ("extract_quadratures", (loopsynth.waveform,)),
    # the constructor runs the eigvalsh validation on every state
    "gaussian.GaussianState": ("GaussianState", (loopsynth.engine, loopsynth.verifier)),
}
RUN_LOOP_SITES = (loopsynth.engine, loopsynth.verifier)

# names reported with calls/self/errors; engine.run_loop is the analytic
# stream only; the GaussianState constructor is reported under gaussian.*
LAYER_FUNCTIONS = ("cli.verify", "cli.memory", "engine.run_loop") + tuple(
    name for name in CALL_SITES if name != "gaussian.GaussianState")


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self.close(sid)

    # -- wrappers ---------------------------------------------------------

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for name, (attr, modules) in CALL_SITES.items():
            wrapper = self._wrap_call(name, getattr(modules[0], attr))
            for module in modules:
                self._replace(module, attr, wrapper)
        run_loop = self._wrap_run_loop(loopsynth.engine.run_loop)
        for module in RUN_LOOP_SITES:
            self._replace(module, "run_loop", run_loop)
        self._replace(loopsynth.cli, "main", self._wrap_main(loopsynth.cli.main))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap_call(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result
        return traced

    def _wrap_main(self, fn):
        tracer = self

        def traced(argv=None):
            return tracer.call(f"cli.{argv[0]}", fn, argv)
        return traced

    def _wrap_run_loop(self, fn):
        tracer = self

        def traced(schedule, source, window=8, seed=None, sampling=None):
            # a sampled stream runs inside run_loop_sampled, whose span its
            # resumptions nest in and whose name (and self time) they share
            name = "engine.run_loop" if sampling is None else "engine.run_loop_sampled"
            if sampling is None:
                tracer.calls[name] += 1
            records = fn(schedule, source, window=window, seed=seed, sampling=sampling)
            return tracer._resumptions(name, records, sampling)
        return traced

    def _resumptions(self, name, records, sampling):
        counts = self.counts
        last_bin = 0
        while True:
            sid = self.open(name)
            try:
                record = next(records)
            except StopIteration:
                return
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.close(sid)
            bins, last_bin = record.exit_bin - last_bin, record.exit_bin
            if sampling is None:
                counts["engine.analytic_bins"] += bins
                counts["engine.max_window_modes"] = max(
                    counts["engine.max_window_modes"], len(record.window_modes))
            else:
                counts["engine.sampled_bin_kshots"] += bins * sampling.shots / 1000.0
            yield record

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start - self.t0,
                                      "end": end - self.t0, "parent": parent}) + "\n")


def _count_plan_groups(counts, args, groups):
    counts["verifier.plan_groups"] += len(groups)


def _count_frames(key):
    def count(counts, args, result):
        frames = len(result) if key == "synthesize" else len(args[0])
        counts[f"waveform.{key}_frames"] += frames
    return count


_COUNTERS = {
    "verifier.plan_measurements": _count_plan_groups,
    "waveform.synthesize_frames": _count_frames("synthesize"),
    "waveform.extract_quadratures": _count_frames("extract"),
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase, normalised per operation."""
    ops = max(ops, 1)
    selfs = tracer.self_times()
    calls, counts = tracer.calls, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls_per_op"] = (calls.get(name, 0) / ops, "count")
        out[f"{name}.self_s_per_op"] = (selfs.get(name, 0.0) / ops, "s")
        out[f"{name}.errors"] = (tracer.errors.get(name, 0), "count")

    def per(total, count, scale=1e6):
        return total / count * scale if count else 0.0

    verifies = calls.get("cli.verify", 0)
    out["compiler.compile_calls_per_verify"] = (
        per(_calls_under(tracer, "compiler.compile_target", "cli.verify"), verifies, 1.0),
        "count")
    out["engine.analytic_us_per_bin"] = (
        per(selfs.get("engine.run_loop", 0.0), counts["engine.analytic_bins"]), "us")
    out["engine.max_window_modes"] = (counts["engine.max_window_modes"], "count")
    out["engine.sampled_us_per_bin_kshot"] = (
        per(selfs.get("engine.run_loop_sampled", 0.0),
            counts["engine.sampled_bin_kshots"]), "us")
    out["verifier.plan_groups_per_op"] = (counts["verifier.plan_groups"] / ops, "count")
    out["gaussian.state_constructions_per_op"] = (
        calls.get("gaussian.GaussianState", 0) / ops, "count")
    out["gaussian.validate_self_s_per_op"] = (
        selfs.get("gaussian.GaussianState", 0.0) / ops, "s")
    out["gaussian.errors"] = (tracer.errors.get("gaussian.GaussianState", 0), "count")
    out["waveform.synthesize_us_per_frame"] = (
        per(selfs.get("waveform.synthesize_frames", 0.0),
            counts["waveform.synthesize_frames"]), "us")
    out["waveform.extract_us_per_frame"] = (
        per(selfs.get("waveform.extract_quadratures", 0.0),
            counts["waveform.extract_frames"]), "us")
    root = selfs.get(ROOT, 0.0)
    total = sum(selfs.values())
    out["trace.layer_share"] = ((total - root) / total if total else 0.0, "ratio")
    out["trace.spans_per_op"] = (len(tracer.spans) / ops, "count")
    return out


def _calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    spans = tracer.spans
    found = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        found += parent >= 0
    return found
