"""Scaling probes, run once in the traced run of ``chain4000_certify``.

* The analytic engine alone on the 10k-mode chain at windows 3, 8 and 32
  (the total, and microseconds per bin).
* ``plan_measurements`` and ``stream_nullifier_variances`` at chain lengths
  1008, 4000 and 10000.  The stream runs traced, so its bookkeeping (its
  self time, without the ``run_loop`` and ``variance_analytic`` children)
  is split out.  The log-log slope between consecutive lengths shows
  growth faster than linear.
"""

from __future__ import annotations

import math
import time

import loopsynth.compiler
import loopsynth.engine
import loopsynth.verifier
from loopsynth.compiler import TargetState

import tracing
from workloads import REALISTIC, SOURCE

LENGTHS = (1008, 4000, 10_000)
WINDOWS = (3, 8, 32)


def run() -> dict[str, float]:
    out: dict[str, float] = {}
    for n in LENGTHS:
        target = TargetState.infinite_cluster(n)
        schedule = loopsynth.compiler.compile_target(target, REALISTIC)
        specs = loopsynth.verifier.nullifiers_for(target)
        t0 = time.perf_counter()
        loopsynth.verifier.plan_measurements(specs, n, shots=5000)
        out[f"plan_measurements_n{n}_s"] = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            loopsynth.verifier.stream_nullifier_variances(schedule, SOURCE, specs, window=8)
            out[f"stream_nullifier_n{n}_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out[f"stream_bookkeeping_n{n}_s"] = \
            tracer.self_times()["verifier.stream_nullifier_variances"]
    for window in WINDOWS:  # on the longest chain, built last above
        t0 = time.perf_counter()
        for _ in loopsynth.engine.run_loop(schedule, SOURCE, window=window):
            pass
        total = time.perf_counter() - t0
        out[f"engine_w{window}_n{n}_s"] = total
        out[f"analytic_us_per_bin_w{window}_n{n}"] = total / len(schedule.bins) * 1e6
    for key in ("plan_measurements", "stream_bookkeeping"):
        for a, b in zip(LENGTHS, LENGTHS[1:]):
            ta, tb = out[f"{key}_n{a}_s"], out[f"{key}_n{b}_s"]
            out[f"{key}_slope_n{a}_n{b}"] = math.log(tb / ta) / math.log(b / a)
    return out
