"""loopsynth benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The workload's inputs come from ``--seed``.  After
set-up, one warm-up operation and the package's selfcheck, operations run
back to back for ``--seconds`` seconds and every one has its outputs
checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
every other operation runs traced and the metrics are the per-layer ones.
Results, the environment manifest and the spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# The matrices here are small (at most shots x a few modes); on the 2-core
# machine measured, verify ran 2.7-3.4 s per operation with one BLAS thread
# and 3.0-3.7 s with two, so one thread is both faster and steadier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 9
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import loopsynth; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for the harness self-test")
    p.add_argument("--inject-fault", choices=("bs-sign",), default=None,
                   help="run under loopsynth.engine.inject_fault (self-test)")
    return p.parse_args(argv)


def import_package():
    if not (SRC / "loopsynth" / "__init__.py").is_file():
        sys.exit(f"error: no loopsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loopsynth
    if Path(loopsynth.__file__).resolve().parent != SRC / "loopsynth":
        sys.exit(f"error: loopsynth imported from {loopsynth.__file__}, not {SRC}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it.

    Falls back to the median when the run has too few operations for any.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if len(self.failures) <= 5:
            print(f"failure: {message}", file=sys.stderr)

    def one(self, i: int, tracer=None) -> tuple[float, int]:
        """Run and check operation ``i``; returns (seconds, items)."""
        self.attempted += 1
        sid = tracer.open("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = self.workload.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0
        finally:
            if tracer:
                tracer.close(sid)
        elapsed = time.perf_counter() - t0
        for problem in self.workload.check(result):
            self.fail(f"op {i}: {problem}")
        return elapsed, self.workload.items(result)

    def loop(self, seconds: float, tracer=None):
        """Closed loop: the next operation starts when the last one ends.

        With a tracer, odd operations run traced and even ones untraced, so
        both see the same machine conditions.  Returns the untraced
        latencies, the traced latencies and the items the untraced
        operations completed.
        """
        plain, traced, items = [], [], 0
        end = time.perf_counter() + seconds
        while not plain or (tracer and not traced) or time.perf_counter() < end:
            i = self.next_op
            self.next_op += 1
            if tracer and i % 2:
                tracer.install()
                try:
                    traced.append(self.one(i, tracer)[0])
                finally:
                    tracer.uninstall()
            else:
                elapsed, done = self.one(i)
                plain.append(elapsed)
                items += done
        return plain, traced, items


def measure_setup(workload) -> tuple[float, float]:
    """Median import time (fresh interpreters) and median input build time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(child.stdout))
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports), statistics.median(builds)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def manifest(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "loopsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "op_seed_rule": "SeedSequence([seed, op_index]).generate_state(1)[0]",
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


def run(args) -> dict:
    import loopsynth.selfcheck
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.small, workdir)
        import_s, build_s = measure_setup(workload)
        workload.prepare_checks()
        runner = Runner(workload)
        checks = loopsynth.selfcheck.run_selfcheck()
        runner.attempted += len(checks)
        for check in checks:
            if not check.passed:
                runner.fail(f"selfcheck {check.name}: {check.detail}")
        runner.one(0)  # warm-up, excluded from timing; op 0 runs again below
        result = {"manifest": manifest(args), "import_s": import_s, "build_s": build_s}
        if args.trace:
            result.update(traced_run(args, runner))
        else:
            latencies, _, items = runner.loop(args.seconds)
            result.update(end_to_end(latencies, items, import_s + build_s))
        result["attempted"], result["failed"] = runner.attempted, len(runner.failures)
        result["failures"] = runner.failures[:20]
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(latencies, items, setup_s) -> dict:
    percentile, tail_s = tail(latencies)
    metrics = {
        "op_s": (statistics.median(latencies), "s"),
        "items_per_s": (items / sum(latencies), "1/s"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"metrics": metrics, "ops": len(latencies),
            "tail_percentile": percentile, "measured_s": sum(latencies)}


def traced_run(args, runner) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, _ = runner.loop(args.seconds, tracer)
    metrics = tracing.layer_metrics(tracer, len(traced))
    untraced_op, traced_op = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_ratio"] = ((traced_op - untraced_op) / untraced_op, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # the self times of all spans of an operation add up to its traced time
    out = {"metrics": metrics, "untraced_ops": len(plain), "traced_ops": len(traced),
           "untraced_op_s": untraced_op, "traced_op_s": traced_op,
           "untraced_mean_op_s": statistics.fmean(plain),
           "traced_mean_op_s": statistics.fmean(traced),
           "self_sum_per_op_s": sum(tracer.self_times().values()) / len(traced),
           "spans": len(tracer.spans)}
    if args.workload == "chain4000_certify" and not args.small:
        import probes
        out["probes"] = probes.run()
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.inject_fault:
        import loopsynth.engine
        with loopsynth.engine.inject_fault(args.inject_fault):
            result = run(args)
    else:
        result = run(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.pop("metrics").items()}
    (OUT / name).write_text(json.dumps(dict(result, metrics=metrics), indent=1) + "\n")

    print("manifest: " + json.dumps(result["manifest"]))
    details = {k: v for k, v in result.items() if k not in ("manifest", "failures")}
    details["failed_ratio"] = result["failed"] / result["attempted"]
    print("details: " + json.dumps(details))
    for key, m in metrics.items():
        print(f"  {key:<46} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
