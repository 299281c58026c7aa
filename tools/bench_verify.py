"""Bench in-process ``verify`` pinned to one CPU against unpinned.

    python3 tools/bench_verify.py OUT.json [--pairs 10]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Compiles the ``cluster1d`` target at 1008 modes, then
times pairs of in-process ``loopsynth verify`` runs (5000 shots, realistic
noise, detection efficiency 0.911) on it.  In each pair one run is pinned to a
single CPU with ``os.sched_setaffinity``, so verify samples its plans one
after the other in this process, and the other run has every CPU of the
starting mask, so verify forks one process per further plan.  The two runs
of a pair use the same seed and the order alternates from pair to pair.
Their CSVs must be the same bytes past the first line, or the bench fails.

Writes OUT.json: per side the wall times and CPU times of every run (CPU
time includes reaped children), their median and interquartile range, and
the pairs that side won; the peak resident set of this process and of its
largest child; and an environment manifest.  BLAS runs on one thread, as
in the benchmark harness.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from loopsynth.cli import main as loopsynth_main  # noqa: E402

MODES = 1008
SHOTS = 5000
EFFICIENCY = "0.911"


def cpu_seconds() -> float:
    """User and system time of this process and of its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_verify(argv: list[str]) -> tuple[float, float]:
    """Wall and CPU seconds of one in-process verify; CPU counts children."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = loopsynth_main(argv)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    if code != 0:
        raise RuntimeError(f"verify exited {code}")
    return wall, cpu


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "runs": values}


def manifest(args, cpus: set[int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:  # "-dirty" when the measured sources are not the commit's
        commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                                cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cpus_unpinned": len(cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": 1,
        "git_commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
        "modes": MODES,
        "shots": SHOTS,
        "pairs": args.pairs,
        "efficiency": float(EFFICIENCY),
        "seed_rule": "SeedSequence([7, pair]).generate_state(1)[0]",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least two pairs for quartiles")

    cpus = os.sched_getaffinity(0)
    sides = {"pinned": {min(cpus)}, "unpinned": cpus}
    wall = {side: [] for side in sides}
    cpu = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        schedule = str(Path(tmp, "cluster.json"))
        with contextlib.redirect_stdout(io.StringIO()):
            loopsynth_main(["compile", "cluster1d", "--n", str(MODES),
                            "-o", schedule])

        def verify(side: str, seed: int) -> tuple[float, float]:
            os.sched_setaffinity(0, sides[side])
            try:
                return run_verify([
                    "verify", schedule, "--realistic", "--efficiency", EFFICIENCY,
                    "--shots", str(SHOTS), "--seed", str(seed),
                    "--csv", str(Path(tmp, f"{side}.csv"))])
            finally:
                os.sched_setaffinity(0, cpus)

        def rows(side: str) -> list[str]:
            return Path(tmp, f"{side}.csv").read_text().splitlines()[1:]

        for side in sides:  # warm-up
            verify(side, 0)
        for pair in range(args.pairs):
            seed = int(np.random.SeedSequence([7, pair]).generate_state(1)[0])
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                w, c = verify(side, seed)
                wall[side].append(w)
                cpu[side].append(c)
            if rows("pinned") != rows("unpinned"):
                raise RuntimeError(f"pair {pair}: pinned and unpinned CSVs differ")
            print(f"pair {pair}: pinned {wall['pinned'][-1]:.3f} s, "
                  f"unpinned {wall['unpinned'][-1]:.3f} s", flush=True)

    result = {
        side: {
            "wall_s": summary(wall[side]),
            "cpu_s_with_children": summary(cpu[side]),
            "wins": sum(mine < theirs for mine, theirs in
                        zip(wall[side], wall[other])),
        }
        for side, other in (("pinned", "unpinned"), ("unpinned", "pinned"))
    }
    result["peak_rss_mb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    result["csv_bytes_identical"] = True
    result["manifest"] = manifest(args, cpus)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for side in sides:
        w = result[side]["wall_s"]
        print(f"{side}: median {w['median']:.3f} s, IQR {w['iqr']:.3f} s, "
              f"{result[side]['wins']}/{args.pairs} wins")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
