"""Harness self-test at reduced size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with ``--small`` for a second,
untraced and traced, and fails if a run is not correct or if any metric
named in BENCHMARK.json is missing or carries another unit.  It also checks
that ``small_sweep`` under ``engine.inject_fault("bs-sign")`` reports
failures from its own output checks, and that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(SPEC["command"] + ["--seed", "3", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def metric_problems(result: dict, wanted: list[dict]) -> list[str]:
    got = result["metrics"]
    problems = [f"unexpected metric {name}" for name in
                sorted(set(got) - {m["name"] for m in wanted})]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, expected {m['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)) \
                or not math.isfinite(entry["value"]):
            problems.append(f"{m['name']}: value {entry.get('value')!r}")
    return problems


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = bench("--workload", workload, "--trace", trace, "--small")
            result = last_json(proc)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}, {proc.stderr.strip()}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            problems += [f"{where}: {p}" for p in metric_problems(result, wanted)]
            print(f"ran {where}: {result['attempted']} attempted, {result['failed']} failed")

    # the operations' own output checks must catch the fault, not only selfcheck
    faulty = last_json(bench("--workload", "small_sweep", "--trace", "0", "--small",
                             "--inject-fault", "bs-sign"))
    saved = json.loads((ROOT / "perfbench" / "out" /
                        "result-small_sweep-seed3-trace0.json").read_text())
    if faulty is None or not faulty["failed"] / faulty["attempted"] > 0 \
            or not any(f.startswith("op ") for f in saved["failures"]):
        problems.append("small_sweep's checks missed the bs-sign fault")
    else:
        print(f"ran small_sweep with bs-sign fault: failed_ratio "
              f"{faulty['failed'] / faulty['attempted']:.3f}")

    bare = ROOT / "perfbench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "small_sweep", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or last_json(proc) is not None:
            problems.append("the benchmark ran without the package sources")
        else:
            print(f"bare directory refused: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
