"""Run the CI workflow's steps on this machine, without a CI service.

    python3 tools/ci_steps.py

Reads ``.github/workflows/ci.yml`` and runs every step that has a
``run:`` script, in order, from the root of the checkout, under
``bash -eo pipefail`` as the hosted runner does.  The job's ``env`` is
applied, ``RUNNER_TEMP`` points to a fresh temporary directory, and a shim
for the ``loopsynth`` console script, on this interpreter, comes first on
``PATH``.  The step that installs the package with pip is skipped,
because it needs the network; in its place the checkout's ``src/`` ends
``PYTHONPATH``, so the package imports from any directory as after an
editable install.  Everything else runs as written.  The matrix is not
expanded: the steps run once, on this interpreter.  Prints one line per
step with its status and time, and the output of each step that fails;
exits 1 if any step fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def workflow_steps() -> list[tuple[str, dict, str]]:
    """``(name, job env, run script)`` of every step with a ``run:``, in order."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = []
    for job in doc["jobs"].values():
        env = {k: str(v) for k, v in job.get("env", {}).items()}
        for step in job["steps"]:
            if "run" in step:
                steps.append((step.get("name", step["run"]), env, step["run"]))
    return steps


def is_install(script: str) -> bool:
    return "pip install" in script


def run_steps(steps) -> int:
    failed = skipped = 0
    with tempfile.TemporaryDirectory() as tmp:
        shims, runner_temp = Path(tmp, "bin"), Path(tmp, "runner_temp")
        shims.mkdir()
        runner_temp.mkdir()
        shim = shims / "loopsynth"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m loopsynth.cli "$@"\n')
        shim.chmod(0o755)
        for name, env, script in steps:
            if is_install(script):
                print(f"SKIP           {name} (pip install needs the network)")
                skipped += 1
                continue
            step_env = {**os.environ, **env, "RUNNER_TEMP": str(runner_temp),
                        "PATH": f"{shims}{os.pathsep}{os.environ['PATH']}"}
            step_env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (step_env.get("PYTHONPATH"), str(ROOT / "src"))))
            start = time.perf_counter()
            done = subprocess.run(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                cwd=ROOT, env=step_env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            status = "PASS" if done.returncode == 0 else "FAIL"
            print(f"{status} {time.perf_counter() - start:7.1f} s  {name}", flush=True)
            if done.returncode != 0:
                failed += 1
                print("    " + done.stdout.rstrip().replace("\n", "\n    "))
    print(f"{len(steps)} steps: {len(steps) - skipped - failed} passed, "
          f"{failed} failed, {skipped} skipped")
    return 1 if failed else 0


def main() -> int:
    return run_steps(workflow_steps())


if __name__ == "__main__":
    sys.exit(main())
