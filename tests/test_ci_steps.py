"""The offline runner of the CI workflow reads the workflow's steps."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "ci_steps", ROOT / "tools" / "ci_steps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_reads_every_named_step_of_the_workflow():
    runner = load_runner()
    steps = runner.workflow_steps()
    names = [name for name, _, _ in steps]
    assert len(names) == len(set(names)) == 14
    assert names[:2] == ["Install the package with its test dependencies",
                         "Tier-1 tests"]
    assert all(env == {"PYTHONPATH": "src"} for _, env, _ in steps)
    # only the pip install is skipped offline
    assert [runner.is_install(script) for _, _, script in steps] == \
        [True] + [False] * 13
