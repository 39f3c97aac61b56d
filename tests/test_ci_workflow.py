"""The CI workflow runs what the repository says it runs.

``.github/workflows/tests.yml`` restates facts kept elsewhere: the
benchmark's workloads (``BENCHMARK.json``), the tier-1 command
(``ROADMAP.md``), the NumPy floor and the oldest Python
(``pyproject.toml``).  Each check here fails when one copy moves and
the other does not.

Its packaging smoke test is ``tests/smoke.sh`` on the installed
package; tier-1 runs the same script on the source tree, so a check
in it that fails fails here too.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
JOBS = WORKFLOW["jobs"]
PYPROJECT = (ROOT / "pyproject.toml").read_text()
SMOKE = ROOT / "tests" / "smoke.sh"


def step_runs(job: dict) -> list[str]:
    """The ``run`` text of each step of a job that has one."""
    return [step["run"] for step in job["steps"] if "run" in step]


def version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_each_benchmark_loop_runs_exactly_the_benchmark_workloads():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(workload["name"] for workload in benchmark["workloads"])
    loops = [
        loop.split()
        for job in JOBS.values()
        for run in step_runs(job)
        for loop in re.findall(r"for workload in ([^;\n]*); do\n[^\n]*perfbench/run\.py", run)
    ]
    assert len(loops) == 2
    for loop in loops:
        assert sorted(loop) == workloads


def test_each_tier1_step_is_the_roadmap_verify_line_under_error_warnings():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    expected = verify.group(1).replace(" python -m pytest", " python -W error -m pytest", 1)
    assert expected != verify.group(1)
    steps = [
        step["run"]
        for job in JOBS.values()
        for step in job["steps"]
        if step.get("name") == "Tier-1 tests"
    ]
    assert steps == [expected] * len(JOBS)


def test_the_numpy_floor_job_installs_the_pyproject_floor():
    floor = re.search(r'^dependencies = \["numpy>=([0-9.]+)"\]$', PYPROJECT, re.M).group(1)
    installs = [run for run in step_runs(JOBS["numpy-floor"]) if "pip install" in run]
    assert len(installs) == 1
    assert f'"numpy=={floor}.*"' in installs[0].split()


def test_the_lowest_python_of_the_matrix_is_the_one_pyproject_requires():
    required = re.search(r'^requires-python = ">=([0-9.]+)"$', PYPROJECT, re.M).group(1)
    matrix = JOBS["tests"]["strategy"]["matrix"]["python-version"]
    assert min(matrix, key=version) == required
    floor_job = JOBS["numpy-floor"]["steps"]
    assert [step["with"]["python-version"] for step in floor_job if "with" in step] == [required]


def test_the_packaging_smoke_step_installs_the_package_and_runs_the_script():
    steps = [
        step["run"] for step in JOBS["tests"]["steps"] if step.get("name") == "Packaging smoke test"
    ]
    assert len(steps) == 1
    assert steps[0].splitlines() == [
        "python -m pip install .",
        f'bash {SMOKE.relative_to(ROOT)} "$RUNNER_TEMP"',
    ]


def test_the_smoke_script_passes_on_the_source_tree(tmp_path):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "MIDISYNC": "python3 -m midisync.cli", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        ["bash", str(SMOKE), str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
