"""The benchmark under ``perfbench/`` still runs against the package: its
set-up probe takes a first step on every workload, and its tracer finds every
name it wraps.  Each check runs in a fresh process, as the benchmark's do."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# Installs the tracer (every TARGETS name must resolve), restores it, and
# prints the first pool seed of each workload.
TRACER_PROBE = """
import json, tracer, workloads
probe = tracer.Tracer()
probe.install()
wrapped = tracer.installed_wrappers()
probe.restore()
assert len(wrapped) == len(tracer.TARGETS) and not tracer.installed_wrappers(), wrapped
print(json.dumps({name: wl.pool[0] for name, wl in workloads.WORKLOADS.items()}))
"""


def _last_json_line(*args):
    proc = subprocess.run([sys.executable, *args], cwd=PERFBENCH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def first_pool_seeds():
    seeds = _last_json_line("-c", TRACER_PROBE)
    assert sorted(seeds) == sorted(WORKLOADS)
    return seeds


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_step_probe_runs_on_every_workload(workload, first_pool_seeds):
    marks = _last_json_line("first_step.py", workload, str(first_pool_seeds[workload]))
    times = [marks[key] for key in ("import", "data", "setup", "step")]
    assert all(a < b for a, b in zip(times, times[1:])), marks
