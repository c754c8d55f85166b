"""Every benchmark stage runs once at toy size and meets its gates.

The benchmark calls the package through names, signatures and a CLI config
of its own (``bench/workloads.py``); a change that breaks one of them fails
every pass of the benchmark run.  This runs each stage of each workload
once, as the benchmark worker does, at the toy shapes of its self-check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_stages_run_and_meet_their_gates(workload, tmp_path):
    inputs = workloads.setup(workload, 2024, True, tmp_path)
    for stage in workloads.WORKLOADS[workload]:
        _, gates = workloads.RUNS[stage](inputs[stage])
        failed = [(g.name, g.measured, g.threshold) for g in gates if not g.passed]
        assert gates and not failed, (stage, failed)
