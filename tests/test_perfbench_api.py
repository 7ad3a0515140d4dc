"""The benchmark in perfbench/ drives clockring through public names only.

These tests read perfbench/ without changing it, so renaming or removing a
name it uses fails here and not first in a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load(monkeypatch):
    def loader(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    return loader


def test_warmup_and_job_lists(load):
    workloads = load("workloads")
    workloads.warmup()
    for name, inputs in workloads.WORKLOADS.items():
        assert inputs(0), name


def test_every_traced_function_resolves(load):
    spans = load("spans")
    for layer, entries in spans.LAYERS.items():
        for module_name, attr in entries:
            owner = importlib.import_module(f"clockring.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (layer, module_name, attr)


@pytest.mark.parametrize("workload", ["certify", "orbit", "build"])
def test_jobs_meet_their_invariants_and_golden_values(load, workload):
    # `build` compiles at (4,1,1), dim 1.42 M: a few seconds and about 0.5 GB
    # at its peak, which gates the ring sum on golden dim/nnz and exact-zero
    # residuals.
    workloads = load("workloads")
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    for job in workloads.WORKLOADS[workload](golden["default_seed"]):
        values, problems = job.run()
        problems = problems + workloads.compare_golden(job, values, golden["values"], True)
        assert not problems, (job.name, problems)
