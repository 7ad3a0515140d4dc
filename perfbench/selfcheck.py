#!/usr/bin/env python3
"""Self-check of the benchmark: emitted metrics and a gate that trips.

    python3 perfbench/selfcheck.py

1. The metric names and units in run.py match BENCHMARK.json, and one short
   run of each mode emits exactly those metrics in the contract's format.
2. Corrupted results, injected by replacing clockring functions in this
   process, are caught: each job reports a problem, ``run_pass`` counts the
   job as failed, and a value off its golden figure is flagged.

Exits 0 when every check holds, 1 otherwise.  Takes about 15 s.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_declared_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == dict(declared), f"BENCHMARK.json {key} names and units match run.py")


def check_emitted_metrics() -> None:
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "orbit", "--seed", "5",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode == 0, f"--trace {trace} run exits 0")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(last) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace} last line has exactly the contract's keys")
        expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
               f"--trace {trace} run is correct")
        emitted = {k: v["unit"] for k, v in last["metrics"].items()}
        expect(emitted == dict(declared), f"--trace {trace} emits every declared metric with its unit")
        expect(all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()),
               f"--trace {trace} values are numbers")


@contextmanager
def replaced(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def check_gate_trips() -> None:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import clockring as cr
    import workloads as wl

    accepting, rejecting = wl.desk_pair(1)
    real_separation = cr.separation_experiment

    def swapped(a, b, *args, **kwargs):
        report = real_separation(a, b, *args, **kwargs)
        report.yes, report.no = report.no, report.yes
        return report

    with replaced(cr, "separation_experiment", swapped):
        _, problems = wl.separation_job(accepting, rejecting)
    expect(bool(problems), "swapped yes/no energies fail the separation check")

    real_history = cr.simulate_history

    def skewed(*args, **kwargs):
        state = real_history(*args, **kwargs)
        state.amplitudes[-1] = np.roll(state.amplitudes[-1], 1)
        return state

    schedule = cr.random_schedule(cr.ProblemShape(2, 1, 2), np.random.default_rng(1))
    with replaced(cr, "simulate_history", skewed):
        _, problems = wl.orbit_instance_job(schedule, "10", 1)
    expect(any("nullity" in p for p in problems), "a wrong history snapshot fails the nullity check")

    real_total = cr.assemble_total

    def asymmetric(*args, **kwargs):
        op = real_total(*args, **kwargs)
        op.matrix = op.matrix.tolil()
        op.matrix[0, 1] += 1e-3
        op.matrix = op.matrix.tocsr()
        return op

    with replaced(cr, "assemble_total", asymmetric):
        _, problems = wl.compile_job(accepting)
    expect(any("hermiticity" in p for p in problems), "a non-Hermitian entry fails the residual check")

    golden = json.loads((HERE / "golden.json").read_text())
    job = next(j for j in wl.certify_inputs(golden["default_seed"]) if j.name == "separation-2-1-1")
    values, _ = job.run()
    good = wl.compare_golden(job, values, golden["values"], default_seed=False)
    expect(not good, "correct values match the golden figures")
    values["separation"] += 1e-4
    bad = wl.compare_golden(job, values, golden["values"], default_seed=False)
    expect(any("separation" in p for p in bad), "a value off its golden figure is flagged")

    with replaced(cr, "separation_experiment", swapped), redirect_stderr(io.StringIO()):
        _, records = run.run_pass(wl, [job], 123, golden, "selfcheck")
    expect(len(records) == 1 and bool(records[0]["problems"]), "run_pass counts a corrupted job as failed")

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    with replaced(cr, "separation_experiment", broken), redirect_stderr(io.StringIO()):
        _, records = run.run_pass(wl, [job], 123, golden, "selfcheck")
    expect(bool(records[0]["problems"]), "run_pass counts a job that raises as failed")


def main() -> int:
    check_declared_metrics()
    check_gate_trips()
    check_emitted_metrics()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
