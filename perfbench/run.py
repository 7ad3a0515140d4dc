#!/usr/bin/env python3
"""Benchmark of clockring: one workload in one process, results as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Workloads (job lists in workloads.py): ``certify`` (yes/no separations and
a low spectrum, dominated by the eigensolver), ``build`` (assembly, shift
check and triplet export, no eigensolve), ``orbit`` (many small instances
cut down to orbit blocks, and gapscan).

A run sets up once in this process and ``SETUP_REPEATS - 1`` more times in
short child processes, since an import is only slow once per interpreter;
``setup_s`` is the median.  Set-up is the import of clockring, the
generation of the workload's inputs from the seed, and one tiny warm-up job.
Then it runs passes over the workload's fixed job list until ``--seconds``
would be exceeded (at least one pass), checking every result.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics: each per-layer time is the self time of the layer's spans over the
traced set-up (input generation and warm-up) plus the median traced pass;
counts and byte figures cover the same window, and byte figures are
computed from dimensions and entry counts, not measured.  Spans, per-job
counts and the environment are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A job that raises or fails a
check counts as failed; ``fail_ratio`` (failed / attempted) is printed on
the line before it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, outermost, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

# Derived from the spans in per_layer_metrics.
PER_LAYER = [
    ("circuit.schedule_s", "s"), ("circuit.schedule_calls", "count"),
    ("basis.orbit_s", "s"), ("basis.orbit_calls", "count"),
    ("hamiltonian.parts_s", "s"),
    ("hamiltonian.assemble_s", "s"), ("hamiltonian.assemble_calls", "count"),
    ("hamiltonian.dim_max", "count"), ("hamiltonian.nnz_total", "count"),
    ("hamiltonian.csr_mb", "MB"),
    ("hamiltonian.check_s", "s"),
    ("hamiltonian.export_s", "s"), ("hamiltonian.export_mb", "MB"),
    ("spectral.solve_s", "s"), ("spectral.dense_calls", "count"),
    ("spectral.iterative_calls", "count"), ("spectral.solve_dim_max", "count"),
    ("spectral.max_residual", "norm"),
    ("spectral.restrict_s", "s"),
    ("spectral.frozen_s", "s"),
    ("oracle.history_s", "s"), ("oracle.history_mb", "MB"),
    ("oracle.expect_s", "s"), ("oracle.plain_s", "s"),
    ("promise.constants_s", "s"),
    ("promise.self_s", "s"),
    ("bench.unspanned_s", "s"),
    ("trace.overhead_s", "s"),
]


def cap_blas_threads() -> int:
    """Limit BLAS and OpenMP threads to the CPUs this process may use.

    Must run before numpy is imported; child processes inherit the cap.
    """
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def set_up(workload: str, seed: int, tracer=None):
    """Import clockring, draw the workload's inputs, run the warm-up job.

    Returns (seconds, seconds after the import, workloads module, jobs).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module("workloads")
    imported = Path(sys.modules["clockring"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise SystemExit(f"error: clockring was imported from {imported}, not from {SRC}")
    after_import = time.perf_counter()
    if tracer is None:
        jobs = wl.WORKLOADS[workload](seed)
        wl.warmup()
    else:
        with tracer.installed():
            tracer.job = "setup/inputs"
            jobs = wl.WORKLOADS[workload](seed)
            tracer.job = "setup/warmup"
            wl.warmup()
    end = time.perf_counter()
    return end - start, end - after_import, wl, jobs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(wl, jobs, seed: int, golden: dict, label: str, tracer=None):
    """Run every job once; returns (seconds, per-job records)."""
    default_seed = seed == golden["default_seed"]
    records = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{label}/{job.name}"
        job_start = time.perf_counter()
        try:
            values, problems = job.run()
            problems = problems + wl.compare_golden(job, values, golden["values"], default_seed)
        except Exception:
            problems = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
            traceback.print_exc(file=sys.stderr)
        records.append({
            "pass": label, "job": job.name,
            "seconds": time.perf_counter() - job_start, "problems": problems,
        })
        for p in problems:
            print(f"FAILED {label}/{job.name}: {p}", file=sys.stderr)
    return time.perf_counter() - start, records


def run_passes(wl, jobs, seed, golden, seconds, tracer=None):
    """Passes until the next one would overrun ``seconds``: untraced ones
    and, with a tracer, traced ones in turn; at least one of each."""
    plain, traced, records = [], [], []
    begin = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        started = plain and (tracer is None or traced)
        longest = max((statistics.median(w) for w in (plain, traced) if w), default=0.0)
        if started and time.perf_counter() - begin + longest > seconds:
            break
        if use_tracer:
            with tracer.installed():
                wall, recs = run_pass(wl, jobs, seed, golden, f"traced{len(traced)}", tracer)
            traced.append(wall)
        else:
            wall, recs = run_pass(wl, jobs, seed, golden, f"plain{len(plain)}")
            plain.append(wall)
        records.extend(recs)
    return plain, traced, records


def per_layer_metrics(tracer, traced_walls, plain_walls, setup_window):
    """Per-layer figures over the traced set-up plus the median traced pass."""
    ordered = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
    median_index = ordered[(len(ordered) - 1) // 2]
    median_pass = f"traced{median_index}"
    window = [s for s in tracer.spans
              if s.job.startswith("setup/") or s.job.startswith(median_pass + "/")]
    own = self_times(window)
    top = outermost(window)

    def layer_seconds(layer):
        return sum(own[s.id] for s in window if s.layer == layer)

    def calls(layer):
        return sum(1 for s in top if s.layer == layer)

    def counts(name, key):
        return [s.counts[key] for s in window if s.name == name and key in s.counts]

    assemblies = [s.counts for s in top if s.layer == "hamiltonian.assemble" and s.counts]
    solves = [s.counts for s in window if s.name == "spectral.low_spectrum" and s.counts]
    spanned = sum(s.seconds for s in window if s.parent is None)
    m = {
        "circuit.schedule_s": layer_seconds("circuit.schedule"),
        "circuit.schedule_calls": calls("circuit.schedule"),
        "basis.orbit_s": layer_seconds("basis.orbit"),
        "basis.orbit_calls": calls("basis.orbit"),
        "hamiltonian.parts_s": layer_seconds("hamiltonian.parts"),
        "hamiltonian.assemble_s": layer_seconds("hamiltonian.assemble"),
        "hamiltonian.assemble_calls": calls("hamiltonian.assemble"),
        "hamiltonian.dim_max": max((a["dim"] for a in assemblies), default=0),
        "hamiltonian.nnz_total": sum(a["nnz"] for a in assemblies),
        "hamiltonian.csr_mb": max((a["csr_bytes"] for a in assemblies), default=0) / 1e6,
        "hamiltonian.check_s": layer_seconds("hamiltonian.check"),
        "hamiltonian.export_s": layer_seconds("hamiltonian.export"),
        "hamiltonian.export_mb": sum(counts("hamiltonian.export_triplets", "text_bytes")) / 1e6,
        "spectral.solve_s": layer_seconds("spectral.solve"),
        "spectral.dense_calls": sum(1 for s in solves if s["method"] == "dense"),
        "spectral.iterative_calls": sum(1 for s in solves if s["method"] == "iterative"),
        "spectral.solve_dim_max": max((s["dim"] for s in solves), default=0),
        "spectral.max_residual": max((s["residual"] for s in solves), default=0.0),
        "spectral.restrict_s": layer_seconds("spectral.restrict"),
        "spectral.frozen_s": layer_seconds("spectral.frozen"),
        "oracle.history_s": layer_seconds("oracle.history"),
        "oracle.history_mb": max(counts("oracle.HistoryState.history_vector", "history_bytes"),
                                 default=0) / 1e6,
        "oracle.expect_s": layer_seconds("oracle.expect"),
        "oracle.plain_s": layer_seconds("oracle.plain"),
        "promise.constants_s": layer_seconds("promise.constants"),
        "promise.self_s": layer_seconds("promise.self"),
        "bench.unspanned_s": setup_window + traced_walls[median_index] - spanned,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
    }
    return m, median_index


def job_counts(tracer) -> dict:
    """Computed counts per traced job: sizes, bytes and solver paths."""
    per_job: dict[str, dict] = {}
    for s in tracer.spans:
        if not s.counts:
            continue
        rec = per_job.setdefault(s.job, {"dim_max": 0, "nnz_max": 0, "csr_mb": 0.0,
                                         "history_mb": 0.0, "solver": []})
        c = s.counts
        if "nnz" in c:
            rec["dim_max"] = max(rec["dim_max"], c["dim"])
            rec["nnz_max"] = max(rec["nnz_max"], c["nnz"])
            rec["csr_mb"] = max(rec["csr_mb"], c["csr_bytes"] / 1e6)
        if "method" in c:
            rec["solver"].append(f"{c['method']}@{c['dim']}")
        if "history_bytes" in c:
            rec["history_mb"] = max(rec["history_mb"], c["history_bytes"] / 1e6)
    return per_job


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "build", "orbit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "clockring" / "__init__.py").is_file():
        print(f"error: no clockring sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()

    if args.setup_probe:
        seconds, _, _, _ = set_up(args.workload, args.seed)
        print(repr(seconds))
        return 0

    golden = json.loads((HERE / "golden.json").read_text())
    tracer = Tracer() if args.trace else None
    setup_seconds, setup_window, wl, jobs = set_up(args.workload, args.seed, tracer)
    env = environment(blas_threads)
    setups = [setup_seconds]
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    plain, traced, records = run_passes(wl, jobs, args.seed, golden, args.seconds, tracer)
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed} jobs {len(jobs)} "
          f"plain_passes {len(plain)} traced_passes {len(traced)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    run_record = {"workload": args.workload, "seed": args.seed, "env": env,
                  "setup_runs_s": setups, "plain_pass_s": plain, "traced_pass_s": traced,
                  "jobs": records}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        metrics, median_index = per_layer_metrics(tracer, traced, plain, setup_window)
        median_pass = f"traced{median_index}"
        units = dict(PER_LAYER)
        layer_sum = sum(v for k, v in metrics.items()
                        if k.endswith("_s") and k != "trace.overhead_s")
        print(f"accounting: traced set-up {setup_window:.4f} s + {median_pass} "
              f"{traced[median_index]:.4f} s = {setup_window + traced[median_index]:.4f} s; "
              f"layer self times + unspanned = {layer_sum:.4f} s; "
              f"untraced wall_s {statistics.median(plain):.4f} s")
        counts = job_counts(tracer)
        run_record["job_counts"] = counts
        run_record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
        for job, c in counts.items():
            if job.startswith(median_pass + "/") or job.startswith("setup/"):
                print(f"job {job} dim_max {c['dim_max']} nnz_max {c['nnz_max']} "
                      f"csr_mb(computed) {c['csr_mb']:.3f} history_mb(computed) "
                      f"{c['history_mb']:.3f} solver {','.join(c['solver']) or '-'}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run_record, indent=1))

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric fail_ratio {failed / attempted!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
