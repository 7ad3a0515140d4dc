"""Workload job lists and the correctness gate of the clockring benchmark.

A workload is built from its seed in two steps: ``inputs(seed)`` draws
every schedule (this is part of set-up), and the returned jobs run on those
inputs.  A job does the work one CLI command would do, through the public
functions, and returns ``(values, problems)``: named results for the golden
comparison and the invariants it found broken.  A job that raises or reports
a problem counts as failed.

Shapes are written (N, M, R): qubits, witness length, sweep cycles.  The
configuration space has d^(N+1) states with d = 2N(R+1) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

import clockring as cr

# Energies here reach about 1.4e3, so a relative 1e-9 allows the last few
# digits that another solver or BLAS thread count may change.  Golden values
# allow ten times more, since they are compared across machines.
ENERGY_RTOL = 1e-9
GOLDEN_RTOL = 1e-8
NULLITY_TOL = 1e-10
SPECTRUM_TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], tuple[dict, list[str]]]
    seeded: bool  # True when the job's inputs depend on the seed


def _energy_tol(*values: float) -> float:
    return ENERGY_RTOL * max(1.0, *(abs(v) for v in values))


def desk_pair(n_cycles: int):
    """The accepting identity schedule and the rejecting one at (2, 1, R):
    the force-reject gate in slot (1, 1), identity elsewhere."""
    accepting = cr.schedule_from_placements([], 2, 1, n_cycles)
    rejecting = cr.schedule_from_placements([(1, 1, cr.force_reject_gate())], 2, 1, n_cycles)
    return accepting, rejecting


def _bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


# --- jobs -----------------------------------------------------------------


def separation_job(accepting, rejecting) -> tuple[dict, list[str]]:
    """`verify --mode separation`: both ground energies, three separations."""
    report = cr.separation_experiment(accepting, rejecting)
    problems = []
    values = {}
    for tag, side in (("yes", report.yes), ("no", report.no)):
        chain = [
            ("lambda0_full", side.lambda0_full),
            ("lambda0_filtered", side.lambda0_filtered),
            ("lambda0_orbit", side.lambda0_orbit),
            ("variational", side.variational_energy),
        ]
        for (low_name, low), (high_name, high) in zip(chain, chain[1:]):
            if low > high + _energy_tol(low, high):
                problems.append(f"{tag}: {low_name} {low!r} > {high_name} {high!r}")
        values.update({f"{tag}.{name}": value for name, value in chain})
    values["separation"] = report.separation
    values["separation_orbit"] = report.separation_orbit
    values["separation_raw"] = report.separation_raw
    if not report.separation > 0:
        problems.append(f"separation {report.separation!r} is not positive")
    if not report.separation_orbit > 0:
        problems.append(f"orbit separation {report.separation_orbit!r} is not positive")
    return values, problems


def _residual_problems(op, shape) -> list[str]:
    problems = []
    herm = op.hermiticity_residual()
    if herm != 0.0:
        problems.append(f"hermiticity residual {herm!r} is not exactly 0")
    trans = cr.check_translation_invariance(op, cr.build_shift_operator(shape))
    if trans != 0.0:
        problems.append(f"translation residual {trans!r} is not exactly 0")
    return problems


def _dim_problems(op, shape) -> list[str]:
    expected = cr.SpinBasis(shape).config_dim
    return [] if op.dim == expected else [f"dim {op.dim} != d^(N+1) = {expected}"]


def spectrum_job(schedule, k: int) -> tuple[dict, list[str]]:
    """`spectrum --k K --frozen-scan`: low spectrum of the total Hamiltonian."""
    shape = schedule.shape
    op = cr.assemble_total(schedule, cr.auto_constants(schedule))
    report = cr.low_spectrum(op, k)
    frozen = cr.spectral.frozen_config_indices(shape)
    problems = _dim_problems(op, shape) + _residual_problems(op, shape)
    values = {
        "dim": op.dim,
        "nnz": op.nnz,
        "frozen_count": int(len(frozen)),
        "clusters": [len(c) for c in report.clusters],
        "eigenvalues": [float(v) for v in report.eigenvalues],
    }
    if np.any(np.diff(report.eigenvalues) < 0):
        problems.append("eigenvalues are not ascending")
    ground = len(report.clusters[0])
    if ground < len(report.eigenvalues) and ground % shape.n_sites:
        problems.append(
            f"ground cluster of {ground} is not a multiple of the {shape.n_sites} head sites"
        )
    return values, problems


def compile_job(schedule) -> tuple[dict, list[str]]:
    """`compile --parts all`: auto constants, total assembly, shift check."""
    shape = schedule.shape
    op = cr.assemble_total(schedule, cr.auto_constants(schedule))
    problems = _dim_problems(op, shape) + _residual_problems(op, shape)
    return {"dim": op.dim, "nnz": op.nnz}, problems


def export_job(schedule) -> tuple[dict, list[str]]:
    """`export --out`: compile, then write and read back the triplet text."""
    shape = schedule.shape
    op = cr.assemble_total(schedule, cr.auto_constants(schedule))
    problems = _dim_problems(op, shape) + _residual_problems(op, shape)
    text = cr.export_triplets(op)
    parsed = cr.hamiltonian.parse_triplets(text)
    if parsed.shape != op.matrix.shape or (parsed != op.matrix).nnz:
        problems.append("parsed triplets differ from the exported operator")
    return {"dim": op.dim, "nnz": op.nnz, "text_bytes": len(text)}, problems


def orbit_instance_job(schedule, bits: str, head_site: int) -> tuple[dict, list[str]]:
    """Acceptance criteria 1-2 on one instance: history-state nullity of
    H_comp and its orbit restriction against the path-Laplacian spectrum."""
    shape = schedule.shape
    op = cr.assemble_part(cr.build_h_comp_bond(schedule), shape, "H_comp")
    eta = cr.simulate_history(schedule, bits, head_site).history_vector()
    nullity = float(np.linalg.norm(op.matrix @ eta))
    sub = cr.restrict(op, cr.orbit_block_indices(shape, head_site))
    got = np.linalg.eigvalsh(sub)
    want = np.sort(np.repeat(cr.path_laplacian_eigenvalues(shape.total_steps + 1), 2 ** shape.n_qubits))
    problems = _dim_problems(op, shape)
    if not nullity <= NULLITY_TOL:
        problems.append(f"nullity {nullity!r} exceeds {NULLITY_TOL}")
    deviation = float(np.abs(got - want).max())
    if not deviation <= SPECTRUM_TOL:
        problems.append(f"orbit spectrum deviates from the path Laplacian by {deviation!r}")
    return {"dim": op.dim, "nnz": op.nnz, "orbit_states": int(sub.shape[0])}, problems


def gapscan_job(t_plus_1: int) -> tuple[dict, list[str]]:
    """`gapscan --tplus T+1`: orbit-restricted gap of the identity schedule."""
    shape = cr.ProblemShape(2, 1, t_plus_1 - 1)
    schedule = cr.SweepSchedule(shape)
    op = cr.assemble_part(cr.build_h_comp_bond(schedule), shape, "H_comp")
    values = np.linalg.eigvalsh(cr.restrict(op, cr.orbit_block_indices(shape, 0)))
    distinct = values[values > values[0] + 1e-10]
    gap = float(distinct[0] - values[0])
    problems = _dim_problems(op, shape)
    if not abs(gap - cr.spectral.path_gap(t_plus_1)) <= SPECTRUM_TOL:
        problems.append(f"gap {gap!r} differs from the path gap {cr.spectral.path_gap(t_plus_1)!r}")
    return {"dim": op.dim, "nnz": op.nnz, "scaled_gap": gap * t_plus_1 ** 2}, problems


# --- workloads ------------------------------------------------------------


def certify_inputs(seed: int) -> list[Job]:
    # Yes/no certification, the paper's headline: desk pairs on the dense
    # path (dims 729 and 2,197) and the ARPACK path (dim 9,261), plus a
    # seeded `spectrum` job.  Nearly all the time is in `spectral`.  The
    # seeded job stays on the dense path, whose cost depends on the dimension
    # only: ARPACK's time depends on the schedule (0.4 s to 1.8 s over three
    # random schedules at (2,1,3)), which would add seed-to-seed spread.
    rng = np.random.default_rng(seed)
    jobs = []
    for r in (1, 2, 4):
        accepting, rejecting = desk_pair(r)
        jobs.append(Job(f"separation-2-1-{r}",
                        lambda a=accepting, b=rejecting: separation_job(a, b), False))
    schedule = cr.random_schedule(cr.ProblemShape(2, 1, 1), rng)
    jobs.append(Job("spectrum-2-1-1", lambda: spectrum_job(schedule, 6), True))
    return jobs


def build_inputs(seed: int) -> list[Job]:
    # Assembly and text I/O with no eigensolve: the memory ceiling (dim
    # 1.42 M at (4,1,1)) and a 13.8 MB export round trip.  A solver change
    # should leave this workload unchanged.
    rng = np.random.default_rng(seed)
    jobs = []
    for shape in ((4, 1, 1), (3, 1, 3)):
        schedule = cr.random_schedule(cr.ProblemShape(*shape), rng)
        jobs.append(Job("compile-%d-%d-%d" % shape, lambda s=schedule: compile_job(s), True))
    schedule = cr.random_schedule(cr.ProblemShape(3, 1, 2), rng)
    jobs.append(Job("export-3-1-2", lambda: export_job(schedule), True))
    return jobs


ORBIT_SHAPES = [(n, 1, r) for n in (2, 3) for r in (1, 2, 3)]
ORBIT_INSTANCES_PER_SHAPE = 6
GAPSCAN_TPLUS = (3, 5, 9, 17, 33)


def orbit_inputs(seed: int) -> list[Job]:
    # Many small instances: whole-space H_comp builds cut down to orbit
    # blocks of at most 56 states, and full-space history vectors.  Orbit-
    # native builds show here; a solver change barely touches it.
    rng = np.random.default_rng(seed)
    jobs = []
    for shape in ORBIT_SHAPES:
        for i in range(ORBIT_INSTANCES_PER_SHAPE):
            schedule = cr.random_schedule(cr.ProblemShape(*shape), rng)
            bits = _bits(rng, shape[0])
            head = int(rng.integers(0, shape[0] + 1))
            jobs.append(Job("orbit-%d-%d-%d-" % shape + str(i),
                            lambda s=schedule, b=bits, h=head: orbit_instance_job(s, b, h), True))
    for t_plus_1 in GAPSCAN_TPLUS:
        jobs.append(Job(f"gapscan-{t_plus_1}", lambda t=t_plus_1: gapscan_job(t), False))
    return jobs


WORKLOADS = {"certify": certify_inputs, "build": build_inputs, "orbit": orbit_inputs}


def warmup() -> None:
    """The tiny job every set-up ends with: it enters every layer once, on
    the accepting desk schedule at (2, 1, 1) and its 8-state orbit block."""
    accepting, _ = desk_pair(1)
    shape = accepting.shape
    _, problems = export_job(accepting)
    op = cr.assemble_total(accepting, cr.auto_constants(accepting))
    block = sp.csr_matrix(cr.restrict(op, cr.orbit_block_indices(shape, 0)))
    decision = cr.decide(block, cr.PromiseParameters(0.0, 0.5))
    cr.spectral.frozen_excluded_submatrix(op, shape)
    eta = cr.simulate_history(accepting, "00").history_vector()
    (_, energy, _), = cr.expectations(eta, {"total": op})
    if abs(decision.lambda0 - energy) > _energy_tol(energy):
        problems.append(f"orbit ground energy {decision.lambda0!r} != history energy {energy!r}")
    if cr.reject_probability(accepting, "00") != 0.0:
        problems.append("the identity schedule rejects")
    if problems:
        raise RuntimeError("warm-up failed its checks: " + "; ".join(problems))


# --- golden values --------------------------------------------------------


def compare_golden(job: Job, values: dict, golden: dict, default_seed: bool) -> list[str]:
    """Compare a job's values with those recorded from the seed commit.

    Jobs whose inputs do not depend on the seed are compared at every seed;
    seeded jobs only at the default seed, where every value must be present.
    """
    if job.seeded and not default_seed:
        return []
    problems = []
    for key, value in values.items():
        full = f"{job.name}/{key}"
        if full not in golden:
            problems.append(f"{full}: no golden value recorded")
        elif not _matches(value, golden[full]):
            problems.append(f"{full}: {value!r} differs from golden {golden[full]!r}")
    return problems


def _matches(value, reference) -> bool:
    if isinstance(reference, list):
        return isinstance(value, list) and len(value) == len(reference) and all(
            _matches(v, r) for v, r in zip(value, reference)
        )
    if isinstance(reference, int) and not isinstance(reference, bool):
        return value == reference
    return abs(value - reference) <= GOLDEN_RTOL * max(1.0, abs(reference))
