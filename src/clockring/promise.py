"""Projection-lemma bounds, coupling selection, and promise decisions.

The sandwich bound: if H = H1 + H2 where H2 has zero space S and all other
eigenvalues at least J > 2||H1||, then

    lambda(H1|_S) - ||H1||^2 / (J - 2||H1||) <= lambda(H) <= lambda(H1|_S).

Selecting J = 8||H1||^2 + 2||H1|| makes the lower-bound slack exactly 1/8.

The separation experiment runs on the head-0 form-valid sector V0 (see
``hamiltonian``), certified by the off-sector floor; ``decide`` solves the
operator it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpinBasis, orbit_label_walk, qubit_bits
from .circuit import ProblemShape, SweepSchedule
from .hamiltonian import (
    CouplingConstants,
    assemble_sector,
    off_sector_floor,
    standard_parts,
    total_parts,
)
from .oracle import expectations, reject_probability, simulate_history
from .spectral import (
    SolverOptions,
    SpectralError,
    exclude_frozen,
    frozen_patterns,
    ground_energy,
    low_spectrum,
    path_gap,
    restrict,
)


class PromiseError(ValueError):
    pass


@dataclass(frozen=True)
class PromiseParameters:
    """Thresholds of the promise problem: yes if lambda0 <= a, no if > b."""

    a: float
    b: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.b > self.a:
            raise PromiseError("need b > a")
        if not 0 <= self.epsilon < 0.5:
            raise PromiseError("need 0 <= epsilon < 1/2")


@dataclass(frozen=True)
class LemmaBounds:
    lam_restricted: float
    norm_h1: float
    j: float
    lower: float
    upper: float


def projection_bounds(lam_restricted: float, norm_h1: float, j: float) -> LemmaBounds:
    if norm_h1 < 0:
        raise PromiseError("norm_h1 must be nonnegative")
    if norm_h1 == 0:
        return LemmaBounds(lam_restricted, 0.0, j, lam_restricted, lam_restricted)
    if j <= 2 * norm_h1:
        raise PromiseError(f"hypothesis violated: J = {j:.6g} <= 2||H1|| = {2 * norm_h1:.6g}")
    lower = lam_restricted - norm_h1 ** 2 / (j - 2 * norm_h1)
    return LemmaBounds(lam_restricted, norm_h1, j, lower, lam_restricted)


def choose_j(norm_h1: float) -> float:
    """J = 8||H1||^2 + 2||H1||; slack exactly 1/8 for any positive norm."""
    if norm_h1 < 0:
        raise PromiseError("norm_h1 must be nonnegative")
    return 8.0 * norm_h1 ** 2 + 2.0 * norm_h1


def choose_alpha(shape: ProblemShape, c_est: float) -> float:
    """alpha = 2 c / T^2, a factor-2 margin over the measured gap constant."""
    shape.require_valid()
    if c_est <= 0:
        raise PromiseError("c_est must be positive")
    return 2.0 * c_est / shape.total_steps ** 2


def measured_gap_constant(shape: ProblemShape) -> float:
    """gap * (T+1)^2 of the orbit's path model, the empirical constant c."""
    length = shape.total_steps + 1
    return path_gap(length) * length ** 2


@dataclass
class LemmaTrialReport:
    trials: int
    dim: int
    violations: int
    worst_lower_margin: float
    worst_upper_margin: float

    def format(self) -> str:
        return (
            f"trials {self.trials} dim {self.dim} violations {self.violations} "
            f"worst_lower_margin {self.worst_lower_margin:.6g} "
            f"worst_upper_margin {self.worst_upper_margin:.6g}\n"
        )


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2
    norm = np.abs(np.linalg.eigvalsh(h)).max()
    return h * (rng.uniform(0.2, 1.0) / norm)


def verify_lemma_numeric(seed: int, trials: int, dim: int = 8) -> LemmaTrialReport:
    """Sample hypothesis-satisfying instances and check both inequalities.

    Each trial draws a random subspace S, sets H2 = J * (projector onto the
    complement), draws Hermitian H1 with ||H1|| <= 1, and compares the dense
    smallest eigenvalue of H1 + H2 against the sandwich bounds.  Violations
    beyond numerical tolerance indicate an implementation bug, never a
    failure of the bound itself.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst_lower = np.inf
    worst_upper = np.inf
    numeric_slack = 1e-10
    for _ in range(trials):
        s_dim = int(rng.integers(1, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        s_basis = q[:, :s_dim]
        h1 = _random_hermitian(rng, dim)
        norm_h1 = float(np.abs(np.linalg.eigvalsh(h1)).max())
        j = choose_j(norm_h1)
        projector_perp = np.eye(dim) - s_basis @ s_basis.conj().T
        h2 = j * projector_perp
        lam = float(np.linalg.eigvalsh(h1 + h2)[0])
        lam_restricted = float(np.linalg.eigvalsh(s_basis.conj().T @ h1 @ s_basis)[0])
        bounds = projection_bounds(lam_restricted, norm_h1, j)
        lower_margin = lam - bounds.lower
        upper_margin = bounds.upper - lam
        worst_lower = min(worst_lower, lower_margin)
        worst_upper = min(worst_upper, upper_margin)
        if lower_margin < -numeric_slack or upper_margin < -numeric_slack:
            violations += 1
    return LemmaTrialReport(trials, dim, violations, float(worst_lower), float(worst_upper))


@dataclass
class PromiseDecision:
    verdict: str  # Yes | No | OutsidePromise
    lambda0: float
    margin_yes: float
    margin_no: float
    residual: float

    def format(self, params: PromiseParameters) -> str:
        margin = self.margin_yes if self.verdict == "Yes" else self.margin_no
        return (
            f"verdict {self.verdict} lambda0 {self.lambda0:.12g} "
            f"a {params.a:.12g} b {params.b:.12g} margin {margin:.12g}\n"
        )


def decide(operator, params: PromiseParameters, options: SolverOptions = SolverOptions()) -> PromiseDecision:
    lam, _, residual = ground_energy(operator, options)
    if lam <= params.a:
        verdict = "Yes"
    elif lam > params.b:
        verdict = "No"
    else:
        verdict = "OutsidePromise"
    return PromiseDecision(verdict, lam, params.a - lam, lam - params.b, residual)


def auto_constants(schedule: SweepSchedule, j1: float = 1.0) -> CouplingConstants:
    """J1 given; J2 from choose_j(||H1||); alpha from the measured constant.

    H1 is the part the nested lemma treats as the perturbation:
    J1 H_input + R(N-1) H_output.  Both are sums of one-site diagonal
    projectors onto distinct levels (H_input's is empty when M = N), so
    ||H1|| is N+1 sites each holding the heavier penalized level.
    """
    shape = schedule.shape.require_valid()
    w_out = float(shape.total_steps)
    per_site = max(j1 if shape.input_len < shape.n_qubits else 0.0, w_out)
    norm_h1 = 0.0
    for _ in range(shape.n_sites):  # summed term by term, as the assembled diagonal is
        norm_h1 += per_site
    alpha = choose_alpha(shape, measured_gap_constant(shape))
    return CouplingConstants(j1, choose_j(norm_h1), alpha, w_out)


@dataclass
class ScheduleEnergies:
    lambda0_full: float
    lambda0_orbit: float
    lambda0_filtered: float  # full space with frozen configurations excluded
    residual: float  # of the filtered solve
    best_witness: tuple[int, ...]
    variational_energy: float
    variational_parts: list[tuple[str, float, float]]
    reject_probability_best: float
    off_sector_floor: float  # H is at least this off the form-valid set; lambda0s lie below


@dataclass
class SeparationReport:
    shape: ProblemShape
    constants: CouplingConstants
    yes: ScheduleEnergies
    no: ScheduleEnergies

    @property
    def separation(self) -> float:
        """Ground-energy gap between the instances once frozen zero modes,
        which are identical in both, are excluded."""
        return self.no.lambda0_filtered - self.yes.lambda0_filtered

    @property
    def separation_orbit(self) -> float:
        return self.no.lambda0_orbit - self.yes.lambda0_orbit

    @property
    def separation_raw(self) -> float:
        return self.no.lambda0_full - self.yes.lambda0_full

    def format(self) -> str:
        lines = [
            f"constants j1 {self.constants.j1:.12g} j2 {self.constants.j2:.12g} "
            f"alpha {self.constants.alpha:.12g} w_out {self.constants.w_out:.12g}"
        ]
        for tag, side in (("yes", self.yes), ("no", self.no)):
            lines.append(
                f"{tag} lambda0 {side.lambda0_full:.12g} "
                f"filtered {side.lambda0_filtered:.12g} orbit {side.lambda0_orbit:.12g} "
                f"witness {''.join(map(str, side.best_witness))} "
                f"variational {side.variational_energy:.12g} "
                f"p_reject {side.reject_probability_best:.12g}"
            )
            parts = " ".join(f"{n} {v:.12g}" for n, v, _ in side.variational_parts)
            lines.append(f"{tag} parts {parts}")
        lines.append(
            f"separation {self.separation:.12g} orbit {self.separation_orbit:.12g} "
            f"raw {self.separation_raw:.12g}"
        )
        return "\n".join(lines) + "\n"


def _witness_candidates(shape: ProblemShape) -> list[tuple[int, ...]]:
    """Every witness on qubits 1..M with the ancillas M+1..N clear."""
    step = 2 ** (shape.n_qubits - shape.input_len)
    return [tuple(bits) for bits in qubit_bits(shape.n_qubits)[::step].tolist()]


def _schedule_energies(
    schedule: SweepSchedule, constants: CouplingConstants, options: SolverOptions
) -> ScheduleEnergies:
    """Energies of one schedule, all computed on the head-0 sector V0.

    V0 is closed under H (assemble_sector checks it), the other head
    sectors are its translates, and off the form-valid set H is at least
    off_sector_floor.  A filtered lambda0 below that floor is therefore the
    full-space value; otherwise SpectralError.
    """
    shape = schedule.shape
    basis = SpinBasis(shape)
    terms = standard_parts(schedule)
    sector = np.arange(basis.sector_dim)  # all of V0, in full-space index order
    total = assemble_sector(total_parts(terms, constants), shape, sector)
    parts = {name: assemble_sector([(term, 1.0)], shape, sector) for name, term in terms.items()}
    if np.any(parts["H_form"].diagonal() != -1):
        raise SpectralError("a V0 configuration is off the H_form floor of -1")
    floor = off_sector_floor(terms, constants, shape)

    frozen = np.sort(basis.sector_keys(frozen_patterns(shape)), axis=None)
    filtered_mat, keep = exclude_frozen(total, frozen)
    filtered = low_spectrum(filtered_mat, 1, options)
    lam_filtered = float(filtered.eigenvalues[0])
    if not lam_filtered < floor:
        raise SpectralError(
            f"sector lambda0 {lam_filtered:.12g} is not below the off-sector floor {floor:.12g}"
        )
    # Frozen configurations are 1x1 blocks, so their diagonal completes the spectrum.
    frozen_diagonal = np.delete(total.diagonal().real, keep)
    lam_full = float(min(lam_filtered, frozen_diagonal.min(initial=np.inf)))

    orbit = basis.sector_keys(orbit_label_walk(shape)).ravel()
    lam_orbit = float(np.linalg.eigvalsh(restrict(total, orbit))[0])

    best = None
    for bits in _witness_candidates(shape):
        eta = simulate_history(schedule, list(bits)).sector_vector(basis)
        rows = expectations(eta, {"total": total})
        energy = rows[0][1]
        if best is None or energy < best[0]:
            part_rows = expectations(eta, parts)
            best = (energy, bits, part_rows)
    energy, bits, part_rows = best
    return ScheduleEnergies(
        lambda0_full=lam_full,
        lambda0_orbit=lam_orbit,
        lambda0_filtered=lam_filtered,
        residual=float(filtered.residuals[0]),
        best_witness=bits,
        variational_energy=energy,
        variational_parts=part_rows,
        reject_probability_best=reject_probability(schedule, list(bits)),
        off_sector_floor=floor,
    )


def separation_experiment(
    accepting: SweepSchedule,
    rejecting: SweepSchedule,
    constants: CouplingConstants | None = None,
    options: SolverOptions = SolverOptions(),
) -> SeparationReport:
    """Build both Hamiltonians with shared constants and compare ground energies."""
    if accepting.shape != rejecting.shape:
        raise PromiseError("schedules must share one shape")
    shape = accepting.shape.require_valid()
    if constants is None:
        constants = auto_constants(accepting)
    yes_side = _schedule_energies(accepting, constants, options)
    no_side = _schedule_energies(rejecting, constants, options)
    return SeparationReport(shape, constants, yes_side, no_side)
