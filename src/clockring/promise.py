"""Projection-lemma bounds, coupling selection, and promise decisions.

The sandwich bound: if H = H1 + H2 where H2 has zero space S and all other
eigenvalues at least J > 2||H1||, then

    lambda(H1|_S) - ||H1||^2 / (J - 2||H1||) <= lambda(H) <= lambda(H1|_S).

Selecting J = 8||H1||^2 + 2||H1|| makes the lower-bound slack exactly 1/8.

Every spectral value of a schedule's total Hamiltonian comes from the
head-0 form-valid sector V0 (see ``hamiltonian`` and sector_hamiltonian):
the separation experiment, sector_spectrum and ``decide``, each on the one
V0 total it builds, through spectral.low_spectrum.  The separation's orbit
block is that total at the sorted walk keys, solved by low_spectrum too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import SpinBasis, frozen_patterns, qubit_bits
from .circuit import ProblemShape, SweepSchedule
from .hamiltonian import (
    DIM_CAP,
    CouplingConstants,
    LocalTerm,
    assemble_sector,
    assemble_sector_parts,
    checked_sector_dim,
    off_sector_floor,
    orbit_keys,
    shape_parts,
    standard_parts,
    total_parts,
)
from .oracle import HistoryState, expectations, simulate_history
from .spectral import (
    SpectralError,
    SpectralReport,
    exclude_frozen,
    ground_energy,
    low_spectrum,
    path_gap,
)


class PromiseError(ValueError):
    pass


@dataclass(frozen=True)
class PromiseParameters:
    """Thresholds of the promise problem: yes if lambda0 <= a, no if > b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise PromiseError("need b > a")


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
    try:
        return 8.0 * norm_h1 ** 2 + 2.0 * norm_h1
    except OverflowError:  # a float power raises where a product would give inf
        raise PromiseError(f"J overflows at ||H1|| = {norm_h1:.6g}") from None


def choose_alpha(shape: ProblemShape, c_est: float) -> float:
    """alpha = 2 c / T^2, a factor-2 margin over the measured gap constant."""
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
    failure of the bound itself.  Needs trials >= 1 and dim >= 2, and
    dim^2 at most DIM_CAP: each trial holds several dim x dim arrays.
    """
    if trials < 1 or dim < 2:
        raise PromiseError(f"need trials >= 1 and dim >= 2, got trials {trials}, dim {dim}")
    if dim * dim > DIM_CAP:
        raise PromiseError(f"dim {dim}: dim^2 = {dim * dim} exceeds cap {DIM_CAP}")
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


def decide(operator, params: PromiseParameters, lower_bound: float | None = None) -> PromiseDecision:
    lam, _, residual = ground_energy(operator, lower_bound)
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
    shape = schedule.shape
    w_out = float(shape.total_steps)
    per_site = max(j1 if shape.input_len < shape.n_qubits else 0.0, w_out)
    norm_h1 = 0.0
    for _ in range(shape.n_sites):  # summed term by term, as the assembled diagonal is
        norm_h1 += per_site
    alpha = choose_alpha(shape, measured_gap_constant(shape))
    return CouplingConstants(j1, choose_j(norm_h1), alpha, w_out)


@dataclass
class SectorHamiltonian:
    """H on V0, in full-space index order, the standard bond terms it sums,
    and the off-sector floor: H is at least `floor` off the form-valid set."""

    total: sp.csr_matrix
    terms: dict[str, LocalTerm]
    floor: float

    def certify(self, value: float, what: str) -> None:
        """SpectralError unless the V0 level `value` is below the floor."""
        if not value < self.floor:
            raise SpectralError(
                f"{what} {value:.12g} is not below the off-sector floor {self.floor:.12g}")


def sector_hamiltonian(
    schedule: SweepSchedule, constants: CouplingConstants,
    shared: dict[str, LocalTerm] | None = None,
) -> SectorHamiltonian:
    """BuildError before any bond term if V0 has more than DIM_CAP states.

    V0 is closed under H (assemble_sector checks it), its N head translates
    carry the same levels, and off_sector_floor checks that every V0
    configuration sits at the H_form floor of -1.  So a V0 level below that
    floor is a full-space level, N+1 times over.  Only the V0 total is built.
    `shared` (shape_parts), when given, is used instead of being built again.
    """
    shape = schedule.shape
    sector_dim = checked_sector_dim(shape)
    terms = standard_parts(schedule, shared)
    total = assemble_sector(total_parts(terms, constants), shape, np.arange(sector_dim))  # all of V0
    return SectorHamiltonian(total, terms, off_sector_floor(terms, constants, shape))


def sector_spectrum(schedule: SweepSchedule, constants: CouplingConstants, k: int) -> SpectralReport:
    """The k lowest levels of H: ceil(k / (N+1)) V0 levels, each repeated
    once per head translate with its residual, V0 clusters expanded by
    index; SpectralError unless the k-th is below the off-sector floor."""
    copies = schedule.shape.n_sites
    if k < 1:  # on k itself, before any build: its V0 level count would misstate it
        raise SpectralError(f"k = {k} out of range 1..{copies * SpinBasis(schedule.shape).sector_dim}")
    sector = sector_hamiltonian(schedule, constants)
    levels, dim = -(-k // copies), sector.total.shape[0]
    if levels > dim:
        raise SpectralError(f"k = {k} exceeds the {copies} x {dim} levels of V0 and its translates")
    report = low_spectrum(sector.total, levels, constants.lower_bound)
    values = np.repeat(report.eigenvalues, copies)[:k]
    sector.certify(values[-1], f"level {k - 1}")
    clusters = [[i for j in members for i in range(j * copies, min(j * copies + copies, k))]
                for members in report.clusters]
    return SpectralReport(values, np.repeat(report.residuals, copies)[:k], clusters, report.method)


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


def orbit_expectations(history: HistoryState, terms: dict[str, LocalTerm], walk: np.ndarray):
    """<eta|P|eta> for the ring sum P of every named bond term on the
    legal-orbit block, eta the simulated history state at head site 0 and
    `walk` the orbit keys (orbit_keys): the oracle command's rows, and the
    separation's best-witness parts.  The blocks come from one lookup pass
    over the orbit keys."""
    blocks = assemble_sector_parts([(term, 1.0) for term in terms.values()], history.shape, walk)
    return expectations(history.orbit_vector(), dict(zip(terms, blocks)))


@dataclass
class _Shared:
    """What both schedules of a separation share, built once: the bond terms
    that do not read the schedule, the V0 keys of the frozen configurations
    (sorted) and of the orbit (walk order), and the order that sorts the
    walk's keys."""

    parts: dict[str, LocalTerm]
    frozen: np.ndarray
    walk: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, shape: ProblemShape) -> "_Shared":
        frozen = np.sort(SpinBasis(shape).sector_keys(frozen_patterns(shape)), axis=None)
        walk = orbit_keys(shape)
        return cls(shape_parts(shape), frozen, walk, np.argsort(walk, kind="stable"))


def _schedule_energies(schedule: SweepSchedule, constants: CouplingConstants, shared: _Shared) -> ScheduleEnergies:
    """Energies of one schedule, all computed on V0 (see sector_hamiltonian).

    A filtered lambda0 below the off-sector floor is the full-space value;
    otherwise SpectralError.  The orbit block is the V0 total at the walk
    keys in sorted order, the order the filtered solve holds them in, and
    low_spectrum solves it with the same bound: the orbit and filtered
    levels agree bit for bit whenever the filtered ground level lies on the
    orbit.  Witness energies read HistoryState.orbit_vector in that order.
    """
    shape = schedule.shape
    sector = sector_hamiltonian(schedule, constants, shared.parts)
    total = sector.total
    frozen, walk = shared.frozen, shared.walk
    filtered = low_spectrum(exclude_frozen(total, frozen)[0], 1, constants.lower_bound)
    lam_filtered = float(filtered.eigenvalues[0])
    sector.certify(lam_filtered, "sector lambda0")
    # Frozen configurations are 1x1 blocks, so their diagonal completes the spectrum.
    lam_full = float(min(lam_filtered, total.diagonal().real[frozen].min(initial=np.inf)))

    keys = walk[shared.order]
    orbit = {"total": total[keys][:, keys]}
    lam_orbit = float(low_spectrum(orbit["total"], 1, constants.lower_bound).eigenvalues[0])
    # The first candidate of lowest history energy is the best witness.
    best = None
    for bits in _witness_candidates(shape):
        history = simulate_history(schedule, bits)
        energy = expectations(history.orbit_vector()[shared.order], orbit)[0][1]
        if best is None or energy < best[0]:
            best = energy, bits, history
    energy, bits, history = best
    return ScheduleEnergies(
        lambda0_full=lam_full,
        lambda0_orbit=lam_orbit,
        lambda0_filtered=lam_filtered,
        residual=float(filtered.residuals[0]),
        best_witness=bits,
        variational_energy=energy,
        variational_parts=orbit_expectations(history, sector.terms, walk),
        reject_probability_best=history.reject_probability(),
        off_sector_floor=sector.floor,
    )


def separation_experiment(
    accepting: SweepSchedule,
    rejecting: SweepSchedule,
    constants: CouplingConstants | None = None,
) -> SeparationReport:
    """Build both Hamiltonians on V0 with shared constants and compare
    ground energies (see sector_hamiltonian), with what both share built
    once (_Shared)."""
    if accepting.shape != rejecting.shape:
        raise PromiseError("schedules must share one shape")
    if constants is None:
        constants = auto_constants(accepting)
    checked_sector_dim(accepting.shape)
    shared = _Shared.of(accepting.shape)
    sides = (_schedule_energies(schedule, constants, shared) for schedule in (accepting, rejecting))
    return SeparationReport(accepting.shape, constants, *sides)
