"""Step-by-step simulation of the verifier and its history superposition.

The oracle tracks the computation on the orbit's branch only: a clock
pattern plus 2^N qubit amplitudes per step.  A history vector is one vector
into which the (T+1) x 2^N stored amplitudes are scattered at their orbit
indices: full-space indices (history_vector) or V0 keys (sector_vector).
Everything here is independent of the sparse operators it is used to
check, except for sharing the level codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpinBasis, _as_bits, orbit_label_walk, qubit_bits
from .circuit import ProblemShape, SweepSchedule, visitation_order

ORTHONORMALITY_TOL = 1e-10


class OracleError(ValueError):
    pass


def apply_bond_gate(psi: np.ndarray, gate: np.ndarray, bond: int, n_qubits: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits (bond, bond + 1) of a 2^N state vector.

    Qubit 1 is the most significant bit of the amplitude index.
    """
    shape = (2,) * n_qubits
    tensor = psi.reshape(shape)
    axes = (bond - 1, bond)
    tensor = np.moveaxis(tensor, axes, (0, 1))
    folded = tensor.reshape(4, -1)
    folded = gate @ folded
    tensor = folded.reshape((2, 2) + tuple(shape[i] for i in range(n_qubits) if i not in axes))
    tensor = np.moveaxis(tensor, (0, 1), axes)
    return tensor.reshape(-1)


def run_plain_circuit(schedule: SweepSchedule, witness_bits) -> np.ndarray:
    """Apply every scheduled gate in sweep order to |x>; returns the 2^N state."""
    return simulate_history(schedule, witness_bits).amplitudes[-1]


def reject_probability(schedule: SweepSchedule, witness_bits) -> float:
    """Probability of reading bit 1 on qubit 1 after the full computation."""
    psi = run_plain_circuit(schedule, witness_bits)
    n = schedule.shape.n_qubits
    probs = np.abs(psi) ** 2
    return float(probs[qubit_bits(n)[:, 0] == 1].sum())


@dataclass
class HistoryState:
    """Snapshots of one computation run and their uniform superposition."""

    shape: ProblemShape
    head_site: int
    clock_walk: list[tuple[int, ...]]
    amplitudes: list[np.ndarray]  # one 2^N vector per step

    @property
    def n_steps(self) -> int:
        return len(self.clock_walk) - 1

    def snapshot_vectors(self, basis: SpinBasis | None = None) -> list[np.ndarray]:
        """One full-space vector per step, each scattered from its amplitudes."""
        basis = basis or SpinBasis(self.shape)
        vectors = np.zeros((self.n_steps + 1, basis.config_dim), dtype=complex)
        indices = basis.orbit_indices(self.head_site, self.clock_walk)
        np.put_along_axis(vectors, indices, np.asarray(self.amplitudes), axis=1)
        return list(vectors)

    def history_vector(self, basis: SpinBasis | None = None) -> np.ndarray:
        """Uniform superposition (1/sqrt(T+1)) sum_t |snapshot_t> in the
        full configuration space.

        The snapshots are orthonormal exactly when their configuration
        indices are distinct (disjoint supports) and every amplitude vector
        has unit norm; anything else raises OracleError.
        """
        basis = basis or SpinBasis(self.shape)
        indices = basis.orbit_indices(self.head_site, self.clock_walk)
        return self._superposition(indices, basis.config_dim)

    def sector_vector(self, basis: SpinBasis | None = None) -> np.ndarray:
        """The same superposition in the head's own sector, indexed by V0 key
        (SpinBasis.sector_keys): a vector of sector_dim entries."""
        basis = basis or SpinBasis(self.shape)
        return self._superposition(basis.sector_keys(self.clock_walk), basis.sector_dim)

    def _superposition(self, indices: np.ndarray, dim: int) -> np.ndarray:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if np.unique(indices).size != indices.size:
            raise OracleError("snapshots are not orthonormal: clock patterns repeat")
        if np.abs(np.linalg.norm(amps, axis=1) ** 2 - 1.0).max() > ORTHONORMALITY_TOL:
            raise OracleError("snapshots are not orthonormal: amplitudes not unit norm")
        vec = np.zeros(dim, dtype=complex)
        vec[indices.ravel()] = amps.ravel() / np.sqrt(len(amps))
        return vec


def simulate_history(
    schedule: SweepSchedule, witness_bits, head_site: int = 0
) -> HistoryState:
    """Run the sweep step by step, recording every snapshot.

    Snapshot t applies the first t scheduled gates to the witness register
    while the clock pattern advances along the legal orbit.
    """
    shape = schedule.shape.require_valid()
    bits = _as_bits(witness_bits, shape.n_qubits)
    if not 0 <= head_site <= shape.n_qubits:
        raise OracleError(f"head site {head_site} out of range")
    n = shape.n_qubits
    psi = np.all(qubit_bits(n) == bits, axis=1).astype(complex)
    amplitudes = [psi]
    for m, bond in visitation_order(shape):
        psi = apply_bond_gate(psi, schedule.gate_at(m, bond), bond, n)
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise OracleError("snapshot lost normalization")
        amplitudes.append(psi)
    return HistoryState(shape, head_site, orbit_label_walk(shape), amplitudes)


def symmetrize_over_head(history_vectors: list[np.ndarray]) -> np.ndarray:
    """Uniform combination of the N+1 head placements of one run."""
    count = len(history_vectors)
    dims = {v.shape for v in history_vectors}
    if len(dims) != 1:
        raise OracleError("mismatched history vector dimensions")
    return np.sum(history_vectors, axis=0) / np.sqrt(count)


def expectations(state: np.ndarray, parts: dict) -> list[tuple[str, float, float]]:
    """<state|P|state> for each named ring operator; imaginary part reported."""
    out = []
    for name, op in parts.items():
        mat = op.matrix if hasattr(op, "matrix") else op
        if mat.shape[0] != state.size:
            raise OracleError(f"{name}: dimension mismatch")
        val = complex(np.vdot(state, mat @ state))
        out.append((name, float(val.real), float(abs(val.imag))))
    return out


def format_expectation_report(rows: list[tuple[str, float, float]]) -> str:
    return "\n".join(f"{name} {val:.12g} {imag:.3g}" for name, val, imag in rows) + "\n"
