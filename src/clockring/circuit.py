"""Verifier circuits packed into boustrophedon sweep schedules.

A computation on N qubits runs in R sweep cycles over the chain's N-1
bonds.  Odd cycles visit bonds 1, 2, ..., N-1 (left to right), even cycles
visit N-1, ..., 1 (right to left).  Each (cycle, bond) slot holds one
two-qubit unitary, identity by default.

ProblemShape and SweepSchedule check their invariants when they are made
(ShapeError, ScheduleError, NonUnitaryGateError), so every shape and
schedule that exists is valid and no consumer checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNITARITY_TOL = 1e-12

EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class ShapeError(ValueError):
    """A problem shape violates its count invariants."""


class ScheduleError(ValueError):
    """A gate placement or slot lookup is inconsistent with the schedule."""


class NonUnitaryGateError(ScheduleError):
    def __init__(self, deviation: float, where: str = ""):
        self.deviation = deviation
        loc = f" at {where}" if where else ""
        super().__init__(
            f"matrix{loc} is not unitary: max|U^H U - 1| = {deviation:.6g}"
        )


@dataclass(frozen=True)
class ProblemShape:
    """Counts defining an instance: N qubits, M witness bits, R cycles."""

    n_qubits: int
    input_len: int
    n_cycles: int

    @property
    def total_steps(self) -> int:
        return self.n_cycles * (self.n_qubits - 1)

    @property
    def n_sites(self) -> int:
        return self.n_qubits + 1

    def __post_init__(self):
        problems = [message for broken, message in (
            (self.n_qubits < 2, "n_qubits must be >= 2"),
            (self.n_cycles < 1, "n_cycles must be >= 1"),
            (not 1 <= self.input_len <= self.n_qubits, "input_len must satisfy 1 <= M <= N"),
        ) if broken]
        if problems:
            raise ShapeError("; ".join(problems))


def unitarity_deviation(matrix: np.ndarray) -> float:
    """Max-entry norm of U^H U - 1; NaN or inf for a non-finite or overflowing U."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ScheduleError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    with np.errstate(all="ignore"):
        return float(np.abs(matrix.conj().T @ matrix - EYE4).max())


def check_unitary(matrix: np.ndarray, where: str = "") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    dev = unitarity_deviation(matrix)
    if not dev <= UNITARITY_TOL:  # NaN compares False both ways
        raise NonUnitaryGateError(dev, where)
    return matrix


@dataclass(frozen=True)
class GatePlacement:
    """One two-qubit unitary assigned to sweep slot (cycle, bond)."""

    cycle: int
    bond: int
    unitary: np.ndarray


def sweep_is_rightward(cycle: int) -> bool:
    """Odd cycles sweep left to right, even cycles right to left."""
    return cycle % 2 == 1


def visitation_order(shape: ProblemShape) -> list[tuple[int, int]]:
    """All (cycle, bond) slots in the order the sweep visits them (see
    _slot_at): exactly R*(N-1) entries, one per slot."""
    return [_slot_at(i, shape.n_qubits) for i in range(shape.total_steps)]


@dataclass(frozen=True)
class SweepSchedule:
    """A full assignment of two-qubit unitaries to sweep slots.

    Slots without an explicit gate hold the identity.  Construction checks
    every stored slot and gate and keeps its own copies; nothing changes
    them afterwards.
    """

    shape: ProblemShape
    _gates: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        gates = {}
        for (m, n), gate in self._gates.items():
            self._check_slot(m, n)
            gates[(m, n)] = check_unitary(np.array(gate, dtype=complex), where=f"slot ({m},{n})")
        object.__setattr__(self, "_gates", gates)

    def _check_slot(self, cycle: int, bond: int) -> None:
        if not (1 <= cycle <= self.shape.n_cycles):
            raise ScheduleError(f"cycle {cycle} out of range 1..{self.shape.n_cycles}")
        if not (1 <= bond <= self.shape.n_qubits - 1):
            raise ScheduleError(f"bond {bond} out of range 1..{self.shape.n_qubits - 1}")

    def gate_at(self, cycle: int, bond: int) -> np.ndarray:
        self._check_slot(cycle, bond)
        gate = self._gates.get((cycle, bond))
        return EYE4.copy() if gate is None else gate.copy()

    def is_identity_slot(self, cycle: int, bond: int) -> bool:
        gate = self._gates.get((cycle, bond))
        return gate is None or bool(np.abs(gate - EYE4).max() <= UNITARITY_TOL)

    def placements(self) -> list[GatePlacement]:
        return [
            GatePlacement(m, n, U.copy())
            for (m, n), U in sorted(self._gates.items())
        ]


def schedule_from_placements(
    placements, n_qubits: int, input_len: int = 1, n_cycles: int | None = None
) -> SweepSchedule:
    """Build a schedule from explicit (cycle, bond, unitary) assignments.

    With n_cycles omitted, R is the largest cycle used (at least 1).
    """
    placements = [
        p if isinstance(p, GatePlacement) else GatePlacement(*p) for p in placements
    ]
    if n_cycles is None:
        n_cycles = max((p.cycle for p in placements), default=1)
    gates: dict[tuple[int, int], np.ndarray] = {}
    for p in placements:
        if (p.cycle, p.bond) in gates:
            raise ScheduleError(f"slot ({p.cycle},{p.bond}) assigned twice")
        gates[(p.cycle, p.bond)] = p.unitary
    return SweepSchedule(ProblemShape(n_qubits, input_len, n_cycles), gates)


def schedule_from_gate_list(
    gates, n_qubits: int, input_len: int = 1
) -> SweepSchedule:
    """Pack an ordered list of (bond, unitary) gates into sweep slots.

    Greedy packing: walk the sweep visitation order and drop each gate into
    the first unvisited slot on its bond, preserving the original relative
    order.  R is the minimal cycle count that fits; all other slots stay
    identity.
    """
    checked = []
    for i, (bond, unitary) in enumerate(gates):
        if not 1 <= bond <= n_qubits - 1:
            raise ScheduleError(
                f"gate {i}: bond {bond} out of range 1..{n_qubits - 1}"
            )
        checked.append((bond, check_unitary(unitary, where=f"gate {i}")))

    placed: dict[tuple[int, int], np.ndarray] = {}
    cursor = 0
    cycles_used = 1
    for bond, unitary in checked:
        while True:
            m, n = _slot_at(cursor, n_qubits)
            cursor += 1
            if n == bond:
                placed[(m, n)] = unitary
                cycles_used = max(cycles_used, m)
                break
    return SweepSchedule(ProblemShape(n_qubits, input_len, cycles_used), placed)


def _slot_at(index: int, n_qubits: int) -> tuple[int, int]:
    """Slot at a flat position in the (unbounded) sweep visitation order."""
    per_cycle = n_qubits - 1
    m = index // per_cycle + 1
    k = index % per_cycle
    n = k + 1 if sweep_is_rightward(m) else per_cycle - k
    return m, n


def random_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_schedule(shape: ProblemShape, rng: np.random.Generator) -> SweepSchedule:
    """A schedule with an independent random unitary in every slot."""
    gates = {slot: random_unitary(rng) for slot in visitation_order(shape)}
    return SweepSchedule(shape, gates)


def embed_single_qubit(u2: np.ndarray, side: str = "left") -> np.ndarray:
    """Embed a one-qubit gate into a bond slot as U x 1 (or 1 x U)."""
    u2 = np.asarray(u2, dtype=complex)
    if side == "left":
        return np.kron(u2, EYE2)
    if side == "right":
        return np.kron(EYE2, u2)
    raise ValueError("side must be 'left' or 'right'")


def force_reject_gate() -> np.ndarray:
    """Permutation gate setting the first qubit whenever the second is clear.

    Maps |x1 x2> to |not x2, x1>.  On the valid-ancilla branch (x2 = 0) the
    first qubit always ends in |1>, so a schedule holding this gate in its
    only slot rejects every witness that keeps its ancilla valid.
    """
    gate = np.zeros((4, 4), dtype=complex)
    for x1 in (0, 1):
        for x2 in (0, 1):
            gate[((1 - x2) << 1) | x1, (x1 << 1) | x2] = 1.0
    return gate


# Circuit text format: '#' comments, blank lines ignored, one header line
#   shape N M [R]
# then gate lines with 16 row-major "re,im" entries:
#   gate <cycle> <bond> <e00> <e01> ... <e33>
def parse_circuit_text(text: str) -> SweepSchedule:
    header = None
    placements: list[tuple[int, int, np.ndarray]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "shape":
            if header is not None:
                raise ScheduleError(f"line {lineno}: duplicate shape header")
            if len(fields) not in (3, 4):
                raise ScheduleError(f"line {lineno}: expected 'shape N M [R]'")
            try:
                header = tuple(int(v) for v in fields[1:])
            except ValueError:
                raise ScheduleError(f"line {lineno}: non-integer shape field") from None
        elif fields[0] == "gate":
            if len(fields) != 3 + 16:
                raise ScheduleError(
                    f"line {lineno}: gate line needs cycle, bond and 16 entries"
                )
            try:
                m, n = int(fields[1]), int(fields[2])
                entries = [_parse_complex(tok, lineno) for tok in fields[3:]]
            except ValueError:
                raise ScheduleError(f"line {lineno}: malformed gate field") from None
            unitary = np.array(entries, dtype=complex).reshape(4, 4)
            placements.append((m, n, check_unitary(unitary, where=f"line {lineno}")))
        else:
            raise ScheduleError(f"line {lineno}: unknown directive {fields[0]!r}")
    if header is None:
        raise ScheduleError("missing 'shape N M [R]' header")
    n_qubits, input_len = header[0], header[1]
    n_cycles = header[2] if len(header) == 3 else None
    return schedule_from_placements(placements, n_qubits, input_len, n_cycles)


def _parse_complex(token: str, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise ScheduleError(f"line {lineno}: expected 're,im', got {token!r}")
    return complex(float(parts[0]), float(parts[1]))


def format_circuit_text(schedule: SweepSchedule) -> str:
    shape = schedule.shape
    lines = [f"shape {shape.n_qubits} {shape.input_len} {shape.n_cycles}"]
    for p in schedule.placements():
        entries = " ".join(
            f"{v.real:.17g},{v.imag:.17g}" for v in p.unitary.reshape(-1)
        )
        lines.append(f"gate {p.cycle} {p.bond} {entries}")
    return "\n".join(lines) + "\n"
