"""Qudit levels, ring configurations, and the legal clock orbit.

Each ring site holds either the head marker or a data triple
(bit, cycle, position).  The computation's clock lives in the cycle
labels: as the sweep crosses a bond, both spins on the bond take new
labels.  End spins (positions 1 and N) take the current cycle number m.
Interior spins take m when the sweep arrives on them and fall back to
m - 1 when it departs, so every sweep step changes both spins of its
bond and the label pattern pins the step uniquely.  Starting from the
all-zero pattern this generates exactly T + 1 = R(N-1) + 1 patterns
connected in a path, one transition per sweep slot.

Configuration indices read ring site 0 as the most significant digit;
SpinBasis.translate is the one rule that moves a configuration around the
ring.  Configurations of the head-0 form-valid sector V0 also have a short
key (SpinBasis.sector_keys) that never forms a d^(N+1) index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .circuit import ProblemShape, sweep_is_rightward, visitation_order


class BasisError(ValueError):
    """A spin state, level index, or configuration is out of range."""


class OrbitError(RuntimeError):
    """The transition closure is not a path; the term table is broken."""


class _Head:
    """Singleton read/write-head level."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "H"


HEAD = _Head()


@dataclass(frozen=True)
class Data:
    """Data level: qubit bit, cycle label 0..R, position label 1..N."""

    bit: int
    cycle: int
    position: int

    def __repr__(self):
        return f"D({self.bit},{self.cycle},{self.position})"


SpinState = Union[_Head, Data]

RingConfig = tuple  # N+1 SpinStates, ring site 0..N


@dataclass(frozen=True)
class SpinBasis:
    """Index codec for the single-site level set of a given shape."""

    shape: ProblemShape

    @property
    def local_dim(self) -> int:
        n, r = self.shape.n_qubits, self.shape.n_cycles
        return 2 * n * (r + 1) + 1

    def encode(self, state: SpinState) -> int:
        if state is HEAD:
            return 0
        if not isinstance(state, Data):
            raise BasisError(f"not a spin state: {state!r}")
        n, r = self.shape.n_qubits, self.shape.n_cycles
        if state.bit not in (0, 1):
            raise BasisError(f"bit {state.bit} out of range")
        if not 0 <= state.cycle <= r:
            raise BasisError(f"cycle {state.cycle} out of range 0..{r}")
        if not 1 <= state.position <= n:
            raise BasisError(f"position {state.position} out of range 1..{n}")
        return 1 + state.bit + 2 * (state.cycle + (r + 1) * (state.position - 1))

    def decode(self, index: int) -> SpinState:
        if not 0 <= index < self.local_dim:
            raise BasisError(f"level index {index} out of range 0..{self.local_dim - 1}")
        if index == 0:
            return HEAD
        r = self.shape.n_cycles
        payload = index - 1
        bit = payload % 2
        cycle = (payload // 2) % (r + 1)
        position = payload // (2 * (r + 1)) + 1
        return Data(bit, cycle, position)

    def states(self) -> Iterator[SpinState]:
        return (self.decode(i) for i in range(self.local_dim))

    # Ring configurations index site 0 as the most significant digit.
    @property
    def config_dim(self) -> int:
        return self.local_dim ** self.shape.n_sites

    def config_index(self, config: Sequence[SpinState]) -> int:
        if len(config) != self.shape.n_sites:
            raise BasisError(f"config must have {self.shape.n_sites} sites")
        idx = 0
        for state in config:
            idx = idx * self.local_dim + self.encode(state)
        return idx

    def config_at(self, index: int) -> RingConfig:
        if not 0 <= index < self.config_dim:
            raise BasisError(f"config index {index} out of range")
        levels = []
        for _ in range(self.shape.n_sites):
            levels.append(index % self.local_dim)
            index //= self.local_dim
        return tuple(self.decode(lvl) for lvl in reversed(levels))

    def translate(self, indices, steps: int) -> np.ndarray:
        """Index after every site's content moves `steps` sites forward (mod N+1).

        Site 0 is the most significant digit, so this rotates the digit
        string right: the low `steps` digits wrap around to the top.
        """
        s = steps % self.shape.n_sites
        moved, wrapped = np.divmod(np.asarray(indices, dtype=np.int64), self.local_dim ** s)
        return moved + wrapped * self.local_dim ** (self.shape.n_sites - s) if s else moved

    def orbit_indices(self, head_site: int, label_patterns) -> np.ndarray:
        """Entry (p, q) is the index of config_from_labels(head_site,
        label_patterns[p], bits of q); BasisError if indices overflow int64."""
        n, r = self.shape.n_qubits, self.shape.n_cycles
        if self.config_dim > np.iinfo(np.int64).max:
            raise BasisError(f"config dim {self.config_dim} does not fit in int64")
        if not 0 <= head_site <= n:
            raise BasisError(f"head site {head_site} out of range 0..{n}")
        labels = self._checked_labels(label_patterns)
        # With the head on site 0, site z holds position z.
        weights = np.int64(self.local_dim) ** np.arange(n - 1, -1, -1)
        # Level of Data(bit, cycle, z) is 1 + bit + 2 (cycle + (R+1)(z-1)).
        base = (1 + 2 * (labels + (r + 1) * np.arange(n))) @ weights
        return self.translate(base[:, None] + qubit_bits(n) @ weights, head_site)

    # The head-0 sector V0: the head on site 0 and position z on site z, so a
    # configuration is fixed by its N data digits bit + 2 * cycle.  Its key
    # reads them in base 2(R+1), position 1 most significant; key order is
    # full-space index order.
    @property
    def sector_dim(self) -> int:
        return (2 * (self.shape.n_cycles + 1)) ** self.shape.n_qubits

    def sector_keys(self, label_patterns) -> np.ndarray:
        """Entry (p, q) is the V0 key of label_patterns[p] with the bits of q;
        BasisError if keys overflow int64."""
        n, r = self.shape.n_qubits, self.shape.n_cycles
        if self.sector_dim > np.iinfo(np.int64).max:
            raise BasisError(f"sector dim {self.sector_dim} does not fit in int64")
        labels = self._checked_labels(label_patterns)
        weights = np.int64(2 * (r + 1)) ** np.arange(n - 1, -1, -1)
        return (2 * labels @ weights)[:, None] + qubit_bits(n) @ weights

    def _checked_labels(self, label_patterns) -> np.ndarray:
        n, r = self.shape.n_qubits, self.shape.n_cycles
        labels = np.asarray(label_patterns, dtype=np.int64)
        if labels.ndim != 2 or labels.shape[1] != n:
            raise BasisError("need one cycle label per position in every pattern")
        if labels.size and not (labels.min() >= 0 and labels.max() <= r):
            raise BasisError(f"cycle label out of range 0..{r}")
        return labels


def format_config(config: Sequence[SpinState]) -> str:
    return ",".join(repr(s) for s in config)


def initial_config(bits, head_site: int, shape: ProblemShape) -> RingConfig:
    """Input configuration: head at the given site, positions clockwise.

    Site head_site holds the head; site head_site + z (mod N+1) holds the
    data spin (x_z, cycle 0, position z).
    """
    shape.require_valid()
    if not 0 <= head_site <= shape.n_qubits:
        raise BasisError(f"head site {head_site} out of range 0..{shape.n_qubits}")
    return config_from_labels(head_site, [0] * shape.n_qubits, bits, shape)


def config_from_labels(
    head_site: int, labels: Sequence[int], bits, shape: ProblemShape
) -> RingConfig:
    """Configuration with given per-position cycle labels and qubit bits."""
    bits = _as_bits(bits, shape.n_qubits)
    if len(labels) != shape.n_qubits:
        raise BasisError("need one cycle label per position")
    sites: list[SpinState] = [HEAD] * shape.n_sites
    for z in range(1, shape.n_qubits + 1):
        sites[(head_site + z) % shape.n_sites] = Data(bits[z - 1], labels[z - 1], z)
    sites[head_site] = HEAD
    return tuple(sites)


def qubit_bits(n: int) -> np.ndarray:
    """All 2^N bit strings as rows: row q holds the bits of q, qubit 1 first."""
    return (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _as_bits(bits, n: int) -> list[int]:
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    bits = list(bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise BasisError(f"need a bit string of length {n}")
    return bits


@dataclass(frozen=True)
class SlotEdge:
    """One sweep transition: bond-local cycle labels before and after.

    ``pre`` and ``post`` are the (left, right) cycle labels of positions
    (bond, bond + 1).  The transition applies the slot's scheduled gate to
    the two qubit bits.
    """

    step: int
    cycle: int
    bond: int
    pre: tuple[int, int]
    post: tuple[int, int]


def slot_edges(shape: ProblemShape) -> list[SlotEdge]:
    """Label transitions of every sweep slot, in visitation order."""
    shape.require_valid()
    n_q = shape.n_qubits
    labels = [0] * (n_q + 1)  # 1-indexed by position
    edges = []
    for step, (m, n) in enumerate(visitation_order(shape), start=1):
        pre = (labels[n], labels[n + 1])
        for j in (n, n + 1):
            if j == 1 or j == n_q:
                labels[j] = m
            else:
                arriving = (j == n + 1) if sweep_is_rightward(m) else (j == n)
                labels[j] = m if arriving else m - 1
        post = (labels[n], labels[n + 1])
        edges.append(SlotEdge(step, m, n, pre, post))
    return edges


def orbit_label_walk(shape: ProblemShape) -> list[tuple[int, ...]]:
    """The T+1 per-position label tuples along the computation."""
    n_q = shape.n_qubits
    labels = [0] * n_q
    walk = [tuple(labels)]
    for edge in slot_edges(shape):
        labels[edge.bond - 1] = edge.post[0]
        labels[edge.bond] = edge.post[1]
        walk.append(tuple(labels))
    return walk


@dataclass(frozen=True)
class ClockDescriptor:
    """One legal clock pattern: step index, producing slot, label tuple."""

    step: int
    cycle: int
    wall: int  # bond of the slot that produced this pattern; 0 at step 0
    labels: tuple[int, ...]


def enumerate_legal_orbit(
    shape: ProblemShape, _edges: list[SlotEdge] | None = None
) -> list[tuple[int, ClockDescriptor]]:
    """Closure of the initial clock pattern under the sweep transitions.

    Applies every slot edge (forwards and backwards) until no new label
    pattern appears, then checks the closure is a path of exactly T + 1
    patterns starting at the all-zero pattern.  Any violation raises
    OrbitError: it would mean the term table couples patterns it must not.
    """
    shape.require_valid()
    edges = slot_edges(shape) if _edges is None else _edges
    start = tuple([0] * shape.n_qubits)

    def neighbors(labels):
        out = []
        for edge in edges:
            pair = (labels[edge.bond - 1], labels[edge.bond])
            if pair == edge.pre:
                out.append((edge, _apply(labels, edge.bond, edge.post)))
            elif pair == edge.post:
                out.append((edge, _apply(labels, edge.bond, edge.pre)))
        return out

    adjacency: dict[tuple[int, ...], list] = {}
    frontier = [start]
    while frontier:
        labels = frontier.pop()
        if labels in adjacency:
            continue
        adjacency[labels] = neighbors(labels)
        for _, nxt in adjacency[labels]:
            if nxt not in adjacency:
                frontier.append(nxt)

    expected = shape.total_steps + 1
    if len(adjacency) != expected:
        raise OrbitError(
            f"closure has {len(adjacency)} patterns, expected {expected}"
        )
    if len(adjacency[start]) != 1:
        raise OrbitError("initial pattern is not a path endpoint")

    orbit = []
    seen = {start}
    labels, step = start, 0
    orbit.append((0, ClockDescriptor(0, 0, 0, start)))
    while True:
        onward = [(e, nxt) for e, nxt in adjacency[labels] if nxt not in seen]
        if not onward:
            break
        if len(onward) > 1 or len(adjacency[labels]) > 2:
            raise OrbitError(f"pattern {labels} has degree > 2: closure is not a path")
        edge, labels = onward[0]
        step += 1
        seen.add(labels)
        orbit.append((step, ClockDescriptor(step, edge.cycle, edge.bond, labels)))
    if len(orbit) != expected:
        raise OrbitError("closure is disconnected from the initial pattern")
    return orbit


def _apply(labels, bond, pair):
    out = list(labels)
    out[bond - 1], out[bond] = pair
    return tuple(out)


def is_legal(config: Sequence[SpinState], shape: ProblemShape):
    """Check head count, position layout, and clock-pattern membership.

    Returns (ok, violations); violation tags name the penalty family that
    would fire on the configuration.
    """
    shape.require_valid()
    n_sites = shape.n_sites
    if len(config) != n_sites:
        raise BasisError(f"config must have {n_sites} sites")
    violations = []

    head_sites = [i for i, s in enumerate(config) if s is HEAD]
    if len(head_sites) != 1:
        violations.append(f"head-count: {len(head_sites)} heads")
    for i, s in enumerate(config):
        nxt = config[(i + 1) % n_sites]
        if nxt is HEAD and not (isinstance(s, Data) and s.position == shape.n_qubits):
            violations.append("head-adjacency: head not preceded by position N")
        if s is HEAD and not (isinstance(nxt, Data) and nxt.position == 1):
            violations.append("head-adjacency: head not followed by position 1")
        if isinstance(s, Data) and isinstance(nxt, Data):
            if nxt.position != s.position + 1:
                violations.append(
                    f"position-increment at the pair ({s.position},{nxt.position})"
                )
    if violations:
        return False, violations

    head_site = head_sites[0]
    positions = [
        config[(head_site + z) % n_sites] for z in range(1, shape.n_qubits + 1)
    ]
    if any(not isinstance(s, Data) or s.position != z + 1 for z, s in enumerate(positions)):
        violations.append("position-increment: positions do not read 1..N after the head")
        return False, violations

    labels = tuple(s.cycle for s in positions)
    if labels not in set(orbit_label_walk(shape)):
        violations.append(f"clock-pattern: labels {labels} not in the legal orbit")
    return not violations, violations
