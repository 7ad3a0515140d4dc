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

slot_edges is the one statement of this rule.  orbit_label_walk replays
it and checks the path on every call; frozen_patterns, the patterns no
transition touches, reads the same per-bond pair counts.

Configuration indices read ring site 0 as the most significant digit;
SpinBasis.translate is the one rule that moves a configuration around the
ring.  SpinBasis.level is the one statement of the site layout, read by
SpinBasis.positions and sector_layout (each site's level band and key weight
in the head-0 form-valid sector V0, whose short keys, sector_keys, never
form a d^(N+1) index); the bond terms read these three.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .circuit import ProblemShape, sweep_is_rightward, visitation_order


class BasisError(ValueError):
    """A spin state, level index, or configuration is out of range."""


class OrbitError(RuntimeError):
    """The slot edges do not form one path of T + 1 clock patterns."""


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
    def _width(self) -> int:  # levels of one position: 2 bits x (R+1) cycles
        return 2 * (self.shape.n_cycles + 1)

    @property
    def local_dim(self) -> int:
        return 1 + self.shape.n_qubits * self._width

    def level(self, bit, cycle, position):
        """Level of Data(bit, cycle, position), elementwise over arrays and
        unchecked: the head is level 0, then the positions' bands in order."""
        return 1 + bit + 2 * cycle + self._width * (position - 1)

    @property
    def positions(self) -> np.ndarray:
        """The position of every level: 0 for the head, z for Data(bit, cycle, z)."""
        return np.repeat(np.arange(self.shape.n_sites), self.sector_layout()[1])

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
        return self.level(state.bit, state.cycle, state.position)

    def decode(self, index: int) -> SpinState:
        if not 0 <= index < self.local_dim:
            raise BasisError(f"level index {index} out of range 0..{self.local_dim - 1}")
        if index == 0:
            return HEAD
        position, digit = divmod(index - 1, self._width)
        cycle, bit = divmod(digit, 2)
        return Data(bit, cycle, position + 1)

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
        n = self.shape.n_qubits
        if self.config_dim > np.iinfo(np.int64).max:
            raise BasisError(f"config dim {self.config_dim} does not fit in int64")
        if not 0 <= head_site <= n:
            raise BasisError(f"head site {head_site} out of range 0..{n}")
        labels = self._checked_labels(label_patterns)
        # With the head on site 0, site z holds position z; a bit adds 1 to its level.
        weights = np.int64(self.local_dim) ** np.arange(n - 1, -1, -1)
        base = self.level(0, labels, np.arange(1, n + 1)) @ weights
        return self.translate(base[:, None] + qubit_bits(n) @ weights, head_site)

    # The head-0 sector V0: the head on site 0 and position z on site z, so a
    # configuration is fixed by its levels' offsets in their bands, which its
    # key reads (sector_layout); key order is full-space index order.
    @property
    def sector_dim(self) -> int:
        return self._width ** self.shape.n_qubits

    def sector_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per V0 site s = 0..N: lowest level, level count and key weight; site
        s holds level lowest[s] + digit, digit < count[s], adding digit *
        place[s] to the key (the head alone on site 0, position z's on site z)."""
        n, z = self.shape.n_qubits, np.arange(1, self.shape.n_sites)
        lowest = np.concatenate(([0], self.level(0, 0, z)))
        count = np.concatenate(([1], np.full(n, self._width)))
        place = np.concatenate(([0], np.int64(self._width) ** (n - z)))
        return lowest, count, place

    def sector_keys(self, label_patterns) -> np.ndarray:
        """Entry (p, q) is the V0 key of label_patterns[p] with the bits of q;
        BasisError if keys overflow int64."""
        n = self.shape.n_qubits
        if self.sector_dim > np.iinfo(np.int64).max:
            raise BasisError(f"sector dim {self.sector_dim} does not fit in int64")
        labels = self._checked_labels(label_patterns)
        lowest, _, place = self.sector_layout()
        digits = self.level(0, labels, np.arange(1, n + 1)) - lowest[1:]
        return (digits @ place[1:])[:, None] + qubit_bits(n) @ place[1:]

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
        if set(bits) - set("01"):
            raise BasisError(f"need a bit string of length {n}")
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


def _pair_counts(edges: list[SlotEdge]) -> Counter:
    """How many slot edges have each (bond, label pair) as their pre or post pair."""
    return Counter((edge.bond, pair) for edge in edges for pair in (edge.pre, edge.post))


def orbit_label_walk(shape: ProblemShape) -> list[tuple[int, ...]]:
    """The T+1 per-position label tuples along the computation.

    Replays the slot edges in visitation order from the all-zero pattern and
    checks that they form one path: every edge starts where the walk
    stands, the walk has T + 1 patterns, and each walk pattern touches only
    its incoming and outgoing edge (a repeated pattern would touch more).
    Any violation raises OrbitError.  O(N T): the (R+1)^N patterns are never
    enumerated.
    """
    edges = slot_edges(shape)
    labels = [0] * shape.n_qubits
    walk = [tuple(labels)]
    for edge in edges:
        if (labels[edge.bond - 1], labels[edge.bond]) != edge.pre:
            raise OrbitError(f"slot ({edge.cycle},{edge.bond}) does not start at pattern {walk[-1]}")
        labels[edge.bond - 1], labels[edge.bond] = edge.post
        walk.append(tuple(labels))
    expected = shape.total_steps + 1
    if len(walk) != expected:
        raise OrbitError(f"walk has {len(walk)} patterns, expected {expected}")
    counts = _pair_counts(edges)
    for t, labels in enumerate(walk):
        degree = sum(counts[b, labels[b - 1:b + 1]] for b in range(1, len(labels)))
        if degree != (t > 0) + (t < expected - 1):
            raise OrbitError(f"pattern {labels} touches {degree} slot edges: the walk is not a path")
    return walk


def frozen_patterns(shape: ProblemShape) -> np.ndarray:
    """Clock patterns (rows, in lexicographic order) that no slot edge
    touches: at no bond is their label pair a slot edge's pre or post pair.
    Their configurations have an identically zero H_comp row yet sit off the
    walk (every walk pattern ends a slot edge), so they are exact extra zero
    modes of the sweep term.  O(N (R+1)^N)."""
    n, r = shape.n_qubits, shape.n_cycles
    touched = np.zeros((n - 1, r + 1, r + 1), dtype=bool)
    for bond, (left, right) in _pair_counts(slot_edges(shape)):
        touched[bond - 1, left, right] = True
    patterns = np.indices((r + 1,) * n).reshape(n, -1).T
    hit = np.zeros(len(patterns), dtype=bool)
    for b in range(n - 1):
        hit |= touched[b, patterns[:, b], patterns[:, b + 1]]
    return patterns[~hit]


@dataclass(frozen=True)
class ClockDescriptor:
    """One legal clock pattern: step index, producing slot, label tuple."""

    step: int
    cycle: int
    wall: int  # bond of the slot that produced this pattern; 0 at step 0
    labels: tuple[int, ...]


def enumerate_legal_orbit(shape: ProblemShape) -> list[tuple[int, ClockDescriptor]]:
    """The checked walk (see orbit_label_walk) with the slot that produced
    each pattern, as (step, ClockDescriptor) pairs."""
    slots = [(0, 0)] + [(edge.cycle, edge.bond) for edge in slot_edges(shape)]
    return [(t, ClockDescriptor(t, m, n, labels))
            for t, ((m, n), labels) in enumerate(zip(slots, orbit_label_walk(shape)))]

