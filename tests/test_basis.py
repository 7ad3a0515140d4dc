import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clockring import (
    HEAD,
    Data,
    ProblemShape,
    SpinBasis,
    enumerate_legal_orbit,
    initial_config,
    orbit_label_walk,
    visitation_order,
)
from clockring import basis
from clockring.basis import (
    BasisError,
    OrbitError,
    SlotEdge,
    config_from_labels,
    format_config,
    frozen_patterns,
    slot_edges,
)
from clockring.circuit import ShapeError, SweepSchedule
from clockring.hamiltonian import assemble_orbit, build_h_comp_bond
from clockring.oracle import simulate_history


class TestCodec:
    def test_head_is_zero(self):
        assert SpinBasis(ProblemShape(2, 1, 1)).encode(HEAD) == 0

    def test_first_data_level(self):
        assert SpinBasis(ProblemShape(2, 1, 1)).encode(Data(0, 0, 1)) == 1

    def test_top_level(self):
        basis = SpinBasis(ProblemShape(2, 1, 1))
        assert basis.local_dim == 9
        assert basis.encode(Data(1, 1, 2)) == 8

    def test_decode_trivials(self):
        basis = SpinBasis(ProblemShape(3, 1, 2))
        assert basis.decode(0) is HEAD
        assert basis.decode(1) == Data(0, 0, 1)

    def test_exhaustive_round_trip(self):
        basis = SpinBasis(ProblemShape(3, 1, 2))
        assert basis.local_dim == 19
        for idx in range(basis.local_dim):
            assert basis.encode(basis.decode(idx)) == idx

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), r=st.integers(1, 4))
    def test_round_trip_all_small_shapes(self, n, r):
        basis = SpinBasis(ProblemShape(n, 1, r))
        assert basis.local_dim == 2 * n * (r + 1) + 1
        states = list(basis.states())
        assert len(states) == basis.local_dim
        for idx, state in enumerate(states):
            assert basis.encode(state) == idx

    def test_out_of_range_rejected(self):
        basis = SpinBasis(ProblemShape(2, 1, 1))
        with pytest.raises(BasisError):
            basis.encode(Data(0, 2, 1))
        with pytest.raises(BasisError):
            basis.encode(Data(0, 0, 3))
        with pytest.raises(BasisError):
            basis.decode(9)

    def test_config_index_round_trip(self):
        shape = ProblemShape(2, 1, 1)
        basis = SpinBasis(shape)
        config = initial_config("10", 1, shape)
        assert basis.config_at(basis.config_index(config)) == config


class TestOrbitIndices:
    @pytest.mark.parametrize("n,m,r", [(2, 1, 1), (2, 1, 3), (3, 1, 2), (4, 1, 1)])
    def test_matches_per_configuration_codec(self, n, m, r):
        shape = ProblemShape(n, m, r)
        basis = SpinBasis(shape)
        patterns = list(itertools.product(range(r + 1), repeat=n))
        for head in range(shape.n_sites):
            got = basis.orbit_indices(head, patterns)
            assert got.dtype == np.int64 and got.shape == (len(patterns), 2 ** n)
            for p, labels in enumerate(patterns):
                for q in range(2 ** n):
                    bits = [(q >> (n - 1 - i)) & 1 for i in range(n)]
                    want = basis.config_index(config_from_labels(head, labels, bits, shape))
                    assert got[p, q] == want

    def test_int64_overflow_raises(self):
        basis = SpinBasis(ProblemShape(8, 1, 100))
        with pytest.raises(BasisError):
            basis.orbit_indices(0, [[0] * 8])


LAYOUT_SHAPES = [(2, 1, 1), (3, 1, 2), (4, 2, 3), (5, 1, 1), (2, 1, 40)]


class TestLayout:
    @pytest.mark.parametrize("dims", LAYOUT_SHAPES, ids=str)
    def test_level_and_positions_agree_with_the_codec(self, dims):
        basis = SpinBasis(ProblemShape(*dims))
        states = list(basis.states())
        assert states[0] is HEAD and len(states) == basis.local_dim
        bits, cycles, positions = (np.array([getattr(s, name) for s in states[1:]])
                                   for name in ("bit", "cycle", "position"))
        assert np.array_equal(basis.level(bits, cycles, positions), np.arange(1, basis.local_dim))
        assert all(basis.level(s.bit, s.cycle, s.position) == basis.encode(s) for s in states[1:])
        assert np.array_equal(basis.positions, np.concatenate(([0], positions)))

    @pytest.mark.parametrize("dims", LAYOUT_SHAPES, ids=str)
    def test_sector_keys_decode_to_the_levels_of_orbit_indices(self, dims):
        shape = ProblemShape(*dims)
        basis = SpinBasis(shape)
        n, d = shape.n_qubits, basis.local_dim
        patterns = list(itertools.product(range(shape.n_cycles + 1), repeat=n))
        lowest, count, place = basis.sector_layout()
        assert (lowest[0], count[0], place[0]) == (0, 1, 0) and np.prod(count) == basis.sector_dim
        keys = basis.sector_keys(patterns)
        levels = lowest[1:] + keys[..., None] // place[1:] % count[1:]
        indices = basis.orbit_indices(0, patterns)
        digits = indices[..., None] // np.int64(d) ** np.arange(n, -1, -1) % d  # sites 0..N
        assert np.all(digits[..., 0] == 0)
        assert np.array_equal(levels, digits[..., 1:])
        assert np.array_equal(np.argsort(keys, axis=None), np.argsort(indices, axis=None))


class TestInitialConfig:
    def test_head_first(self):
        config = initial_config("00", 0, ProblemShape(2, 1, 1))
        assert config == (HEAD, Data(0, 0, 1), Data(0, 0, 2))

    def test_wraparound_placement(self):
        config = initial_config("10", 1, ProblemShape(2, 1, 1))
        assert config == (Data(0, 0, 2), HEAD, Data(1, 0, 1))

    def test_small_n_rejected(self):
        with pytest.raises(ShapeError):
            initial_config("1", 0, ProblemShape(1, 1, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(BasisError):
            initial_config("0", 0, ProblemShape(2, 1, 1))

    def test_all_initial_configs_legal(self, form_valid):
        for n in (2, 3):
            shape = ProblemShape(n, 1, 2)
            walk = orbit_label_walk(shape)
            for head in range(n + 1):
                for w in range(2 ** n):
                    bits = [(w >> (n - 1 - i)) & 1 for i in range(n)]
                    config = initial_config(bits, head, shape)
                    assert form_valid(config)
                    assert tuple(config[(head + z) % (n + 1)].cycle for z in range(1, n + 1)) in walk

    def test_format_config(self):
        shape = ProblemShape(2, 1, 1)
        assert format_config(initial_config("10", 0, shape)) == "H,D(1,0,1),D(0,0,2)"


class TestOrbit:
    @pytest.mark.parametrize(
        "n,r,count", [(2, 1, 2), (3, 2, 5), (2, 3, 4), (3, 3, 7), (4, 3, 10), (4, 4, 13)]
    )
    def test_orbit_size(self, n, r, count):
        orbit = enumerate_legal_orbit(ProblemShape(n, 1, r))
        assert len(orbit) == count

    def test_orbit_is_ordered_path(self):
        for n, r in [(2, 2), (3, 2), (3, 3), (4, 3)]:
            shape = ProblemShape(n, 1, r)
            orbit = enumerate_legal_orbit(shape)
            assert [t for t, _ in orbit] == list(range(shape.total_steps + 1))
            assert [d.labels for _, d in orbit] == orbit_label_walk(shape)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ShapeError):
            enumerate_legal_orbit(ProblemShape(3, 1, 0))

    def test_broken_edge_table_detected(self, monkeypatch):
        shape = ProblemShape(3, 1, 2)
        edges = slot_edges(shape)
        # an extra transition out of the initial pattern makes it degree 2
        edges = edges + [SlotEdge(99, 1, 2, (0, 0), (2, 2))]
        monkeypatch.setattr(basis, "slot_edges", lambda shape: edges)
        with pytest.raises(OrbitError):
            enumerate_legal_orbit(shape)

    def test_every_slot_fires_once(self):
        for n, r in [(2, 3), (3, 2), (3, 3), (5, 2)]:
            shape = ProblemShape(n, 1, r)
            steps = [(d.cycle, d.wall) for t, d in enumerate_legal_orbit(shape) if t > 0]
            assert steps == visitation_order(shape)

    def test_walk_labels_within_range(self):
        for n, r in [(3, 3), (4, 4), (5, 3)]:
            for labels in orbit_label_walk(ProblemShape(n, 1, r)):
                assert all(0 <= y <= r for y in labels)

    def test_full_grid_path_connectivity(self):
        # enumerate_legal_orbit raises on any branch, chord, or miscount
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                shape = ProblemShape(n, 1, r)
                orbit = enumerate_legal_orbit(shape)
                assert len(orbit) == shape.total_steps + 1
                assert len({d.labels for _, d in orbit}) == len(orbit)


def _chord(edges):  # joins walk patterns (1,1,0) and (1,2,2), two steps apart
    return edges + [SlotEdge(5, 3, 2, (1, 0), (2, 2))]


def _branch(edges):  # the last slot ends on (1,1,2), so walk pattern (1,1,0) touches it too
    last = edges[-1]
    return edges[:-1] + [SlotEdge(last.step, last.cycle, last.bond, last.pre, (1, 1))]


def _off_walk(edges):  # its pairs occur at bond 1 in no walk pattern
    return edges + [SlotEdge(5, 3, 1, (0, 2), (2, 0))]


def _dropped(edges):
    return edges[:-1]


def _swapped(edges):
    return [edges[0], edges[2], edges[1], edges[3]]


def _stalled(edges):  # the last slot leaves its bond unchanged, so a pattern repeats
    last = edges[-1]
    return edges[:-1] + [SlotEdge(last.step, last.cycle, last.bond, last.pre, last.pre)]


class TestWalkCheck:
    # The (3,1,2) walk: (0,0,0) (1,1,0) (1,0,1) (1,2,2) (2,1,2), by slots
    # (1,1) (1,2) (2,2) (2,1).
    shape = ProblemShape(3, 1, 2)

    def test_walk_of_the_unmutated_table(self):
        assert orbit_label_walk(self.shape) == [
            (0, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 2), (2, 1, 2)
        ]

    @pytest.mark.parametrize(
        "mutate", [_chord, _branch, _off_walk, _dropped, _swapped, _stalled],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_mutated_table_is_refused(self, monkeypatch, mutate):
        schedule = SweepSchedule(self.shape)
        terms = [(build_h_comp_bond(schedule), 1.0)]
        edges = mutate(slot_edges(self.shape))
        monkeypatch.setattr(basis, "slot_edges", lambda shape: edges)
        for build in (
            lambda: orbit_label_walk(self.shape),
            lambda: assemble_orbit(terms, self.shape),
            lambda: simulate_history(schedule, "000"),
        ):
            with pytest.raises(OrbitError):
                build()


def _brute_frozen(shape):
    edges = slot_edges(shape)
    return [list(p) for p in itertools.product(range(shape.n_cycles + 1), repeat=shape.n_qubits)
            if not any(p[e.bond - 1:e.bond + 1] in (e.pre, e.post) for e in edges)]


@pytest.mark.parametrize("n,m,r", [(2, 1, 64), (3, 1, 8), (4, 1, 3), (5, 1, 2), (9, 1, 1)])
def test_frozen_patterns_match_their_definition(n, m, r):
    shape = ProblemShape(n, m, r)
    assert frozen_patterns(shape).tolist() == _brute_frozen(shape)


