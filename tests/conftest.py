import numpy as np
import pytest

from clockring import HEAD, ProblemShape, SweepSchedule


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture(scope="session")
def desk_shape():
    return ProblemShape(2, 1, 1)


@pytest.fixture(scope="session")
def desk_identity_schedule(desk_shape):
    return SweepSchedule(desk_shape)


@pytest.fixture(scope="session")
def form_valid():
    """H_form's -1 level set as a predicate on configurations: one head, and
    positions 1..N clockwise from it."""
    def valid(config) -> bool:
        heads = [site for site, state in enumerate(config) if state is HEAD]
        return len(heads) == 1 and all(
            config[(heads[0] + z) % len(config)].position == z for z in range(1, len(config)))
    return valid


@pytest.fixture(scope="session")
def levels_below():
    """The number of eigenvalues of a Hermitian sparse matrix below a value,
    counted by Sylvester's law of inertia: the negative pivots of a
    symmetric-mode, diagonal-pivot LU of the shifted matrix."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    def count(mat, value) -> int:
        shifted = (mat - value * sp.identity(mat.shape[0], format="csr")).tocsc()
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_r, lu.perm_c)
        return int(np.count_nonzero(lu.U.diagonal().real < 0))
    return count
