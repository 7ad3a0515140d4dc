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
