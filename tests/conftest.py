import numpy as np
import pytest
from hypothesis import settings

# the same examples on every run, so two runs of the suite reach the same
# verdict; each test keeps its own max_examples and deadline
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
