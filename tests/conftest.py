import numpy as np
import pytest
from hypothesis import settings

import decoq

# the same examples on every run, so two runs of the suite reach the same
# verdict; each test keeps its own max_examples and deadline
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so name the tree whose decoq the run tests
    return f"decoq under test: {decoq.__file__}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
