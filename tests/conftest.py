import numpy as np
import pytest
from hypothesis import settings

from qcollapse import Grid1D, PhysicalParams, make_gaussian

# Every property test draws the same examples on every run and keeps no
# example database, so a Tier-1 verdict does not vary between runs; each
# test's own @settings still sets its example budget.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def params():
    return PhysicalParams()


@pytest.fixture
def grid():
    return Grid1D(-40.0, 40.0, 1024)


@pytest.fixture
def gaussian(grid, params):
    def _make(center=0.0, sigma=1.0, momentum=0.0):
        return make_gaussian(grid, center, sigma, momentum, params)
    return _make


def l2_distance(a, b):
    d = a.amplitudes - b.amplitudes
    return float(np.sqrt(np.sum(np.abs(d) ** 2) * a.grid.dx))
