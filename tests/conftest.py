import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from memlen import EstimatorParams, MarkovKernel, Sample, parity_chain

# example times vary with the machine's load (a shared machine can stall any
# call), so examples have no per-example deadline
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture(scope="session")
def params():
    return EstimatorParams()


@pytest.fixture(scope="session")
def parity_model():
    return parity_chain()


@pytest.fixture(scope="session")
def order2_kernel():
    """3-symbol order-2 chain whose rows are cyclic shifts of one profile;
    every pair of rows differs by at least 0.35 in some entry."""
    base = [0.6, 0.25, 0.15]
    rows = {
        (a, b): {x: base[(a + 2 * b + x) % 3] for x in range(3)}
        for a in range(3)
        for b in range(3)
    }
    return MarkovKernel(order=2, rows=rows)


def random_sample(rng, n, alphabet=2):
    return Sample.backward(rng.integers(0, alphabet, size=n + 1))
