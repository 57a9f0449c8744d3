import numpy as np
import pytest

from cayley_qmc import Branch, EvalContext, ModelParams

ORDERED_POINT = ModelParams(1.0, 0.5, 0.8)
CLASSICAL_POINT = ModelParams(1.0, 0.0, 1.0)
XY_POINT = ModelParams(0.0, 1.0, 0.7)


def pytest_make_parametrize_id(config, val, argname):
    """A Branch parameter is named by its value ("plus"), as the CLI names it."""
    if isinstance(val, Branch):
        return val.value
    return None


@pytest.fixture(scope="session")
def ctx_plus():
    return EvalContext.create(ORDERED_POINT, Branch.ORDERED_PLUS)


@pytest.fixture(scope="session")
def ctx_minus():
    return EvalContext.create(ORDERED_POINT, Branch.ORDERED_MINUS)


@pytest.fixture(scope="session")
def ctx_disordered():
    return EvalContext.create(ORDERED_POINT, Branch.DISORDERED)


@pytest.fixture(scope="session")
def ctx_xy():
    return EvalContext.create(XY_POINT, Branch.XY_ONLY)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
