import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_qmc.errors import DomainError
from cayley_qmc.linalg import dagger, herm_exp, kron, normalized_trace
from cayley_qmc.model_ops import PAULI


def crandn(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def test_kron_examples():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(PAULI["Z"], PAULI["Z"]), np.diag([1, -1, -1, 1]))
    xy = kron(PAULI["X"], PAULI["Y"])
    assert xy[0, 3] == -1j  # 1-based entry (1, 4)


@pytest.mark.parametrize("shape_a", [(1, 1), (2, 2), (2, 8), (8, 2)])
@pytest.mark.parametrize("shape_b", [(1, 1), (2, 2), (2, 8), (8, 2)])
def test_kron_is_np_kron_bit_for_bit(rng, shape_a, shape_b):
    for a, b in [(crandn(rng, shape_a), crandn(rng, shape_b)), (rng.normal(size=shape_a), rng.normal(size=shape_b))]:
        got = kron(a, b)
        want = np.kron(a.astype(complex), b.astype(complex))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_normalized_trace_examples():
    assert normalized_trace(np.eye(4)) == 1
    assert normalized_trace(PAULI["Z"]) == 0
    assert normalized_trace(np.diag([3.0, 5.0])) == 4.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_kron_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = crandn(rng, (2, 2)), crandn(rng, (4, 4))
    assert np.isclose(normalized_trace(kron(a, b)), normalized_trace(a) * normalized_trace(b), atol=1e-12)


def test_herm_exp_examples():
    assert np.allclose(herm_exp(np.zeros((2, 2))), np.eye(2))

    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.allclose(herm_exp(math.log(2) * proj), np.eye(2) + proj, atol=1e-13)

    jb = 0.37
    h = (kron(PAULI["X"], PAULI["X"]) + kron(PAULI["Y"], PAULI["Y"])) / 2
    got = herm_exp(jb * h)
    want = np.eye(4, dtype=complex)
    want[1:3, 1:3] = [[math.cosh(jb), math.sinh(jb)], [math.sinh(jb), math.cosh(jb)]]
    assert np.allclose(got, want, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_herm_exp_inverse(seed):
    rng = np.random.default_rng(seed)
    m = crandn(rng, (4, 4))
    a = m + dagger(m)
    assert np.allclose(herm_exp(a) @ herm_exp(-a), np.eye(4), atol=1e-10)


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(DomainError):
        herm_exp(np.array([[0, 1], [0, 0]], dtype=complex))
