import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_qmc.errors import DomainError
from cayley_qmc.linalg import (
    SiteOperator,
    dagger,
    embed_operator,
    herm_exp,
    kron,
    kron_chain,
    matrix_from_pairs,
    matrix_to_pairs,
    normalized_partial_trace,
    normalized_trace,
    partial_trace_positions,
    permute_sites,
    psd_sqrt,
)
from cayley_qmc.model_ops import PAULI
from cayley_qmc.tree import ROOT, TreeCoord


def crandn(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def test_kron_examples():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(PAULI["Z"], PAULI["Z"]), np.diag([1, -1, -1, 1]))
    xy = kron(PAULI["X"], PAULI["Y"])
    assert xy[0, 3] == -1j  # 1-based entry (1, 4)


def test_normalized_trace_examples():
    assert normalized_trace(np.eye(4)) == 1
    assert normalized_trace(PAULI["Z"]) == 0
    assert normalized_trace(np.diag([3.0, 5.0])) == 4.0


def test_partial_trace_examples():
    triple = kron_chain([np.eye(2)] * 3)
    op = SiteOperator((ROOT, TreeCoord((1,)), TreeCoord((2,))), triple)
    reduced = normalized_partial_trace(op, {ROOT})
    assert reduced.sites == (ROOT,)
    assert np.allclose(reduced.matrix, np.eye(2))

    zx = SiteOperator((ROOT, TreeCoord((1,))), kron(PAULI["Z"], PAULI["X"]))
    assert np.allclose(normalized_partial_trace(zx, {ROOT}).matrix, 0)


def test_partial_trace_factorized(rng):
    a, h = crandn(rng, (2, 2)), crandn(rng, (2, 2))
    got = partial_trace_positions(kron(a, h), keep=[0])
    assert np.allclose(got, a * normalized_trace(h), atol=1e-12)


def test_partial_trace_unknown_site_rejected():
    op = SiteOperator((ROOT,), np.eye(2))
    with pytest.raises(DomainError):
        normalized_partial_trace(op, {TreeCoord((1,))})


def test_partial_trace_composes(rng):
    m = crandn(rng, (8, 8))
    op = SiteOperator((ROOT, TreeCoord((1,)), TreeCoord((2,))), m)
    step = normalized_partial_trace(normalized_partial_trace(op, {ROOT, TreeCoord((1,))}), {ROOT})
    direct = normalized_partial_trace(op, {ROOT})
    assert np.allclose(step.matrix, direct.matrix, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_kron_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = crandn(rng, (2, 2)), crandn(rng, (4, 4))
    assert np.isclose(normalized_trace(kron(a, b)), normalized_trace(a) * normalized_trace(b), atol=1e-12)


def test_permute_sites_swap():
    m = kron(PAULI["X"], PAULI["Z"])
    assert np.allclose(permute_sites(m, [1, 0]), kron(PAULI["Z"], PAULI["X"]))


def test_embed_noncontiguous():
    k = kron(PAULI["Z"], PAULI["X"])
    want = kron_chain([PAULI["Z"], np.eye(2), PAULI["X"]])
    assert np.allclose(embed_operator(k, [0, 2], 3), want)


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


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    xi0, xi3 = 0.26, 0.11
    got = psd_sqrt(xi0 * np.eye(2) + xi3 * PAULI["Z"])
    assert np.allclose(got, np.diag([math.sqrt(xi0 + xi3), math.sqrt(xi0 - xi3)]), atol=1e-14)


def test_psd_sqrt_squares_back(rng):
    m = crandn(rng, (4, 4))
    a = m @ dagger(m)
    root = psd_sqrt(a)
    assert np.linalg.norm(root @ root - a) < 1e-10
    # large matrices (omega0 grows like e^{4 J0 beta}) are held to a relative residual
    for scale in (1e8, 1e260):
        root = psd_sqrt(scale * a) / math.sqrt(scale)
        assert np.linalg.norm(root @ root - a) < 1e-10 * np.linalg.norm(a)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_matrix_pair_roundtrip(rng):
    m = crandn(rng, (2, 2))
    assert np.allclose(matrix_from_pairs(matrix_to_pairs(m)), m)
