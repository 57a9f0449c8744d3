import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_qmc.errors import DomainError
from cayley_qmc.linalg import herm_exp, kron, normalized_trace
from cayley_qmc.model_ops import (
    PAULI,
    ModelParams,
    diagonal_channel,
    ising_bond,
    ising_bond_closed,
    operator_coeffs,
    pauli,
    transfer_coeffs,
    transfer_coeffs_numeric,
    vertex_channel,
    vertex_operator,
    vertex_operator_closed,
    xy_bond,
    xy_bond_closed,
    xy_only_coeffs,
)

SMALL_GRID = [
    ModelParams(j0, j, beta)
    for j0 in (-1.0, 0.0, 0.7, 2.0)
    for j in (-1.3, 0.0, 0.5)
    for beta in (0.2, 1.0)
]


def test_pauli_matrices():
    assert np.allclose(pauli("Z"), np.diag([1, -1]))
    assert np.allclose(pauli("Y"), [[0, -1j], [1j, 0]])
    assert np.allclose(pauli("X") @ pauli("X"), np.eye(2))
    with pytest.raises(DomainError):
        pauli("Q")


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    ("j0", "j", "beta", "named"),
    [
        (1e300, 1e-300, 1e300, "4*j0*beta = inf"),
        (-1e300, 1e-300, 1e300, "4*j0*beta = -inf"),
        (-1e300, -2.2250738585072014e-308, 1e300, "4*j0*beta = -inf"),
        (0.5, 1e308, 10.0, "2*j*beta = inf"),
        (0.0, -1e155, 1e155, "2*j*beta = -inf"),
    ],
)
def test_params_refuse_a_product_that_overflows(j0, j, beta, named):
    # each factor is finite; the products every bond and closed form exponentiate are not
    with pytest.raises(DomainError, match=named.replace("*", r"\*")):
        ModelParams(j0, j, beta)


def test_coeff_identities():
    for p in SMALL_GRID:
        c = operator_coeffs(p)
        assert c.k0 + c.k3 == pytest.approx(math.exp(p.j0 * p.beta), rel=1e-14)
        assert c.k0 - c.k3 == pytest.approx(1.0, rel=1e-14)
        # gamma1 - gamma3 collapses to the bare bond weight
        assert c.gamma1 - c.gamma3 == pytest.approx(
            math.exp(p.j0 * p.beta) * math.cosh(p.j * p.beta), rel=1e-13
        )


def test_ising_bond_examples():
    assert np.allclose(ising_bond(ModelParams(0.0, 1.0, 0.3)), np.eye(4))
    p = ModelParams(1.0, 0.0, math.log(2))  # j0*beta = ln 2
    assert np.allclose(ising_bond(p), np.diag([2.0, 1.0, 1.0, 2.0]), atol=1e-13)
    p = ModelParams(1.0, 0.0, 0.7)
    assert np.max(np.abs(ising_bond(p) - ising_bond_closed(p))) < 1e-12


def test_xy_bond_examples():
    assert np.allclose(xy_bond(ModelParams(0.0, 0.0, 1.0)), np.eye(4))
    p = ModelParams(0.0, 1.0, math.log(2))
    got = xy_bond(p)
    assert np.allclose(got[1:3, 1:3], [[1.25, 0.75], [0.75, 1.25]], atol=1e-13)
    p = ModelParams(0.0, -0.9, 1.3)
    assert np.max(np.abs(xy_bond(p) - xy_bond_closed(p))) < 1e-12


def test_bond_closed_forms_match_exponentials():
    for p in SMALL_GRID:
        assert np.max(np.abs(ising_bond(p) - ising_bond_closed(p))) < 1e-12
        assert np.max(np.abs(xy_bond(p) - xy_bond_closed(p))) < 1e-12


def test_vertex_operator_trivial():
    assert np.allclose(vertex_operator(ModelParams(0.0, 0.0, 1.0)), np.eye(8))


def test_vertex_operator_pure_ising_diagonal():
    p = ModelParams(0.8, 0.0, 0.9)
    a = vertex_operator(p)
    assert np.allclose(a, np.diag(np.diagonal(a)))
    assert a[0, 0] == pytest.approx(math.exp(2 * p.j0 * p.beta), rel=1e-13)


def test_vertex_operator_invertible_and_bounded():
    for p in SMALL_GRID:
        if p.j0 < 0:
            continue
        sv = np.linalg.svd(vertex_operator(p), compute_uv=False)
        assert sv[-1] > 0
        assert sv[0] <= math.exp(2 * p.j0 * p.beta + abs(p.j) * p.beta) * (1 + 1e-12)


def test_vertex_operator_is_cached_read_only():
    p = ModelParams(1.0, 0.5, 0.8)
    a = vertex_operator(p)
    assert vertex_operator(ModelParams(1.0, 0.5, 0.8)) is a
    with pytest.raises(ValueError):
        a[0, 0] = 0


@pytest.mark.parametrize("build", [operator_coeffs, vertex_operator_closed, vertex_operator])
def test_operator_builders_refuse_an_overflowing_product_without_a_warning(build):
    # e^{j0 beta} = e^400 is finite, its square is not
    p = ModelParams(400.0, 0.0, 1.0)
    cached = vertex_operator.cache_info().currsize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # a refusal is not cached: it is raised again
            with pytest.raises(OverflowError):
                build(p)
    assert vertex_operator.cache_info().currsize == cached


def test_operator_builders_keep_their_bits_inside_the_range():
    p = ModelParams(1.0, 0.3, 1.2)
    c = operator_coeffs(p)  # recorded before the overflow checks were added
    assert [x.hex() for x in (c.k0, c.k3, c.gamma1, c.gamma2, c.gamma3, c.delta1)] == [
        "0x1.147ccbb0832d2p+1", "0x1.28f99761065a4p+0", "0x1.3192e6c2f14e2p+2",
        "0x1.38a2576a48b10p-1", "0x1.3cabd686ad613p+0", "0x1.40bddc649ca67p+1",
    ]
    eye = PAULI["I"]
    k = kron(ising_bond(p), eye)
    k2 = k.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)  # the bond on (parent, child 2)
    assert vertex_operator(p).tobytes() == (k @ k2 @ kron(eye, xy_bond(p))).tobytes()


def herm_exp_vertex_operator(p):
    """A = K K L with both bonds through herm_exp: the reference for vertex_operator's bytes.

    Returns the Ising bond and A.  vertex_operator builds the Ising bond, whose generator is
    diagonal, as the entrywise exponential; the product is formed the same way.
    """
    eye, x, y, z = (PAULI[a] for a in "IXYZ")
    bond = herm_exp(p.j0 * p.beta * (kron(eye, eye) + kron(z, z)) / 2)
    k = kron(bond, eye)
    k2 = k.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)  # the bond on (parent, child 2)
    return bond, k @ k2 @ kron(eye, herm_exp(p.j * p.beta * (kron(x, x) + kron(y, y)) / 2))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.floats(-3.0, 0.0, exclude_max=True), st.floats(0.0, 2.0)), st.floats(-3.0, 3.0),
       st.floats(0.01, 60.0))
def test_vertex_operator_is_the_herm_exp_product_bit_for_bit(j0, j, beta):
    # J0 < 0 half the time, where the Ising bond's entries fall to e^{-180}
    p = ModelParams(j0, j, beta)
    bond, a = herm_exp_vertex_operator(p)
    assert ising_bond(p).tobytes() == bond.tobytes()
    assert vertex_operator(p).tobytes() == a.tobytes()


def test_closed_expansion_matches_product():
    # the six-term expansion is exact; the suspected commutator terms cancel
    worst = 0.0
    for p in SMALL_GRID:
        diff = vertex_operator(p) - vertex_operator_closed(p)
        worst = max(worst, float(np.max(np.abs(diff))))
        t = diff.reshape((2,) * 6)
        for traced in (np.einsum("abcdec->abde", t) / 2, np.einsum("abcdbe->acde", t) / 2):  # keep (0, 1), (0, 2)
            assert np.max(np.abs(traced)) < 1e-12
    assert worst < 1e-10, f"recorded deviation {worst:.3e}"


@settings(max_examples=50, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.01, 6.0))
def test_closed_expansion_is_the_kron_built_sum_bit_for_bit(j0, j, beta):
    p = ModelParams(j0, j, beta)
    c = operator_coeffs(p)
    i, x, y, z = (PAULI[axis] for axis in "IXYZ")
    want = (
        c.gamma1 * kron(kron(i, i), i)
        + c.gamma2 * kron(kron(i, x), x)
        + c.gamma2 * kron(kron(i, y), y)
        + c.gamma3 * kron(kron(i, z), z)
        + c.delta1 * kron(kron(z, i), z)
        + c.delta1 * kron(kron(z, z), i)
    )
    assert vertex_operator_closed(p).tobytes() == want.tobytes()


def test_transfer_coeffs_examples():
    p = ModelParams(1.2, 0.0, 0.6)
    c = transfer_coeffs(p)
    half = (math.exp(2 * p.j0 * p.beta) + 1) / 2
    assert c.c1 == pytest.approx(half**2, rel=1e-14)
    assert c.c2 == pytest.approx(((math.exp(2 * p.j0 * p.beta) - 1) / 2) ** 2, rel=1e-14)
    assert transfer_coeffs(ModelParams(0.0, 0.9, 1.0)).c3 == 0.0


def test_transfer_coeffs_invariants():
    for p in SMALL_GRID:
        c = transfer_coeffs(p)
        assert c.c1 >= c.c2
        scale = max(1.0, abs(c.c1) + abs(c.c2))
        assert abs((c.c1 + c.c2) - (math.exp(4 * p.j0 * p.beta) + 1) / 2) < 1e-13 * scale
        assert abs((c.c1 - c.c2) - math.exp(2 * p.j0 * p.beta) * math.cosh(2 * p.j * p.beta)) < 1e-13 * scale
        if p.j0 > 0:
            assert c.c1 > 0 and c.c3 > 0


def test_transfer_numeric_trivial_point():
    c = transfer_coeffs_numeric(ModelParams(0.0, 0.0, 1.0))
    assert (c.c1, c.c2, c.c3) == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)


def test_transfer_numeric_matches_closed():
    for p in SMALL_GRID:
        ct, cn = transfer_coeffs(p), transfer_coeffs_numeric(p)
        scale = max(1.0, abs(ct.c1) + abs(ct.c2) + abs(ct.c3))
        assert abs(ct.c1 - cn.c1) < 1e-12 * scale
        assert abs(ct.c2 - cn.c2) < 1e-12 * scale
        assert abs(ct.c3 - cn.c3) < 1e-12 * scale


def test_channel_identity_response_is_scalar():
    for p in SMALL_GRID:
        a = vertex_operator(p)
        phi = vertex_channel(a, PAULI["I"], PAULI["I"], PAULI["I"])
        assert abs(phi[0, 1]) < 1e-12 * max(1.0, abs(phi[0, 0]))
        assert abs(phi[0, 0] - phi[1, 1]) < 1e-12 * max(1.0, abs(phi[0, 0]))


def test_channel_symmetric_in_the_two_children():
    p = ModelParams(0.9, 0.7, 0.8)
    a = vertex_operator(p)
    h1 = np.diag([0.3, 1.1]).astype(complex)
    h2 = np.diag([0.8, 0.2]).astype(complex)
    left = vertex_channel(a, PAULI["I"], h1, h2)
    right = vertex_channel(a, PAULI["I"], h2, h1)
    assert np.max(np.abs(left - right)) < 1e-12


entry = st.complex_numbers(max_magnitude=1e200, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 80.0), st.lists(entry, min_size=4, max_size=4))
def test_diagonal_channel_is_the_literal_channel_bit_for_bit(j0, j, beta, entries):
    # column scaling forms A (1 x diag(l) x diag(r)) without the Kronecker products; every output
    # bit, a zero's sign and an overflow's inf or nan included, is vertex_channel's
    a = vertex_operator(ModelParams(j0, j, beta))
    left, right = np.array(entries[:2]), np.array(entries[2:])
    with np.errstate(all="ignore"):
        want = vertex_channel(a, PAULI["I"], np.diag(left), np.diag(right))
        got = diagonal_channel(a, left, right)
    assert got.tobytes() == want.tobytes()


def test_xy_only_coeffs():
    r = xy_only_coeffs(ModelParams(0.0, 0.0, 1.0))
    assert (r.r1, r.r2, r.r3) == pytest.approx((0.5, 0.0, 0.0), abs=1e-15)
    r = xy_only_coeffs(ModelParams(0.0, 1.0, math.log(2)))
    assert (r.r1, r.r2, r.r3) == pytest.approx((9 / 16, 3 / 8, -1 / 8), rel=1e-14)
    for j in (0.3, 1.7, -2.1):
        r = xy_only_coeffs(ModelParams(0.0, j, 0.9))
        assert r.r1 + r.r3 / 2 == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        xy_only_coeffs(ModelParams(0.5, 1.0, 1.0))


def test_channel_consistency_with_normalized_trace():
    # factorized inputs reduce to plain traces when the coupling vanishes
    p = ModelParams(0.0, 0.0, 0.4)
    a = vertex_operator(p)
    b1 = np.diag([0.4, 1.6]).astype(complex)
    b2 = np.diag([2.0, 0.0]).astype(complex)
    got = vertex_channel(a, PAULI["Z"], b1, b2)
    want = PAULI["Z"] * normalized_trace(b1) * normalized_trace(b2)
    assert np.max(np.abs(got - want)) < 1e-14
