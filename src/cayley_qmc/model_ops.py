"""Interaction operators of the Ising model with competing XY couplings.

Builds the nearest-neighbour Ising bond K, the one-level XY bond L between
sibling vertices, the per-vertex operator A on (parent, child 1, child 2),
and the transfer coefficients (C1, C2, C3) governing the diagonal boundary
recursion.  Every closed form has an independent exponential / partial-trace
oracle next to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormOverflowError, DomainError, ModelInconsistencyError
from .linalg import LOG_MAX, dagger, herm_exp, kron

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

EXTRACTION_TOL = 1e-10


def pauli(axis: str) -> np.ndarray:
    """The standard 2x2 Pauli matrix (or identity) for axis in {I, X, Y, Z}."""
    try:
        return PAULI[axis.upper()].copy()
    except KeyError:
        raise DomainError(f"unknown Pauli axis {axis!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Finite couplings and inverse temperature: Ising j0, XY j, beta > 0, with 4*j0*beta and 2*j*beta finite."""

    j0: float
    j: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("j0", "j", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        # every closed form and bond exponentiates these two products
        for name, product in (("4*j0*beta", 4 * self.j0 * self.beta), ("2*j*beta", 2 * self.j * self.beta)):
            if not math.isfinite(product):
                raise DomainError(f"{name} = {product} overflows a float (j0={self.j0}, j={self.j}, beta={self.beta})")


@dataclass(frozen=True)
class OperatorCoeffs:
    """Ising bond expansion (k0, k3) and vertex operator expansion (gammas, delta1)."""

    k0: float
    k3: float
    gamma1: float
    gamma2: float
    gamma3: float
    delta1: float


@dataclass(frozen=True)
class TransferCoeffs:
    c1: float
    c2: float
    c3: float


@dataclass(frozen=True)
class XYOnlyCoeffs:
    """The j0 = 0 coefficient trio as displayed (kept verbatim for the report)."""

    r1: float
    r2: float
    r3: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The two bond generators, read-only and shared as the Pauli strings below are:
# the aligned-pair projection (1x1 + sz sz)/2, which is diagonal, and the
# sibling coupling (sx sx + sy sy)/2.
ISING_GENERATOR = _read_only((kron(PAULI["I"], PAULI["I"]) + kron(PAULI["Z"], PAULI["Z"])) / 2)
XY_GENERATOR = _read_only((kron(PAULI["X"], PAULI["X"]) + kron(PAULI["Y"], PAULI["Y"])) / 2)
_ISING_DIAGONAL = _read_only(ISING_GENERATOR.diagonal().real.copy())


def ising_bond(p: ModelParams) -> np.ndarray:
    """K on (parent, child): exp(j0*beta*H), H = ISING_GENERATOR.

    H is diagonal, so K is the entrywise exponential of its diagonal, which
    is exactly what herm_exp returns for it (the tests compare the bytes)
    without an eigendecomposition.  An exponent beyond a float raises
    OverflowError, as math.exp does.
    """
    x = p.j0 * p.beta
    if x > LOG_MAX:
        raise OverflowError("math range error")
    return np.diag(np.exp(x * _ISING_DIAGONAL)).astype(complex)


def xy_bond(p: ModelParams) -> np.ndarray:
    """L on a sibling pair: exp(j*beta*H_xy) via the Hermitian exponential, H_xy = XY_GENERATOR."""
    return herm_exp(p.j * p.beta * XY_GENERATOR)


def operator_coeffs(p: ModelParams) -> OperatorCoeffs:
    """The bond and vertex expansion coefficients.

    Raises OverflowError, as math.exp does, where a coefficient overflows a float.
    """
    x = math.exp(p.j0 * p.beta)
    ch, sh = math.cosh(p.j * p.beta), math.sinh(p.j * p.beta)
    c = OperatorCoeffs(
        k0=(x + 1) / 2,
        k3=(x - 1) / 2,
        gamma1=(x * x + 1 + 2 * x * ch) / 4,
        gamma2=x * sh / 2,
        gamma3=(x * x + 1 - 2 * x * ch) / 4,
        delta1=(x * x - 1) / 4,
    )
    if not all(map(math.isfinite, vars(c).values())):  # each factor is finite, a product of them is not
        raise OverflowError("math range error")
    return c


def ising_bond_closed(p: ModelParams) -> np.ndarray:
    """Closed form k0*1x1 + k3*sz x sz of the Ising bond."""
    c = operator_coeffs(p)
    return c.k0 * kron(PAULI["I"], PAULI["I"]) + c.k3 * kron(PAULI["Z"], PAULI["Z"])


def xy_bond_closed(p: ModelParams) -> np.ndarray:
    """Closed form 1 + sinh(j beta) H + (cosh(j beta) - 1) H^2 of the XY bond."""
    h = XY_GENERATOR
    jb = p.j * p.beta
    return np.eye(4, dtype=complex) + math.sinh(jb) * h + (math.cosh(jb) - 1) * (h @ h)


@functools.lru_cache(maxsize=256)
def vertex_operator(p: ModelParams) -> np.ndarray:
    """The canonical 8x8 vertex operator A = K_{u,(u,1)} K_{u,(u,2)} L_{(u,1),(u,2)}.

    Tensor order is (parent, child 1, child 2); the bond factors are the
    exponentials, multiplied in the stated order.  Cached per (frozen)
    parameter set, so the array is read-only: every caller shares it.
    Raises OverflowError, as math.exp does, where an entry overflows a float
    (each bond is finite, their product is not); a refusal is not cached.
    """
    bond = ising_bond(p)
    eye = PAULI["I"]
    k1 = kron(bond, eye)
    k2 = _swap_middle(k1)
    l12 = kron(eye, xy_bond(p))
    with np.errstate(over="ignore", invalid="ignore"):
        a = k1 @ k2 @ l12
    if not np.isfinite(a).all():
        raise OverflowError("math range error")
    a.setflags(write=False)
    return a


def _swap_middle(a: np.ndarray) -> np.ndarray:
    """Exchange tensor factors 1 and 2 of a 3-site operator."""
    t = a.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 5, 4)
    return np.ascontiguousarray(t.reshape(8, 8))


def _pauli_string(axes: str) -> np.ndarray:
    """The read-only 3-site Pauli string on (parent, child 1, child 2), e.g. "IXX"."""
    a, b, c = (PAULI[axis] for axis in axes)
    return _read_only(kron(kron(a, b), c))


_III, _IXX, _IYY, _IZZ, _ZIZ, _ZZI = map(_pauli_string, ("III", "IXX", "IYY", "IZZ", "ZIZ", "ZZI"))


def vertex_operator_closed(p: ModelParams) -> np.ndarray:
    """Six-term expansion gamma1*III + gamma2*(IXX + IYY) + gamma3*IZZ + delta1*(ZIZ + ZZI)."""
    c = operator_coeffs(p)
    return (
        c.gamma1 * _III
        + c.gamma2 * _IXX
        + c.gamma2 * _IYY
        + c.gamma3 * _IZZ
        + c.delta1 * _ZIZ
        + c.delta1 * _ZZI
    )


def vertex_channel(a_vertex: np.ndarray, root: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Normalized partial trace of A (root x left x right) A* onto the parent site."""
    inner = kron(kron(root, left), right)
    return _trace_children(a_vertex @ inner @ dagger(a_vertex))


def diagonal_channel(a_vertex: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """vertex_channel(a_vertex, 1, diag(left), diag(right)) from the children's diagonals, bit for bit.

    1 x diag(left) x diag(right) is diag(d), d[(p, b, c)] = left[b] * right[c],
    so A diag(d) is A with column k scaled by d[k]: entry (i, k) of the
    literal A @ kron(...) is A[i, k] d[k] plus the terms A[i, m] * 0, which
    are exact zeros, so (A * d) holds the same values (a zero's sign aside)
    without the two Kronecker products and the first 8x8 product.  The
    product with A*, the partial trace and the /4 are vertex_channel's own.
    """
    d = (left[:, None] * right[None, :]).ravel()
    return _trace_children((a_vertex * np.concatenate((d, d))) @ dagger(a_vertex))


def _trace_children(x: np.ndarray) -> np.ndarray:
    """The 8x8 operator x on (parent, child 1, child 2), traced over the children and divided by 4."""
    return np.einsum("abcdbc->ad", x.reshape((2,) * 6)) / 4


def boltzmann_factors(p: ModelParams, what: str, times: float = 1.0) -> tuple[float, float, float]:
    """e^{4 J0 beta}, e^{2 J0 beta} and cosh(2 J beta) at p, for the closed form named what.

    Where one of them, or times e^{2 J0 beta} cosh(2 J beta), overflows a
    float, raises ClosedFormOverflowError, which names what and the point.
    """
    try:
        e4, e2, cosh = math.exp(4 * p.j0 * p.beta), math.exp(2 * p.j0 * p.beta), math.cosh(2 * p.j * p.beta)
    except OverflowError:
        e2 = cosh = math.inf
    if e2 * times * cosh == math.inf:  # a factor overflows, or the product does where each factor does not
        raise ClosedFormOverflowError(f"{what}'s e^(4 j0 beta) or e^(2 j0 beta) cosh(2 j beta) overflows a float at {p}")
    return e4, e2, cosh


@functools.lru_cache(maxsize=256)
def transfer_coeffs(p: ModelParams) -> TransferCoeffs:
    """Closed-form diagonal transfer coefficients (C1, C2, C3).

    Memoized per (frozen) parameter set, as vertex_operator is: a cold point
    reads them in several places.  Raises ClosedFormOverflowError, an
    OverflowError that names the point, where a coefficient overflows a
    float; a refusal is not cached.
    """
    e4, e2, cosh = boltzmann_factors(p, "C1..C3")
    f = e2 * cosh
    return TransferCoeffs(c1=(e4 + 1) / 4 + f / 2, c2=(e4 + 1) / 4 - f / 2, c3=(e4 - 1) / 2)


def _extract_diagonal(mat: np.ndarray, label: str) -> tuple[float, float]:
    (d0, off01), (off10, d1) = mat.tolist()
    off = max(abs(off01), abs(off10))
    imag = max(abs(d0.imag), abs(d1.imag))
    scale = max(1.0, abs(d0), abs(d1))
    if max(off, imag) > EXTRACTION_TOL * scale:
        raise ModelInconsistencyError(f"{label}: non-diagonal response (off-diagonal {off:.3e}, imag {imag:.3e})")
    return d0.real, d1.real


def transfer_coeffs_numeric(p: ModelParams) -> TransferCoeffs:
    """Oracle extraction of (C1, C2, C3) from the vertex channel.

    Probes Phi(h) = Tr_parent(A (1 x h x h) A*) at h = 1 and h = 1 + sz and
    solves Phi(1) = C1*1, Phi(1 + sz) = (C1 + C2)*1 + C3*sz.  Uses the product
    vertex operator, never the closed form.  Both probes are diagonal, so
    diagonal_channel forms A (1 x h x h) A* by scaling A's columns: each
    entry of A (1 x h x h) is the literal product's one term that is not an
    exact 0, so the channel, and the coefficients, keep vertex_channel's
    bits.  A channel that overflows a float raises OverflowError, as
    math.exp does.
    """
    a = vertex_operator(p)
    one = PAULI["I"].diagonal()
    probe = (PAULI["I"] + PAULI["Z"]).diagonal()
    with np.errstate(over="ignore", invalid="ignore"):  # A A* reaches 4 C1 and overflows before C1 does
        phi_eye = diagonal_channel(a, one, one)
        phi_probe = diagonal_channel(a, probe, probe)
    if not (np.isfinite(phi_eye).all() and np.isfinite(phi_probe).all()):
        raise OverflowError("math range error")
    d0, d1 = _extract_diagonal(phi_eye, "Phi(1)")
    if abs(d0 - d1) > EXTRACTION_TOL * max(1.0, abs(d0)):
        raise ModelInconsistencyError(f"Phi(1) is not a multiple of the identity: diag ({d0!r}, {d1!r})")
    c1 = (d0 + d1) / 2
    e0, e1 = _extract_diagonal(phi_probe, "Phi(1+sz)")
    c2 = (e0 + e1) / 2 - c1
    c3 = (e0 - e1) / 2
    return TransferCoeffs(c1=c1, c2=c2, c3=c3)


def xy_only_coeffs(p: ModelParams) -> XYOnlyCoeffs:
    """The displayed (R1, R2, R3) trio of the pure-XY case; requires j0 = 0."""
    if p.j0 != 0:
        raise DomainError(f"XY-only coefficients require j0 = 0, got {p.j0}")
    ch, sh = math.cosh(p.j * p.beta), math.sinh(p.j * p.beta)
    return XYOnlyCoeffs(r1=(ch + 1) / 4, r2=sh / 2, r3=(1 - ch) / 2)
