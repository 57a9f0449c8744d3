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

from .errors import DomainError, ModelInconsistencyError
from .linalg import dagger, herm_exp, kron, partial_trace_positions

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
    """Finite couplings and inverse temperature: Ising j0, XY j, beta > 0, tree order k."""

    j0: float
    j: float
    beta: float
    k: int = 2

    def __post_init__(self) -> None:
        for name in ("j0", "j", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.k < 1:
            raise DomainError(f"tree order must be >= 1, got {self.k}")

    @property
    def theta(self) -> float:
        return math.exp(2 * self.beta)


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


def ising_generator() -> np.ndarray:
    """The aligned-pair projection (1x1 + sz sz)/2 on a bond."""
    return (kron(PAULI["I"], PAULI["I"]) + kron(PAULI["Z"], PAULI["Z"])) / 2


def xy_generator() -> np.ndarray:
    """The sibling coupling (sx sx + sy sy)/2."""
    return (kron(PAULI["X"], PAULI["X"]) + kron(PAULI["Y"], PAULI["Y"])) / 2


def ising_bond(p: ModelParams) -> np.ndarray:
    """K on (parent, child): exp(j0*beta*H) via the Hermitian exponential."""
    return herm_exp(p.j0 * p.beta * ising_generator())


def xy_bond(p: ModelParams) -> np.ndarray:
    """L on a sibling pair: exp(j*beta*H_xy)."""
    return herm_exp(p.j * p.beta * xy_generator())


def operator_coeffs(p: ModelParams) -> OperatorCoeffs:
    x = math.exp(p.j0 * p.beta)
    ch, sh = math.cosh(p.j * p.beta), math.sinh(p.j * p.beta)
    return OperatorCoeffs(
        k0=(x + 1) / 2,
        k3=(x - 1) / 2,
        gamma1=(x * x + 1 + 2 * x * ch) / 4,
        gamma2=x * sh / 2,
        gamma3=(x * x + 1 - 2 * x * ch) / 4,
        delta1=(x * x - 1) / 4,
    )


def ising_bond_closed(p: ModelParams) -> np.ndarray:
    """Closed form k0*1x1 + k3*sz x sz of the Ising bond."""
    c = operator_coeffs(p)
    return c.k0 * kron(PAULI["I"], PAULI["I"]) + c.k3 * kron(PAULI["Z"], PAULI["Z"])


def xy_bond_closed(p: ModelParams) -> np.ndarray:
    """Closed form 1 + sinh(j beta) H + (cosh(j beta) - 1) H^2 of the XY bond."""
    h = xy_generator()
    jb = p.j * p.beta
    return np.eye(4, dtype=complex) + math.sinh(jb) * h + (math.cosh(jb) - 1) * (h @ h)


def _require_order_two(p: ModelParams) -> None:
    if p.k != 2:
        raise DomainError(f"model operators are defined for tree order 2, got k={p.k}")


@functools.lru_cache(maxsize=256)
def vertex_operator(p: ModelParams) -> np.ndarray:
    """The canonical 8x8 vertex operator A = K_{u,(u,1)} K_{u,(u,2)} L_{(u,1),(u,2)}.

    Tensor order is (parent, child 1, child 2); the bond factors are the
    exponentials, multiplied in the stated order.  Cached per (frozen)
    parameter set, so the array is read-only: every caller shares it.
    """
    _require_order_two(p)
    bond = ising_bond(p)
    eye = PAULI["I"]
    k1 = kron(bond, eye)
    k2 = _swap_middle(kron(bond, eye))
    l12 = kron(eye, xy_bond(p))
    a = k1 @ k2 @ l12
    a.setflags(write=False)
    return a


def _swap_middle(a: np.ndarray) -> np.ndarray:
    """Exchange tensor factors 1 and 2 of a 3-site operator."""
    t = a.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 5, 4)
    return np.ascontiguousarray(t.reshape(8, 8))


def vertex_operator_closed(p: ModelParams) -> np.ndarray:
    """Six-term expansion gamma1*III + gamma2*(IXX + IYY) + gamma3*IZZ + delta1*(ZIZ + ZZI)."""
    c = operator_coeffs(p)
    i, x, y, z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
    return (
        c.gamma1 * kron(kron(i, i), i)
        + c.gamma2 * kron(kron(i, x), x)
        + c.gamma2 * kron(kron(i, y), y)
        + c.gamma3 * kron(kron(i, z), z)
        + c.delta1 * kron(kron(z, i), z)
        + c.delta1 * kron(kron(z, z), i)
    )


def vertex_channel(a_vertex: np.ndarray, root: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Normalized partial trace of A (root x left x right) A* onto the parent site."""
    inner = kron(kron(root, left), right)
    return partial_trace_positions(a_vertex @ inner @ dagger(a_vertex), keep=[0])


def transfer_coeffs(p: ModelParams) -> TransferCoeffs:
    """Closed-form diagonal transfer coefficients (C1, C2, C3)."""
    e4 = math.exp(4 * p.j0 * p.beta)
    f = math.exp(2 * p.j0 * p.beta) * math.cosh(2 * p.j * p.beta)
    return TransferCoeffs(c1=(e4 + 1) / 4 + f / 2, c2=(e4 + 1) / 4 - f / 2, c3=(e4 - 1) / 2)


def _extract_diagonal(mat: np.ndarray, label: str) -> tuple[float, float]:
    off = max(abs(mat[0, 1]), abs(mat[1, 0]))
    imag = max(abs(mat[0, 0].imag), abs(mat[1, 1].imag))
    scale = max(1.0, abs(mat[0, 0]), abs(mat[1, 1]))
    if max(off, imag) > EXTRACTION_TOL * scale:
        raise ModelInconsistencyError(f"{label}: non-diagonal response (off-diagonal {off:.3e}, imag {imag:.3e})")
    return float(mat[0, 0].real), float(mat[1, 1].real)


def transfer_coeffs_numeric(p: ModelParams) -> TransferCoeffs:
    """Oracle extraction of (C1, C2, C3) from the vertex channel.

    Probes Phi(h) = Tr_parent(A (1 x h x h) A*) at h = 1 and h = 1 + sz and
    solves Phi(1) = C1*1, Phi(1 + sz) = (C1 + C2)*1 + C3*sz.  Uses the product
    vertex operator, never the closed form.
    """
    a = vertex_operator(p)
    eye = PAULI["I"]
    phi_eye = vertex_channel(a, eye, eye, eye)
    d0, d1 = _extract_diagonal(phi_eye, "Phi(1)")
    if abs(d0 - d1) > EXTRACTION_TOL * max(1.0, abs(d0)):
        raise ModelInconsistencyError(f"Phi(1) is not a multiple of the identity: diag ({d0!r}, {d1!r})")
    c1 = (d0 + d1) / 2
    probe = eye + PAULI["Z"]
    phi_probe = vertex_channel(a, eye, probe, probe)
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
