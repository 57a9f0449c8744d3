"""Dense complex kernel with the normalized trace conventions.

All traces are normalized: the identity has trace 1, and partial traces map
the identity to the identity (standard partial trace divided by the dimension
of the traced factors).  Single-site dimension is 2; multi-site operators are
Kronecker chains whose factor order follows the canonical volume order of
`tree.canonical_key` (first site = leftmost factor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ModelInconsistencyError
from .tree import TreeCoord, canonical_key

HERMITICITY_TOL = 1e-12
PSD_EIGENVALUE_TOL = 1e-12
SQRT_RESIDUAL_TOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex promotion."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def normalized_trace(a: np.ndarray) -> complex:
    """Trace divided by dimension, so normalized_trace(identity) = 1."""
    a = np.asarray(a)
    return complex(np.trace(a)) / a.shape[0]


def _n_sites(matrix: np.ndarray) -> int:
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or 2**n != dim:
        raise DomainError(f"expected a square matrix of dimension 2^m, got shape {matrix.shape}")
    return n


def permute_sites(matrix: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: input factor p moves to output slot order[p]."""
    n = _n_sites(matrix)
    if sorted(order) != list(range(n)):
        raise DomainError(f"order must be a permutation of 0..{n - 1}, got {order}")
    inverse = [0] * n
    for p, q in enumerate(order):
        inverse[q] = p
    axes = inverse + [n + p for p in inverse]
    t = matrix.reshape((2,) * (2 * n)).transpose(axes)
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def embed_operator(matrix: np.ndarray, slots: Sequence[int], n_sites: int) -> np.ndarray:
    """Embed an m-site operator at the given slots of an n-site register.

    `slots[p]` is the register slot receiving factor p of `matrix`; all other
    slots carry the identity.
    """
    m = _n_sites(np.asarray(matrix))
    if len(slots) != m or len(set(slots)) != m:
        raise DomainError(f"need {m} distinct slots, got {slots}")
    if any(s < 0 or s >= n_sites for s in slots):
        raise DomainError(f"slots {slots} outside register of {n_sites} sites")
    full = kron(matrix, np.eye(2 ** (n_sites - m)))
    rest = [s for s in range(n_sites) if s not in slots]
    return permute_sites(full, list(slots) + rest)


def partial_trace_positions(matrix: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Normalized partial trace keeping the given slots (original order)."""
    n = _n_sites(np.asarray(matrix))
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep) or any(p < 0 or p >= n for p in keep):
        raise DomainError(f"keep positions {keep} invalid for {n} sites")
    traced = [p for p in range(n) if p not in keep]
    row = list(_LETTERS[:n])
    col = row.copy()
    out_row, out_col = [], []
    nxt = n
    for p in keep:
        col[p] = _LETTERS[nxt]
        nxt += 1
        out_row.append(row[p])
        out_col.append(col[p])
    spec = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    t = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * n))
    reduced = np.einsum(spec, t).reshape(2 ** len(keep), 2 ** len(keep))
    return reduced / 2 ** len(traced)


@dataclass(frozen=True)
class SiteOperator:
    """A dense operator together with the ordered sites it acts on.

    Factor order always matches the canonical volume order.
    """

    sites: tuple[TreeCoord, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.sites)) != len(self.sites):
            raise DomainError("sites must be distinct")
        if _n_sites(self.matrix) != len(self.sites):
            raise DomainError("matrix dimension does not match the site count")


def normalized_partial_trace(a: SiteOperator, keep: Iterable[TreeCoord]) -> SiteOperator:
    """Normalized partial trace over sites(a) \\ keep; maps identity to identity."""
    keep = set(keep)
    unknown = keep - set(a.sites)
    if unknown:
        raise DomainError(f"keep contains sites outside the operator support: {sorted(unknown, key=canonical_key)}")
    positions = [p for p, s in enumerate(a.sites) if s in keep]
    reduced = partial_trace_positions(a.matrix, positions)
    return SiteOperator(tuple(s for s in a.sites if s in keep), reduced)


def _require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    dev = np.max(np.abs(a - dagger(a))) if a.size else 0.0
    if dev > tol:
        raise DomainError(f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return a


def herm_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via unitary eigendecomposition."""
    a = _require_hermitian(a)
    w, v = np.linalg.eigh(a)
    out = (v * np.exp(w)) @ dagger(v)
    return (out + dagger(out)) / 2


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """The unique PSD square root of a PSD matrix.

    Eigenvalues in [-1e-12, 0) are clamped to zero; anything more negative is
    a domain error.  The residual |R^2 - a| must stay within 1e-10 max(1, |a|),
    so a large matrix is held to a relative bound and an O(1) one to the
    absolute one.  It is computed on a / max|a_ij|, whose norm cannot overflow.
    """
    a = _require_hermitian(a)
    w, v = np.linalg.eigh(a)
    if np.min(w) < -PSD_EIGENVALUE_TOL:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {np.min(w):.3e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    root = (root + dagger(root)) / 2
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale > 0:
        unit = a / scale
        unit_root = root / np.sqrt(scale)
        residual = float(np.linalg.norm(unit_root @ unit_root - unit))  # |R^2 - a| / scale
        # residual <= tol max(1/scale, |a|/scale), without dividing by a tiny scale
        if not (residual * scale <= SQRT_RESIDUAL_TOL or residual <= SQRT_RESIDUAL_TOL * np.linalg.norm(unit)):
            raise ModelInconsistencyError(
                f"square-root residual {residual:.3e} relative to max|a_ij| = {scale:.3e} "
                f"exceeds {SQRT_RESIDUAL_TOL:g} max(1, |a|)"
            )
    return root


def matrix_to_pairs(a: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pair encoding used by the JSON interfaces."""
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    flat = np.array([complex(p[0], p[1]) for p in pairs])
    dim = int(round(np.sqrt(flat.size)))
    if dim * dim != flat.size:
        raise DomainError(f"pair list of length {flat.size} is not a square matrix")
    return flat.reshape(dim, dim)
