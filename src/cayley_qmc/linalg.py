"""Dense complex kernel with the normalized trace conventions.

All traces are normalized: the identity has trace 1.  Single-site dimension
is 2; a multi-site operator is a Kronecker chain over its sites in the ball
order of `tree.ball_vertices` (first site = leftmost factor).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, ModelInconsistencyError

HERMITICITY_TOL = 1e-12
PSD_EIGENVALUE_TOL = 1e-12
SQRT_RESIDUAL_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, with complex promotion.

    One broadcast multiply and a reshape: the products np.kron forms, in the
    same multiply, without its per-call shape handling.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = kron(out, m)
    return out


def normalized_trace(a: np.ndarray) -> complex:
    """Trace divided by dimension, so normalized_trace(identity) = 1."""
    a = np.asarray(a)
    return complex(np.trace(a)) / a.shape[0]


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


def _require_psd_eigenvalues(w: np.ndarray) -> None:
    if np.min(w) < -PSD_EIGENVALUE_TOL:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {np.min(w):.3e}")


def require_psd(a: np.ndarray) -> np.ndarray:
    """The matrix as complex, refused (DomainError) unless Hermitian and PSD as psd_sqrt requires."""
    a = _require_hermitian(a)
    _require_psd_eigenvalues(np.linalg.eigvalsh(a))
    return a


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """The unique PSD square root of a PSD matrix.

    Eigenvalues in [-1e-12, 0) are clamped to zero; anything more negative is
    a domain error.  The residual |R^2 - a| must stay within 1e-10 max(1, |a|),
    so a large matrix is held to a relative bound and an O(1) one to the
    absolute one.  It is computed on a / max|a_ij|, whose norm cannot overflow.
    """
    a = _require_hermitian(a)
    w, v = np.linalg.eigh(a)
    _require_psd_eigenvalues(w)
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


def is_real_number(x) -> bool:
    """True for an int or a float, as JSON writes a real number; bool is refused."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def complex_from_pair(pair, what: str) -> complex:
    """The complex number of an [re, im] pair of real numbers, as the JSON interfaces write one."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(is_real_number, pair)):
        raise DomainError(f"{what} must be an [re, im] pair of real numbers, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError as exc:  # an integer literal beyond the largest double
        raise DomainError(f"{what} does not fit a float ({exc})") from None


def matrix_from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    """A square matrix from its entries as a row-major list of [re, im] pairs."""
    if not isinstance(pairs, (list, tuple)):
        raise DomainError(f"a matrix must be a list of [re, im] pairs, got {pairs!r}")
    flat = np.array([complex_from_pair(p, "a matrix entry") for p in pairs], dtype=complex)
    dim = int(round(np.sqrt(flat.size)))
    if dim * dim != flat.size:
        raise DomainError(f"pair list of length {flat.size} is not a square matrix")
    return flat.reshape(dim, dim)
