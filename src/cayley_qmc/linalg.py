"""Dense complex kernel: dagger, kron, normalized_trace, herm_exp.

All traces are normalized: the identity has trace 1.  Single-site dimension
is 2; a multi-site operator is a Kronecker chain over its sites in the ball
order of `tree.ball_vertices` (first site = leftmost factor).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError

HERMITICITY_TOL = 1e-12
LOG_MAX = math.log(sys.float_info.max)  # the largest x whose exp is a finite double


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


def normalized_trace(a: np.ndarray) -> complex:
    """Trace divided by dimension, so normalized_trace(identity) = 1."""
    a = np.asarray(a)
    return complex(np.trace(a)) / a.shape[0]


def _require_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise DomainError(f"matrix is not Hermitian within {HERMITICITY_TOL:g} (deviation {dev:.3e})")
    return a


def herm_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via unitary eigendecomposition.

    An eigenvalue whose exponential overflows a float raises OverflowError, as math.exp does.
    """
    a = _require_hermitian(a)
    w, v = np.linalg.eigh(a)
    if w.size and w[-1] > LOG_MAX:  # eigh sorts w ascending
        raise OverflowError("math range error")
    out = (v * np.exp(w)) @ dagger(v)
    return (out + dagger(out)) / 2
