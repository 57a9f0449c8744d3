"""Translation-invariant diagonal solutions of the boundary equations.

Solves the fixed-point system for the per-site boundary matrix h and the root
weight omega0, classifies the parameter region through the discriminant
Delta(theta), and covers the pure-XY special case j0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    ModelInconsistencyError,
    SingularParameterError,
    SolutionNotPositiveError,
)
from .linalg import normalized_trace
from .model_ops import PAULI, ModelParams, transfer_coeffs, vertex_channel, vertex_operator, xy_only_coeffs

RESIDUAL_TOL = 1e-10
BOUNDARY_TOL = 1e-12
SINGULAR_TOL = 1e-14
# The closed-form region cross-check is skipped closer to the boundary than this.
REGION_GUARD = 1e-9


class Branch(str, Enum):
    DISORDERED = "disordered"
    ORDERED_PLUS = "plus"
    ORDERED_MINUS = "minus"
    XY_ONLY = "xy"


class Classification(str, Enum):
    UNIQUE = "Unique"
    PHASE_TRANSITION = "PhaseTransition"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class PhaseRegion:
    delta: float
    classification: Classification


@dataclass(frozen=True)
class BoundarySolution:
    """A solved pair (omega0, h) with its fixed-point residual.

    xi0/xi3 are set on the ordered branches, alpha on the uniform ones.
    """

    branch: Branch
    h: np.ndarray
    omega0: np.ndarray
    residual: float
    xi0: float | None = None
    xi3: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class XYAlphaReport:
    """Oracle vs displayed value of 1/alpha in the pure-XY case."""

    oracle_inverse_alpha: float
    displayed_inverse_alpha: float
    abs_gap: float
    matches: bool


def _denominator(p: ModelParams) -> float:
    # theta^{2J0} - theta^{J0}(theta^J + theta^{-J}) + 1, with theta = e^{2 beta};
    # cosh keeps the expression exactly even in J.
    b = p.beta
    return math.exp(4 * p.j0 * b) - math.exp(2 * p.j0 * b) * 2 * math.cosh(2 * p.j * b) + 1


def delta_theta(p: ModelParams) -> float:
    """The discriminant Delta(theta) whose sign separates the phase regions."""
    if p.j == p.j0 or p.j == -p.j0:
        raise SingularParameterError(f"J = +-J0 is excluded (j={p.j}, j0={p.j0})")
    den = _denominator(p)
    if abs(den) < SINGULAR_TOL:
        raise SingularParameterError(f"singular parameters: denominator {den:.3e} vanishes near J = +-J0")
    return (den - 4) / den


def dd_threshold(j: float, beta: float) -> float:
    """Coupling threshold of the inner region |J| < J0.

    Derived from theta^{J0} > cosh(2J beta) + sqrt(cosh^2(2J beta) + 3); the
    J = 0 boundary theta^{J0} = 3 pins the cosh form.
    """
    c = math.cosh(2 * j * beta)
    return math.log(c + math.sqrt(c * c + 3)) / (2 * beta)


def phase_region(p: ModelParams) -> PhaseRegion:
    """Classify by the sign of Delta and cross-check the closed-form region."""
    delta = delta_theta(p)
    if abs(delta) <= BOUNDARY_TOL:
        return PhaseRegion(delta, Classification.BOUNDARY)
    cls = Classification.PHASE_TRANSITION if delta > 0 else Classification.UNIQUE
    if abs(delta) > REGION_GUARD:
        if p.j * p.j > p.j0 * p.j0:
            expected = Classification.PHASE_TRANSITION
        else:
            above = p.j0 > dd_threshold(p.j, p.beta)
            expected = Classification.PHASE_TRANSITION if above else Classification.UNIQUE
        if expected is not cls:
            raise ModelInconsistencyError(
                f"region check failed at {p}: delta={delta!r} vs closed-form {expected.value}"
            )
    return PhaseRegion(delta, cls)


def fixed_point_residual(p: ModelParams, h: np.ndarray) -> float:
    """Frobenius norm of Phi(h) - h under the numeric vertex channel."""
    a = vertex_operator(p)
    return float(np.linalg.norm(vertex_channel(a, PAULI["I"], h, h) - h))


def _solution(p: ModelParams, branch: Branch, h: np.ndarray, omega0: np.ndarray, **fields) -> BoundarySolution:
    residual = fixed_point_residual(p, h)
    if residual > RESIDUAL_TOL:
        raise ModelInconsistencyError(f"{branch.value} branch residual {residual:.3e} exceeds {RESIDUAL_TOL:g}")
    eq1 = abs(normalized_trace(omega0 @ h) - 1)
    if eq1 > 1e-14:
        raise ModelInconsistencyError(f"{branch.value} branch violates the normalization: |Tr(w0 h)-1| = {eq1:.3e}")
    return BoundarySolution(branch=branch, h=h, omega0=omega0, residual=residual, **fields)


def solve_disordered(p: ModelParams) -> BoundarySolution:
    """The uniform solution h = (1/C1) * 1, omega0 = C1 * 1."""
    c = transfer_coeffs(p)
    alpha = 1 / c.c1
    eye = np.eye(2, dtype=complex)
    return _solution(p, Branch.DISORDERED, alpha * eye, (1 / alpha) * eye, alpha=alpha)


def ordered_xi(p: ModelParams) -> tuple[float, float]:
    """The ordered constants xi0 = 1/C3 and xi3 = sqrt(Delta)/C3, by arithmetic alone.

    Refuses Delta <= 0 (no ordered phase) and C3 <= 0 (j0 <= 0) with a
    DomainError, and an indefinite pair (xi3 > xi0, the |J| > J0 regime) with
    SolutionNotPositiveError.  Builds no operator; solve_ordered checks the
    resulting states numerically.
    """
    delta = delta_theta(p)
    if delta <= 0:
        raise DomainError(f"no ordered phase: Delta(theta) = {delta!r} <= 0 at {p}")
    c = transfer_coeffs(p)
    if c.c3 <= 0:
        raise DomainError(
            f"ordered solutions need j0 > 0 (C3 = {c.c3!r}); at j0 = 0 only the XY-only branch exists"
        )
    xi0 = 1 / c.c3
    xi3 = math.sqrt(delta) / c.c3
    if xi3 > xi0:
        raise SolutionNotPositiveError(
            f"Delta = {delta!r} > 1: formal solutions xi0 +- xi3 sz are indefinite (|J| > J0 regime)"
        )
    return xi0, xi3


def solve_ordered(p: ModelParams) -> tuple[BoundarySolution, BoundarySolution] | None:
    """The pair (h, h') = xi0*1 +- xi3*sz, present exactly when Delta > 0."""
    if delta_theta(p) <= 0:
        return None
    xi0, xi3 = ordered_xi(p)
    eye, sz = np.eye(2, dtype=complex), PAULI["Z"]
    omega0 = (1 / xi0) * eye
    plus = _solution(p, Branch.ORDERED_PLUS, xi0 * eye + xi3 * sz, omega0, xi0=xi0, xi3=xi3)
    minus = _solution(p, Branch.ORDERED_MINUS, xi0 * eye - xi3 * sz, omega0, xi0=xi0, xi3=xi3)
    return plus, minus


def _xy_scalar(p: ModelParams) -> float:
    """Extract c from Phi(1) = c * 1 for the pure-XY vertex operator."""
    a = vertex_operator(p)
    eye = PAULI["I"]
    phi = vertex_channel(a, eye, eye, eye)
    off = max(abs(phi[0, 1]), abs(phi[1, 0]), abs(phi[0, 0] - phi[1, 1]))
    if off > 1e-10 * max(1.0, abs(phi[0, 0])):
        raise ModelInconsistencyError(f"Phi(1) is not a multiple of the identity (deviation {off:.3e})")
    return float(phi[0, 0].real)


def solve_xy_only(p: ModelParams) -> BoundarySolution:
    """The unique diagonal solution at j0 = 0, from the numeric Phi(1) oracle."""
    if p.j0 != 0:
        raise DomainError(f"XY-only branch requires j0 = 0, got {p.j0}")
    alpha = 1 / _xy_scalar(p)
    eye = np.eye(2, dtype=complex)
    return _solution(p, Branch.XY_ONLY, alpha * eye, (1 / alpha) * eye, alpha=alpha)


def xy_alpha_report(p: ModelParams) -> XYAlphaReport:
    """Compare the displayed 1/alpha = R1 + 2 R1^2 + R3^2 against the oracle."""
    r = xy_only_coeffs(p)
    displayed = r.r1 + 2 * r.r1**2 + r.r3**2
    oracle = _xy_scalar(p)
    gap = abs(displayed - oracle)
    return XYAlphaReport(
        oracle_inverse_alpha=oracle,
        displayed_inverse_alpha=displayed,
        abs_gap=gap,
        matches=gap <= 1e-10 * max(1.0, abs(oracle)),
    )


def solve_branch(p: ModelParams, branch: Branch) -> BoundarySolution:
    if branch is Branch.DISORDERED:
        return solve_disordered(p)
    if branch is Branch.XY_ONLY:
        return solve_xy_only(p)
    pair = solve_ordered(p)
    if pair is None:
        raise DomainError(f"no ordered solutions: Delta(theta) <= 0 at {p}")
    return pair[0] if branch is Branch.ORDERED_PLUS else pair[1]


def solve_all(p: ModelParams) -> list[BoundarySolution]:
    """Every translation-invariant diagonal solution at the given parameters.

    Propagates SolutionNotPositiveError from the |J| > J0 ordered regime.
    """
    if p.j0 == 0:
        return [solve_xy_only(p)]
    out = [solve_disordered(p)]
    pair = solve_ordered(p)
    if pair is not None:
        out.extend(pair)
    return out
