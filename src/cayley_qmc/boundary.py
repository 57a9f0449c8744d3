"""Translation-invariant diagonal solutions of the boundary equations.

Solves the fixed-point system for the per-site boundary matrix h and the root
weight omega0, classifies the parameter region through the discriminant
Delta(theta), and covers the pure-XY special case j0 = 0.

solve_branch is the one solver: it builds and checks (fixed-point residual
and normalization) each branch's solution once per process and parameter
set, then shares it, so every call for that (params, branch), solve_ordered's
included, returns the same BoundarySolution and its h and omega0 are
read-only.  Refusals are not cached; each call raises them again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    ModelInconsistencyError,
    SingularParameterError,
    SolutionNotPositiveError,
    ThresholdOverflowError,
)
from .model_ops import (
    PAULI,
    ModelParams,
    TransferCoeffs,
    transfer_coeffs,
    transfer_coeffs_numeric,
    vertex_channel,
    vertex_operator,
    xy_only_coeffs,
)

RESIDUAL_TOL = 1e-10
BOUNDARY_TOL = 1e-12
# |den| below SINGULAR_TOL max(1, e^{4 J0 beta}) is rounding: den's error scales with e^{4 J0 beta}.
SINGULAR_TOL = 1e-14
# The closed-form region cross-check is skipped closer to the boundary than this.
REGION_GUARD = 1e-9


class Branch(Enum):
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

    Every solution is diagonal: h = alpha*1 and omega0 = (1/alpha)*1 on the
    uniform branches (alpha set), h = xi0*1 + ordered_sign(branch)*xi3*sz and
    omega0 = (1/xi0)*1 on the ordered ones (xi0 and xi3 > 0 set).  Solutions
    are per-process and shared between callers (see the module docstring), so
    h and omega0 are read-only arrays.
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


def _denominator(e4, e2, cosh):
    # theta^{2J0} - theta^{J0}(theta^J + theta^{-J}) + 1, with theta = e^{2 beta}, from
    # e4 = e^{4 J0 beta}, e2 = e^{2 J0 beta} and cosh = cosh(2 J beta): floats at a point,
    # arrays on the grid.  cosh keeps the expression exactly even in J.
    return e4 - e2 * 2 * cosh + 1


def _expects_transition(j, j0, threshold):
    """The closed-form region rule: a phase transition where |J| > J0 or J0 > dd_threshold."""
    return (j * j > j0 * j0) | (j0 > threshold)


def delta_theta(p: ModelParams) -> float:
    """The discriminant Delta(theta) whose sign separates the phase regions."""
    if p.j == p.j0 or p.j == -p.j0:
        raise SingularParameterError(f"J = +-J0 is excluded (j={p.j}, j0={p.j0})")
    e4 = math.exp(4 * p.j0 * p.beta)
    den = _denominator(e4, math.exp(2 * p.j0 * p.beta), math.cosh(2 * p.j * p.beta))
    if not math.isfinite(den):  # e^{2 J0 beta} cosh(2 J beta) overflows where each factor does not
        raise OverflowError("math range error")
    if abs(den) < SINGULAR_TOL * max(1.0, e4):
        raise SingularParameterError(f"singular parameters: denominator {den:.3e} vanishes near J = +-J0")
    return (den - 4) / den


def dd_threshold(j: float, beta: float) -> float:
    """Coupling threshold of the inner region |J| < J0.

    Derived from theta^{J0} > cosh(2J beta) + sqrt(cosh^2(2J beta) + 3); the
    J = 0 boundary theta^{J0} = 3 pins the cosh form.  Raises OverflowError,
    as math.cosh does, where cosh(2J beta) overflows a float, and
    ThresholdOverflowError, which names J and beta, where the threshold does.
    """
    c = math.cosh(2 * j * beta)
    # from 1e150 on c * c would overflow, and c + sqrt(c * c + 3) is 2c to double precision
    log_root = math.log(c + math.sqrt(c * c + 3)) if c < 1e150 else math.log(c) + math.log(2)
    threshold = log_root / (2 * beta)
    if threshold == math.inf:  # beta below about 1e-308
        raise ThresholdOverflowError(
            f"the region threshold log(c + sqrt(c^2 + 3)) / (2 beta), c = cosh(2 J beta), "
            f"overflows a float at J = {j!r}, beta = {beta!r}"
        )
    return threshold


def phase_region(p: ModelParams) -> PhaseRegion:
    """Classify by the sign of Delta and cross-check the closed-form region."""
    delta = delta_theta(p)
    if abs(delta) <= BOUNDARY_TOL:
        return PhaseRegion(delta, Classification.BOUNDARY)
    transition = delta > 0
    if abs(delta) > REGION_GUARD:
        expected = _expects_transition(p.j, p.j0, dd_threshold(p.j, p.beta))
        if expected != transition:
            want = Classification.PHASE_TRANSITION if expected else Classification.UNIQUE
            raise ModelInconsistencyError(f"region check failed at {p}: delta={delta!r} vs closed-form {want.value}")
    return PhaseRegion(delta, Classification.PHASE_TRANSITION if transition else Classification.UNIQUE)


# The grid's classification names by code: 0 and 1 are the transition mask's False and True.
_CLASS_NAMES = np.array(
    [Classification.UNIQUE.value, Classification.PHASE_TRANSITION.value, Classification.BOUNDARY.value, "Singular"],
    dtype=object,
)
_BOUNDARY, _SINGULAR = 2, 3


def _j_lines(js: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dd_threshold and cosh(2 J beta) per J line, and where dd_threshold raised OverflowError (both are then inf)."""
    threshold, cosh, overflow = [], [], []
    for j in js.tolist():
        try:
            threshold.append(dd_threshold(j, beta))
        except OverflowError:
            threshold.append(math.inf)
            cosh.append(math.inf)
            overflow.append(True)
        else:
            cosh.append(math.cosh(2 * j * beta))  # finite: dd_threshold formed it
            overflow.append(False)
    return np.array(threshold), np.array(cosh), np.array(overflow)


def _j0_lines(j0s: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{4 J0 beta} and e^{2 J0 beta} per J0 line, and where the first overflowed (both are then inf)."""
    e4, e2, overflow = [], [], []
    for j0 in j0s.tolist():
        try:
            e4.append(math.exp(4 * j0 * beta))
        except OverflowError:
            e4.append(math.inf)
            e2.append(math.inf)
            overflow.append(True)
        else:
            e2.append(math.exp(2 * j0 * beta))  # finite wherever e4 is
            overflow.append(False)
    return np.array(e4), np.array(e2), np.array(overflow)


def phase_region_grid(js: np.ndarray, j0s: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta_theta and phase_region at every point of the grid js x j0s, bit for bit.

    Returns Delta and the classification names on the grid (J along axis 0),
    with nan and "Singular" where delta_theta raises SingularParameterError,
    and dd_threshold per J line.  The names are an object array of the four
    interned strings (the Classification values and "Singular"), so their
    .tolist() makes no new string.  Fails where the pointwise calls would:
    at the first failing point, J outer, it calls dd_threshold and
    phase_region, which raise their own error there.

    The grid is separable.  One pass over the J lines forms dd_threshold and
    cosh(2 J beta), and one over the J0 lines e^{4 J0 beta} and
    e^{2 J0 beta}, each from `math` (libm), as in the pointwise formulas:
    np.exp and np.cosh differ from libm in the last bit on some inputs.  An
    OverflowError is recorded per line.  den, Delta = (den - 4)/den, the
    masks and the cross-check are whole-grid float64 arithmetic through the
    same _denominator and _expects_transition as the pointwise functions, in
    delta_theta's operation order, which rounds as Python floats do.
    """
    threshold, cosh, threshold_overflow = _j_lines(js, beta)
    e4, e2, e4_overflow = _j0_lines(j0s, beta)
    j, j0 = js[:, None], j0s[None, :]
    excluded = np.abs(j) == np.abs(j0)  # J = +-J0
    with np.errstate(all="ignore"):  # overflow gives inf and inf/inf nan, as with Python floats
        den = _denominator(e4, e2, cosh[:, None])
        delta = (den - 4) / den
        singular = excluded | (np.abs(den) < SINGULAR_TOL * np.maximum(1.0, e4))
        delta[singular] = math.nan
        transition = delta > 0
        expected = _expects_transition(j, j0, threshold[:, None])
        magnitude = np.abs(delta)
        mismatch = (magnitude > REGION_GUARD) & (expected != transition)
    if threshold_overflow.any() or e4_overflow.any() or mismatch.any() or not np.isfinite(den).all():
        # delta_theta never forms e^{4 J0 beta} or den at an excluded point
        overflow = threshold_overflow[:, None] | ((e4_overflow | ~np.isfinite(den)) & ~excluded)
        failed = np.flatnonzero(overflow | mismatch)
        if failed.size:  # the pointwise calls at the first failing point raise its error
            a, b = divmod(int(failed[0]), len(j0s))
            dd_threshold(float(js[a]), beta)
            phase_region(ModelParams(float(j0s[b]), float(js[a]), beta))
            raise ModelInconsistencyError(
                f"the grid fails at J = {js[a]}, J0 = {j0s[b]}, where the pointwise calls do not"
            )
    codes = transition.view(np.int8)  # Unique where False, PhaseTransition where True
    codes[magnitude <= BOUNDARY_TOL] = _BOUNDARY
    codes[singular] = _SINGULAR
    return delta, _CLASS_NAMES[codes], threshold


def fixed_point_residual(p: ModelParams, h: np.ndarray) -> float:
    """Frobenius norm of Phi(h) - h under the numeric vertex channel."""
    a = vertex_operator(p)
    return float(np.linalg.norm(vertex_channel(a, PAULI["I"], h, h) - h))


def _diagonal(d0: float, d1: float) -> np.ndarray:
    """The complex 2x2 matrix diag(d0, d1)."""
    return np.array([[d0, 0], [0, d1]], dtype=complex)


def _solution(p: ModelParams, branch: Branch, h: np.ndarray, omega0: np.ndarray, **fields) -> BoundarySolution:
    # relative for small h: at low temperature h ~ e^{-4 j0 beta}, and an absolute
    # bound would pass any h that small
    residual = fixed_point_residual(p, h)
    bound = RESIDUAL_TOL * min(1.0, float(np.linalg.norm(h)))
    if not residual <= bound:
        raise ModelInconsistencyError(
            f"{branch.value} branch residual {residual:.3e} exceeds {RESIDUAL_TOL:g} min(1, |h|) = {bound:.3e}"
        )
    (w0, _), (_, w1) = omega0.tolist()
    (h0, _), (_, h1) = h.tolist()
    eq1 = abs((w0 * h0 + w1 * h1) / 2 - 1)  # Tr(omega0 h), normalized, of two diagonal matrices
    if eq1 > 1e-14:
        raise ModelInconsistencyError(f"{branch.value} branch violates the normalization: |Tr(w0 h)-1| = {eq1:.3e}")
    h.setflags(write=False)
    omega0.setflags(write=False)
    return BoundarySolution(branch=branch, h=h, omega0=omega0, residual=residual, **fields)


def ordered_xi(p: ModelParams, coeffs: TransferCoeffs | None = None) -> tuple[float, float]:
    """The ordered constants xi0 = 1/C3 and xi3 = sqrt(Delta)/C3, by arithmetic alone.

    Refuses Delta <= 0 (no ordered phase) and C3 <= 0 (j0 <= 0) with a
    DomainError, and an indefinite pair (xi3 > xi0, the |J| > J0 regime) with
    SolutionNotPositiveError.  Builds no operator; solve_branch checks the
    resulting states numerically.  A caller that holds transfer_coeffs(p)
    passes it as coeffs, so it is not computed again.
    """
    delta = delta_theta(p)
    if delta <= 0:
        raise DomainError(f"no ordered phase: Delta(theta) = {delta!r} <= 0 at {p}")
    c = transfer_coeffs(p) if coeffs is None else coeffs
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


_ORDERED_SIGN = {Branch.ORDERED_PLUS: 1.0, Branch.ORDERED_MINUS: -1.0}


def ordered_sign(branch: Branch) -> float:
    """The sign of xi3 in h = xi0*1 + sign*xi3*sz: +1.0 on plus, -1.0 on minus.

    The one place where the two ordered branches differ; any other branch, and
    any value that is not a Branch (a str equal to "plus" included), is a
    DomainError.
    """
    if not isinstance(branch, Branch) or branch not in _ORDERED_SIGN:
        raise DomainError(f"needs an ordered branch (plus or minus), got {branch!r}")
    return _ORDERED_SIGN[branch]


@functools.lru_cache(maxsize=256)
def solve_branch(p: ModelParams, branch: Branch) -> BoundarySolution:
    """The branch's solution, built and checked on the first call per (frozen) parameter set.

    disordered: h = (1/C1)*1.  xy: h = alpha*1 from the numeric Phi(1) oracle,
    j0 = 0 only.  plus and minus: h = xi0*1 + ordered_sign(branch)*xi3*sz with
    omega0 = (1/xi0)*1, refused where ordered_xi refuses.  A branch that is not
    a Branch is a DomainError.  A refusal raises and is not cached.
    """
    if not isinstance(branch, Branch):
        raise DomainError(f"branch must be a Branch, got {branch!r}")
    if branch is Branch.DISORDERED:
        alpha = 1 / transfer_coeffs(p).c1
    elif branch is Branch.XY_ONLY:
        if p.j0 != 0:
            raise DomainError(f"XY-only branch requires j0 = 0, got {p.j0}")
        alpha = 1 / transfer_coeffs_numeric(p).c1
    else:
        xi0, xi3 = ordered_xi(p)
        signed = ordered_sign(branch) * xi3
        h, w = _diagonal(xi0 + signed, xi0 - signed), 1 / xi0
        return _solution(p, branch, h, _diagonal(w, w), xi0=xi0, xi3=xi3)
    return _solution(p, branch, _diagonal(alpha, alpha), _diagonal(1 / alpha, 1 / alpha), alpha=alpha)


def solve_ordered(p: ModelParams) -> tuple[BoundarySolution, BoundarySolution] | None:
    """The pair (h, h') = xi0*1 +- xi3*sz, present exactly when Delta > 0."""
    if delta_theta(p) <= 0:
        return None
    return solve_branch(p, Branch.ORDERED_PLUS), solve_branch(p, Branch.ORDERED_MINUS)


def xy_alpha_report(p: ModelParams) -> XYAlphaReport:
    """Compare the displayed 1/alpha = R1 + 2 R1^2 + R3^2 against the oracle."""
    r = xy_only_coeffs(p)
    displayed = r.r1 + 2 * r.r1**2 + r.r3**2
    oracle = transfer_coeffs_numeric(p).c1
    gap = abs(displayed - oracle)
    return XYAlphaReport(
        oracle_inverse_alpha=oracle,
        displayed_inverse_alpha=displayed,
        abs_gap=gap,
        matches=gap <= 1e-10 * max(1.0, abs(oracle)),
    )
