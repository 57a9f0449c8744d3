"""Closed-form quantities of the ordered regime and their numeric cross-checks.

Projector and marker expectations, the two-component transfer series driving
them, the clustering transfer matrix with its decay rate, the quasi-equivalence
gap constants, and the phase-diagram scan.  Each closed form is paired with an
evaluation through the state machinery in `qmc_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import Branch, dd_threshold, delta_theta, ordered_xi, phase_region
from .errors import DomainError, ModelInconsistencyError, SingularParameterError
from .model_ops import ModelParams, operator_coeffs, transfer_coeffs
from .qmc_state import EvalContext, Observable, correlation, eval_recursive, translate_observable
from .tree import TreeCoord, ball_vertices

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def lam(p: ModelParams) -> float:
    """The contraction eigenvalue C1/C3 - 1/2 shared by all level recursions."""
    c = transfer_coeffs(p)
    if c.c3 == 0:
        raise SingularParameterError("C3 = 0: level recursion undefined (j0 = 0)")
    return c.c1 / c.c3 - 0.5


@dataclass(frozen=True)
class TransferSeries:
    """Constants of the two-component level series for both ordered branches.

    hat/check pairs follow psi_n = rho1 + rho2 * lam^n; the primed branch uses
    the pi constants with the same eigenvalue.
    """

    rho1_hat: float
    rho2_hat: float
    rho1_check: float
    rho2_check: float
    pi1_hat: float
    pi2_hat: float
    pi1_check: float
    pi2_check: float
    lam: float

    def hat(self, n: int, branch: Branch) -> float:
        if branch is Branch.ORDERED_PLUS:
            return self.rho1_hat + self.rho2_hat * self.lam**n
        return self.pi1_hat + self.pi2_hat * self.lam**n

    def check(self, n: int, branch: Branch) -> float:
        if branch is Branch.ORDERED_PLUS:
            return self.rho1_check + self.rho2_check * self.lam**n
        return self.pi1_check + self.pi2_check * self.lam**n


def transfer_series(p: ModelParams) -> TransferSeries:
    c = transfer_coeffs(p)
    den = 3 * c.c3 - 2 * c.c1
    if c.c3 == 0 or abs(den) < 1e-14:
        raise SingularParameterError(f"degenerate series denominators (C3={c.c3!r}, 3C3-2C1={den!r})")
    _, xi3 = ordered_xi(p)
    rho1_hat = c.c3**2 / den
    rho2_hat = 2 * c.c3 * (c.c3 - c.c1) / den
    rho1_check = 2 * c.c2 * c.c3**2 * xi3 / den
    return TransferSeries(
        rho1_hat=rho1_hat,
        rho2_hat=rho2_hat,
        rho1_check=rho1_check,
        rho2_check=-rho1_check,
        pi1_hat=rho1_hat,
        pi2_hat=rho2_hat,
        pi1_check=-rho1_check,
        pi2_check=rho1_check,
        lam=lam(p),
    )


def series_matrix(p: ModelParams, branch: Branch) -> np.ndarray:
    """The 2x2 recursion matrix N acting on (hat, check) level vectors."""
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    s = xi3 if branch is Branch.ORDERED_PLUS else -xi3
    return np.array([[c.c1 * xi0, c.c3 * s / 2], [c.c2 * s, 0.5]])


def iterate_series(p: ModelParams, branch: Branch, n: int) -> tuple[float, float]:
    """n-fold application of the recursion matrix to the initial (1/xi0, 0)."""
    xi0, _ = ordered_xi(p)
    vec = np.array([1 / xi0, 0.0])
    mat = series_matrix(p, branch)
    for _ in range(n):
        vec = mat @ vec
    return float(vec[0]), float(vec[1])


def marker_observable(n: int) -> Observable:
    """e11 at the first lexicographic vertex (1, ..., 1) of level n."""
    return Observable.single(TreeCoord((1,) * n), E11)


def projector_observable(n: int, which: str, k: int = 2) -> Observable:
    """The rank-one product projector (e11 or e22 at every site of the n-ball)."""
    mat = E11 if which.upper() == "P" else E22
    return Observable.product({site: mat for site in ball_vertices(n, k)})


def projector_expectation_closed(p: ModelParams, n: int, branch: Branch, projector: str) -> float:
    """Closed form of the ball-projector expectation on an ordered branch.

    Aligned combinations (plus/P, minus/Q) carry (xi0+xi3)^(2^n); anti-aligned
    ones (xi0-xi3)^(2^n); both share ((C1+C2+C3)/4)^(2^n - 1).  Evaluated in
    log space to survive the 2^n exponents.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    aligned = (branch is Branch.ORDERED_PLUS) == (projector.upper() == "P")
    base = xi0 + xi3 if aligned else xi0 - xi3
    if base == 0.0:
        return 0.0
    kappa = (c.c1 + c.c2 + c.c3) / 4
    log_value = -math.log(2 * xi0) + 2**n * math.log(base) + (2**n - 1) * math.log(kappa)
    return math.exp(log_value)


def projector_limit_scan(j0: float, j: float, n: int, betas: list[float]) -> list[dict]:
    """Low-temperature limit data: the aligned projector expectation along a beta grid."""
    rows = []
    for beta in betas:
        p = ModelParams(j0, j, beta)
        phi_p = projector_expectation_closed(p, n, Branch.ORDERED_PLUS, "P")
        phi_q = projector_expectation_closed(p, n, Branch.ORDERED_PLUS, "Q")
        rows.append({"beta": beta, "phi1_pn": phi_p, "phi1_qn": phi_q, "dev_from_one": abs(phi_p - 1)})
    return rows


def _marker_coeffs(p: ModelParams, branch: Branch) -> tuple[float, float]:
    """(constant, lam-coefficient) of the closed marker expectation."""
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    ts = transfer_series(p)
    if branch is Branch.ORDERED_PLUS:
        edge, drift = xi0 + xi3, c.c1 * xi0 + c.c2 * xi3
        h1, h2 = ts.rho1_hat, ts.rho2_hat
        v1, v2 = ts.rho1_check, ts.rho2_check
    else:
        edge, drift = xi0 - xi3, c.c1 * xi0 - c.c2 * xi3
        h1, h2 = ts.pi1_hat, ts.pi2_hat
        v1, v2 = ts.pi1_check, ts.pi2_check
    const = (edge * drift * h1 + (c.c3 / 2) * edge**2 * v1) / 2
    coeff = (edge * drift * h2 + (c.c3 / 2) * edge**2 * v2) / 2
    return const, coeff


def marker_expectation_closed(p: ModelParams, n: int, branch: Branch) -> float:
    """Closed form of the single-marker expectation, affine in lam^(n-1)."""
    if n < 1:
        raise DomainError(f"marker depth must be >= 1, got {n}")
    const, coeff = _marker_coeffs(p, branch)
    return const + coeff * lam(p) ** (n - 1)


@dataclass(frozen=True)
class QuasiGap:
    """Gap constants: |phi1(E) - phi2(E)| >= i1 - i2 |lam|^(n-1)."""

    i1: float
    i2: float
    lam: float

    def lower_bound(self, n: int) -> float:
        return self.i1 - self.i2 * abs(self.lam) ** (n - 1)


def quasi_gap(p: ModelParams) -> QuasiGap:
    """Constants of the marker-gap bound in the regime J in (-J0, J0), Delta > 0."""
    if not (abs(p.j) < p.j0):
        raise DomainError(f"gap bound needs J in (-J0, J0), got j={p.j}, j0={p.j0}")
    const_p, coeff_p = _marker_coeffs(p, Branch.ORDERED_PLUS)
    const_m, coeff_m = _marker_coeffs(p, Branch.ORDERED_MINUS)
    i1 = abs(const_p - const_m)
    i2 = abs(coeff_p - coeff_m)
    c = transfer_coeffs(p)
    _, xi3 = ordered_xi(p)
    displayed = c.c3 * xi3 * (2 * c.c2 + c.c3) / (3 * c.c3 - 2 * c.c1)
    scale = max(1.0, abs(i1))
    if abs(i1 - abs(displayed)) > 1e-12 * scale:
        raise ModelInconsistencyError(f"gap constant mismatch: derived {i1!r} vs displayed {displayed!r}")
    return QuasiGap(i1=i1, i2=i2, lam=lam(p))


@dataclass(frozen=True)
class ClusteringTransfer:
    """The 2x2 decay matrix of the coefficient recursion, with its companions.

    matrix_a acts on (identity, sz) coefficient pairs propagating from a far
    observable toward the root; the sign of the xi3-odd entries follows the
    branch.  The second eigenvalue is the clustering rate.
    """

    matrix_a: np.ndarray
    eigenvalues: tuple[float, float]
    alpha1: float
    alpha2: float
    alpha3: float
    eta1: float
    eta1_hat: float
    eta2: float
    eta2_hat: float


def clustering_transfer(p: ModelParams, branch: Branch) -> ClusteringTransfer:
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    # displayed signs belong to the h = xi0 - xi3 sz convention (minus branch)
    s = xi3 if branch is Branch.ORDERED_MINUS else -xi3
    if abs(c.c1 * xi0 - 1) < 1e-14 or c.c2 * s == 0:
        raise SingularParameterError("degenerate clustering transfer (C1 xi0 = 1 or C2 xi3 = 0)")
    mat = np.array([[c.c1 * xi0, -c.c2 * s], [-(c.c3 / 2) * s, (c.c3 / 2) * xi0]])
    lam2 = (c.c1 - c.c3 / 2) * xi0
    if abs(1 - lam2) < 1e-12:
        raise SingularParameterError("clustering matrix is not diagonalizable: coincident eigenvalues")
    # char poly check: eigenvalues are exactly {1, (C1 - C3/2) xi0}
    tr, det = np.trace(mat), np.linalg.det(mat)
    if abs(1 + lam2 - tr) > 1e-10 * max(1.0, abs(tr)) or abs(lam2 - det) > 1e-10 * max(1.0, abs(det)):
        raise ModelInconsistencyError("clustering matrix eigenvalues disagree with the closed form")
    g = operator_coeffs(p)
    den = 3 - 2 * c.c1 * xi0
    return ClusteringTransfer(
        matrix_a=mat,
        eigenvalues=(1.0, float(lam2)),
        alpha1=(c.c1 - 2 * g.delta1**2) * xi0**2 + (c.c2 - 2 * g.delta1**2) * xi3**2,
        alpha2=-(c.c3 / 2) * xi0 * s,
        alpha3=2 * g.delta1**2 * (xi0**2 + xi3**2),
        eta1=1 / den,
        eta1_hat=2 * (1 - c.c1 * xi0) / den,
        eta2=-2 * c.c2 * s / den,
        eta2_hat=(c.c1 * xi0 - 1) / (c.c2 * s * den),
    )


@dataclass(frozen=True)
class ClusteringLimitReport:
    """Numeric asymptotic single-site value vs the two closed-form candidates.

    `structural` follows the per-vertex pipeline (g, then the coefficient pair,
    then the eigenprojection constants) and is expected to agree; `displayed`
    is the single-line closed combination, reported without being asserted.
    """

    numeric: float
    structural: float
    displayed: float
    structural_dev: float
    displayed_dev: float


def clustering_limit_report(ctx: EvalContext, f: np.ndarray, limit_depth: int = 24) -> ClusteringLimitReport:
    p = ctx.params
    branch = ctx.solution.branch
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    ct = clustering_transfer(p, branch)
    sz = np.diag([1.0, -1.0])
    g = ct.alpha1 * f + ct.alpha2 * (f @ sz + sz @ f) + ct.alpha3 * (sz @ f @ sz)
    trg = complex(np.trace(g)).real / 2
    trsg = complex(np.trace(sz @ g)).real / 2
    s = xi3 if branch is Branch.ORDERED_MINUS else -xi3
    v1 = c.c1 * trg * xi0 - c.c2 * trsg * s
    v1p = (c.c3 / 2) * (trsg * xi0 - trg * s)
    structural = c.c3 * (ct.eta1 * v1 + ct.eta2 * v1p)
    trf = complex(np.trace(f)).real / 2
    trsf = complex(np.trace(sz @ f)).real / 2
    combo = xi0**2 / (6 - 4 * c.c1 * xi0) * (
        (4 * c.c3 - 2 * c.c1) * trf - math.sqrt(delta_theta(p)) * (4 * c.c2 + c.c3) * trsf
    )
    displayed = c.c3 * combo
    numeric = eval_recursive(
        ctx, translate_observable(Observable.product({TreeCoord(()): f}), TreeCoord((1,) * limit_depth))
    ).real
    return ClusteringLimitReport(
        numeric=numeric,
        structural=structural,
        displayed=displayed,
        structural_dev=abs(structural - numeric),
        displayed_dev=abs(displayed - numeric),
    )


def clustering_deviations(
    ctx: EvalContext,
    a: Observable,
    f: Observable,
    levels: list[int],
    limit_depth: int = 24,
) -> list[dict]:
    """|phi(a tau_g f) - phi(a) phi(f)| with f pushed down the (1,1,...) spine.

    phi(f) is the asymptotic single-site value, read off at limit_depth where
    the lam-transient is below double precision.
    """
    phi_a = eval_recursive(ctx, a)
    phi_f = eval_recursive(ctx, translate_observable(f, TreeCoord((1,) * limit_depth)))
    rows = []
    previous = None
    for level in levels:
        g = TreeCoord((1,) * level)
        dev = abs(correlation(ctx, a, f, g) - phi_a * phi_f)
        ratio = dev / previous if previous not in (None, 0.0) else float("nan")
        rows.append({"level": level, "deviation": dev, "ratio": ratio})
        previous = dev
    return rows


def fitted_decay_ratio(rows: list[dict]) -> float:
    """Geometric mean of the successive deviation ratios."""
    devs = [r["deviation"] for r in rows]
    if len(devs) < 2 or devs[0] == 0.0:
        raise DomainError("need at least two nonzero deviations to fit a ratio")
    return (devs[-1] / devs[0]) ** (1.0 / (len(devs) - 1))


@dataclass(frozen=True)
class PhasePoint:
    j: float
    j0: float
    delta: float
    classification: str
    threshold: float


def _scan_point(args: tuple[float, float, float]) -> PhasePoint:
    j, j0, beta = args
    threshold = dd_threshold(j, beta)
    try:
        region = phase_region(ModelParams(j0, j, beta))
    except SingularParameterError:
        return PhasePoint(j=j, j0=j0, delta=float("nan"), classification="Singular", threshold=threshold)
    return PhasePoint(j=j, j0=j0, delta=region.delta, classification=region.classification.value, threshold=threshold)


def phase_diagram_scan(
    j_min: float,
    j_max: float,
    j0_min: float,
    j0_max: float,
    beta: float,
    resolution: int,
) -> list[PhasePoint]:
    """Delta sign, classification and threshold over a (J, J0) grid.

    Rows are ordered by (j, j0); singular points (J = +-J0) are flagged
    in-row.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    js = np.linspace(j_min, j_max, resolution)
    j0s = np.linspace(j0_min, j0_max, resolution)
    points = [(float(j), float(j0), beta) for j in js for j0 in j0s]
    return [_scan_point(pt) for pt in points]
