"""Closed-form quantities of the ordered regime and their numeric cross-checks.

Projector and marker expectations, the two-component transfer series driving
them, the clustering transfer matrix with its decay rate, the quasi-equivalence
gap constants, and the phase-diagram scan.  Each closed form is paired with an
evaluation through the state machinery in `qmc_state`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boundary import Branch, delta_theta, ordered_sign, ordered_xi, phase_region_grid
from .errors import (
    DomainError,
    ModelInconsistencyError,
    ResourceLimitError,
    SeriesOverflowError,
    SingularParameterError,
)
from .model_ops import ModelParams, TransferCoeffs, operator_coeffs, transfer_coeffs
from .qmc_state import EvalContext, Observable, correlation, eval_recursive, relocate_observable
from .tree import TreeCoord, ball_vertices

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
# depth down the (1,1,...) spine where the lam-transient of a single-site value is below double precision
LIMIT_DEPTH = 24


def lam(p: ModelParams) -> float:
    """The contraction eigenvalue C1/C3 - 1/2 shared by all level recursions."""
    return _lam(transfer_coeffs(p))


def _lam(c: TransferCoeffs) -> float:
    if c.c3 == 0:
        raise SingularParameterError("C3 = 0: level recursion undefined (j0 = 0)")
    return c.c1 / c.c3 - 0.5


def _signed_xi(p: ModelParams, branch: Branch) -> tuple[float, float]:
    """(xi0, ordered_sign(branch) * xi3): the branch's boundary is h = xi0*1 + xi3*sz."""
    xi0, xi3 = ordered_xi(p)
    return xi0, ordered_sign(branch) * xi3


@dataclass(frozen=True)
class TransferSeries:
    """Constants of the two-component level series psi_n = rho1 + rho2 * lam^n.

    The hat component is even in xi3, so it is the same on both ordered
    branches.  The check component is odd in xi3: on the plus branch it is
    rho1_check - rho1_check * lam^n, and the minus branch negates it.
    """

    rho1_hat: float
    rho2_hat: float
    rho1_check: float
    lam: float

    def hat(self, n: int, branch: Branch) -> float:
        ordered_sign(branch)  # refuses a branch that is not ordered
        self._refuse_overflow()
        return self.rho1_hat + self.rho2_hat * self.lam**n

    def check(self, n: int, branch: Branch) -> float:
        r = ordered_sign(branch) * self.rho1_check
        self._refuse_overflow()
        return r + (-r) * self.lam**n

    def _refuse_overflow(self) -> None:
        # an inf constant would make the series nan (inf - inf), even at n = 0
        if not all(map(math.isfinite, (self.rho1_hat, self.rho2_hat, self.rho1_check, self.lam))):
            raise DomainError(f"transfer series constants overflow a float: {self}")


def transfer_series(p: ModelParams) -> TransferSeries:
    return _series(p, transfer_coeffs(p))


def _series(p: ModelParams, c: TransferCoeffs, xi3: float | None = None) -> TransferSeries:
    """transfer_series from the point's coefficients c, and its xi3 if the caller holds it."""
    den = 3 * c.c3 - 2 * c.c1
    if c.c3 == 0 or abs(den) < 1e-14:
        raise SingularParameterError(f"degenerate series denominators (C3={c.c3!r}, 3C3-2C1={den!r})")
    if xi3 is None:
        _, xi3 = ordered_xi(p, c)
    try:
        c3_squared = c.c3**2
    except OverflowError:  # a float power raises where a product would give inf
        raise SeriesOverflowError(
            f"the transfer series constant C3^2 overflows a float at j0={p.j0}, j={p.j}, beta={p.beta}"
        ) from None
    rho1_hat = c3_squared / den
    rho2_hat = 2 * c.c3 * (c.c3 - c.c1) / den
    rho1_check = 2 * c.c2 * c3_squared * xi3 / den
    return TransferSeries(rho1_hat=rho1_hat, rho2_hat=rho2_hat, rho1_check=rho1_check, lam=_lam(c))


def series_matrix(p: ModelParams, branch: Branch) -> np.ndarray:
    """The 2x2 recursion matrix N acting on (hat, check) level vectors."""
    c = transfer_coeffs(p)
    xi0, xi3 = _signed_xi(p, branch)
    return np.array([[c.c1 * xi0, c.c3 * xi3 / 2], [c.c2 * xi3, 0.5]])


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


def _projector(which: str) -> tuple[np.ndarray, float]:
    """The one-site factor of ball projector "P" or "Q", and the sz eigenvalue it projects onto."""
    if which == "P":
        return E11, 1.0
    if which == "Q":
        return E22, -1.0
    raise DomainError(f"a projector is 'P' or 'Q', got {which!r}")


def projector_observable(n: int, which: str) -> Observable:
    """The rank-one product projector: e11 ("P") or e22 ("Q") at every site of the n-ball."""
    mat, _ = _projector(which)
    return Observable.product({site: mat for site in ball_vertices(n)})


def projector_expectation_closed(p: ModelParams, n: int, branch: Branch, projector: str) -> float:
    """Closed form of the ball-projector expectation on an ordered branch.

    The projector onto the sz eigenvalue e (+1 for "P", -1 for "Q") carries
    (xi0 + e*xi3)^(2^n) with the branch's signed xi3, so plus/P and minus/Q
    carry (xi0+xi3)^(2^n) and the other two (xi0-xi3)^(2^n); all share
    ((C1+C2+C3)/4)^(2^n - 1).  Evaluated in log space to survive the 2^n
    exponents.
    """
    _, eigenvalue = _projector(projector)
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    if n >= sys.float_info.max_exp:
        raise DomainError(f"depth n = {n} is too large: 2**n does not fit a float (n must be < {sys.float_info.max_exp})")
    c = transfer_coeffs(p)
    xi0, xi3 = _signed_xi(p, branch)
    base = xi0 + eigenvalue * xi3
    if base == 0.0:
        return 0.0
    kappa = (c.c1 + c.c2 + c.c3) / 4
    log_value = -math.log(2 * xi0) + 2**n * math.log(base) + (2**n - 1) * math.log(kappa)
    if math.isnan(log_value):  # both 2**n terms overflow, with opposite signs
        raise DomainError(f"depth n = {n} is too large: the projector's log-space value is inf - inf")
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


def _marker_coeffs(p: ModelParams, branch: Branch) -> tuple[float, float, float]:
    """(constant, lam-coefficient, lam) of the closed marker expectation.

    Reads the transfer coefficients and the ordered constants once each.
    """
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p, c)
    sign = ordered_sign(branch)
    ts = _series(p, c, xi3)
    xi3 = sign * xi3
    edge, drift = xi0 + xi3, c.c1 * xi0 + c.c2 * xi3
    v1 = sign * ts.rho1_check  # the check series is r - r lam^n
    const = (edge * drift * ts.rho1_hat + (c.c3 / 2) * edge**2 * v1) / 2
    coeff = (edge * drift * ts.rho2_hat + (c.c3 / 2) * edge**2 * (-v1)) / 2
    if not (math.isfinite(const) and math.isfinite(coeff)):
        raise DomainError(f"marker constants overflow a float at {p}: ({const!r}, {coeff!r})")
    return const, coeff, ts.lam


def marker_expectation_closed(p: ModelParams, n: int, branch: Branch) -> float:
    """Closed form of the single-marker expectation, affine in lam^(n-1)."""
    if n < 1:
        raise DomainError(f"marker depth must be >= 1, got {n}")
    const, coeff, lam_ = _marker_coeffs(p, branch)
    return const + coeff * lam_ ** (n - 1)


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
    const_p, coeff_p, _ = _marker_coeffs(p, Branch.ORDERED_PLUS)
    const_m, coeff_m, _ = _marker_coeffs(p, Branch.ORDERED_MINUS)
    i1 = abs(const_p - const_m)
    i2 = abs(coeff_p - coeff_m)
    c = transfer_coeffs(p)
    _, xi3 = ordered_xi(p)
    displayed = c.c3 * xi3 * (2 * c.c2 + c.c3) / (3 * c.c3 - 2 * c.c1)
    scale = max(1.0, abs(i1))
    if not abs(i1 - abs(displayed)) <= 1e-12 * scale:  # a nan fails it
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
    eta2: float


def clustering_transfer(p: ModelParams, branch: Branch) -> ClusteringTransfer:
    c = transfer_coeffs(p)
    xi0, xi3 = _signed_xi(p, branch)
    s = -xi3  # displayed signs belong to the h = xi0 - xi3 sz convention (minus branch)
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
        eta2=-2 * c.c2 * s / den,
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


def clustering_limit_report(ctx: EvalContext, f: np.ndarray) -> ClusteringLimitReport:
    p = ctx.params
    branch = ctx.solution.branch
    c = transfer_coeffs(p)
    xi0, xi3 = _signed_xi(p, branch)
    ct = clustering_transfer(p, branch)
    sz = np.diag([1.0, -1.0])
    g = ct.alpha1 * f + ct.alpha2 * (f @ sz + sz @ f) + ct.alpha3 * (sz @ f @ sz)
    trg = complex(np.trace(g)).real / 2
    trsg = complex(np.trace(sz @ g)).real / 2
    s = -xi3  # the minus-branch convention of clustering_transfer
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
        ctx, relocate_observable(Observable.product({TreeCoord(()): f}), TreeCoord((1,) * LIMIT_DEPTH))
    ).real
    return ClusteringLimitReport(
        numeric=numeric,
        structural=structural,
        displayed=displayed,
        structural_dev=abs(structural - numeric),
        displayed_dev=abs(displayed - numeric),
    )


def clustering_deviations(ctx: EvalContext, a: Observable, f: Observable, levels: list[int]) -> list[dict]:
    """|phi(a tau_g f) - phi(a) phi(f)| with f pushed down the (1,1,...) spine.

    phi(f) is the asymptotic single-site value, read off at LIMIT_DEPTH.
    """
    phi_a = eval_recursive(ctx, a)
    phi_f = eval_recursive(ctx, relocate_observable(f, TreeCoord((1,) * LIMIT_DEPTH)))
    rows = []
    previous = None
    for level in levels:
        g = TreeCoord((1,) * level)
        dev = abs(correlation(ctx, a, f, g) - phi_a * phi_f)
        ratio = dev / previous if previous not in (None, 0.0) else float("nan")
        rows.append({"level": level, "deviation": dev, "ratio": ratio})
        previous = dev
    return rows


RESOLVED = 1e-11  # a correlation deviation at or below this is rounding, not decay


def fitted_decay_ratio(rows: list[dict]) -> float:
    """Geometric mean of the successive deviation ratios over the leading resolved rows.

    The fit stops at the first deviation at or below RESOLVED, where rounding
    takes over from the decay.
    """
    devs = list(itertools.takewhile(lambda d: d > RESOLVED, (r["deviation"] for r in rows)))
    if len(devs) < 2:
        raise DomainError(f"need at least two leading deviations above {RESOLVED:g} to fit a ratio, got {len(devs)}")
    return (devs[-1] / devs[0]) ** (1.0 / (len(devs) - 1))


class PhasePoint(NamedTuple):
    j: float
    j0: float
    delta: float
    classification: str
    threshold: float


MAX_SCAN_POINTS = 1_000_000  # scan points (resolution**2, or projector steps) beyond this are refused before any grid exists


def _phase_columns(
    j_min: float, j_max: float, j0_min: float, j0_max: float, beta: float, resolution: int
) -> tuple[itertools.chain, itertools.chain, list[float], list[str], itertools.chain]:
    """The scan's validation and grid, as its five columns in row order: J, J0, Delta, classification, threshold.

    phase_diagram_scan's rows and the CLI's phase-diagram table both read
    it; it refuses what phase_diagram_scan documents.  J and the threshold
    repeat a J line's value on each of its rows, and J0 the J0 values on
    every line, as the same float objects.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    if resolution**2 > MAX_SCAN_POINTS:
        raise ResourceLimitError(f"a {resolution}x{resolution} scan exceeds the {MAX_SCAN_POINTS}-point guard")
    bounds = {"j_min": j_min, "j_max": j_max, "j0_min": j0_min, "j0_max": j0_max, "beta": beta}
    for name, value in bounds.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not (math.isfinite(j_max - j_min) and math.isfinite(j0_max - j0_min)):
        raise DomainError(f"the scan spans overflow a float: J in [{j_min}, {j_max}], J0 in [{j0_min}, {j0_max}]")
    for j, j0 in itertools.product((j_min, j_max), (j0_min, j0_max)):
        ModelParams(j0, j, beta)  # its products are monotone in j and j0: a corner is refused if any point is
    js = np.linspace(j_min, j_max, resolution)
    j0s = np.linspace(j0_min, j0_max, resolution)
    delta, names, threshold = phase_region_grid(js, j0s, beta)
    return (
        _per_j_line(js.tolist(), resolution),
        itertools.chain.from_iterable(itertools.repeat(j0s.tolist(), resolution)),
        delta.ravel().tolist(),
        names.ravel().tolist(),
        _per_j_line(threshold.tolist(), resolution),
    )


def _per_j_line(values: list[float], resolution: int) -> itertools.chain:
    """Each J line's value on each of the line's rows."""
    return itertools.chain.from_iterable(map(itertools.repeat, values, itertools.repeat(resolution)))


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
    in-row.  The grid is evaluated at once by boundary.phase_region_grid,
    which uses its separability: the exponentials and cosh come from `math`
    once per grid line, because np.exp and np.cosh differ from libm in the
    last bit on some inputs, and the rest is whole-grid numpy in the
    pointwise operation order.  So every row equals, bit for bit, what
    delta_theta, phase_region and dd_threshold give at its point, and the
    scan fails where the first of them would.  The rows are made from the
    grid's columns by tuple.__new__ in C, with no Python call per row; they
    are PhasePoints as PhasePoint(...) makes them.

    Refuses a resolution below 2, non-finite bounds, spans or beta,
    beta <= 0 and a corner that ModelParams refuses (DomainError), and more
    than MAX_SCAN_POINTS points (ResourceLimitError) before anything is
    allocated.
    """
    columns = _phase_columns(j_min, j_max, j0_min, j0_max, beta, resolution)
    return list(map(tuple.__new__, itertools.repeat(PhasePoint), zip(*columns)))
