import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayley_qmc import analysis, boundary
from cayley_qmc.analysis import (
    E11,
    clustering_deviations,
    clustering_transfer,
    fitted_decay_ratio,
    iterate_series,
    lam,
    marker_expectation_closed,
    marker_observable,
    phase_diagram_scan,
    projector_expectation_closed,
    projector_limit_scan,
    projector_observable,
    quasi_gap,
    series_matrix,
    transfer_series,
)
from cayley_qmc.boundary import Branch, dd_threshold, delta_theta, ordered_sign, ordered_xi, phase_region, solve_ordered
from cayley_qmc.errors import DomainError, ModelInconsistencyError, SingularParameterError
from cayley_qmc.model_ops import ModelParams, operator_coeffs, transfer_coeffs, vertex_channel
from cayley_qmc.qmc_state import EvalContext, Observable, eval_recursive
from cayley_qmc.tree import ROOT

POINT = ModelParams(1.0, 0.0, 1.0)
POINTS = (POINT, ModelParams(1.0, 0.3, 1.2), ModelParams(1.5, -0.5, 0.8))


def test_series_initial_conditions():
    ts = transfer_series(POINT)
    xi0 = solve_ordered(POINT)[0].xi0
    assert ts.hat(0, Branch.ORDERED_PLUS) == pytest.approx(1 / xi0, rel=1e-13)
    assert ts.check(0, Branch.ORDERED_PLUS) == 0.0
    # the mirror: hat is even in xi3 and check odd, bit for bit; at n = 0 both
    # checks are +0.0, whose negation would be -0.0
    for n in range(9):
        plus, minus = ts.check(n, Branch.ORDERED_PLUS), ts.check(n, Branch.ORDERED_MINUS)
        assert minus.hex() == (-plus if n else plus).hex()
        assert ts.hat(n, Branch.ORDERED_MINUS).hex() == ts.hat(n, Branch.ORDERED_PLUS).hex()


def test_series_matrix_entries():
    c = transfer_coeffs(POINT)
    plus, _ = solve_ordered(POINT)
    n = series_matrix(POINT, Branch.ORDERED_PLUS)
    assert np.allclose(n, [[c.c1 * plus.xi0, c.c3 * plus.xi3 / 2], [c.c2 * plus.xi3, 0.5]])


@pytest.mark.parametrize("p", POINTS)
@pytest.mark.parametrize("branch", [Branch.ORDERED_PLUS, Branch.ORDERED_MINUS])
def test_series_closed_form_matches_iteration(p, branch):
    ts = transfer_series(p)
    for n in range(7):
        hat, chk = iterate_series(p, branch, n)
        scale = max(1.0, abs(hat), abs(chk))
        assert abs(hat - ts.hat(n, branch)) < 1e-12 * scale
        assert abs(chk - ts.check(n, branch)) < 1e-12 * scale


REFUSAL_POINT = ModelParams(1.0, 0.3, 1.2)
# a str equal to a branch's value is not a Branch: the closed forms refuse it, as solve_branch does
NOT_ORDERED = (
    Branch.DISORDERED,
    Branch.XY_ONLY,
    *(pytest.param(v, id=f"str-{v}") for v in ("disordered", "xy", "plus", "minus")),
)


@pytest.mark.parametrize("branch", NOT_ORDERED)
@pytest.mark.parametrize(
    "closed_form",
    [
        # the disordered marker is 1/2 (eval_recursive: 0.49999999999999967), not
        # the minus branch's 0.0015649141283897766
        lambda p, b: marker_expectation_closed(p, 2, b),
        # the disordered projector is 0.26303136971278446, not the minus branch's 1.34e-08
        lambda p, b: projector_expectation_closed(p, 2, b, "P"),
        lambda p, b: projector_expectation_closed(p, 2, b, "Q"),
        lambda p, b: series_matrix(p, b),
        lambda p, b: iterate_series(p, b, 2),
        lambda p, b: transfer_series(p).hat(2, b),
        lambda p, b: transfer_series(p).check(2, b),
        lambda p, b: clustering_transfer(p, b),
    ],
    ids=["marker", "projector-P", "projector-Q", "series_matrix", "iterate_series", "hat", "check", "clustering"],
)
def test_closed_forms_refuse_a_branch_that_is_not_ordered(closed_form, branch):
    with pytest.raises(DomainError, match="ordered branch"):
        closed_form(REFUSAL_POINT, branch)


def test_clustering_limit_report_refuses_the_disordered_state():
    ctx = EvalContext.create(REFUSAL_POINT, Branch.DISORDERED)
    with pytest.raises(DomainError, match="ordered branch"):
        analysis.clustering_limit_report(ctx, E11)


@pytest.mark.parametrize("which", ["X", "p", "q", "", "PQ"])
def test_projectors_accept_only_p_or_q(which):
    with pytest.raises(DomainError, match="'P' or 'Q'"):
        projector_observable(2, which)
    with pytest.raises(DomainError, match="'P' or 'Q'"):
        projector_expectation_closed(REFUSAL_POINT, 2, Branch.ORDERED_PLUS, which)


def test_series_requires_ising_part():
    with pytest.raises(SingularParameterError):
        transfer_series(ModelParams(0.0, 1.0, 0.5))


def test_projector_hand_value():
    p = POINT
    c = transfer_coeffs(p)
    plus = solve_ordered(p)[0]
    want = (plus.xi0 + plus.xi3) ** 2 * ((c.c1 + c.c2 + c.c3) / 4) / (2 * plus.xi0)
    assert projector_expectation_closed(p, 1, Branch.ORDERED_PLUS, "P") == pytest.approx(want, rel=1e-13)


def test_projector_branch_symmetry():
    for n in (1, 2):
        assert projector_expectation_closed(POINT, n, Branch.ORDERED_PLUS, "P") == pytest.approx(
            projector_expectation_closed(POINT, n, Branch.ORDERED_MINUS, "Q"), rel=1e-14
        )
        assert projector_expectation_closed(POINT, n, Branch.ORDERED_PLUS, "Q") == pytest.approx(
            projector_expectation_closed(POINT, n, Branch.ORDERED_MINUS, "P"), rel=1e-14
        )


def test_projector_matches_evaluation():
    ctx = EvalContext.create(POINT, Branch.ORDERED_MINUS)
    for n in (1, 2):
        for proj in ("P", "Q"):
            closed = projector_expectation_closed(POINT, n, Branch.ORDERED_MINUS, proj)
            ev = eval_recursive(ctx, projector_observable(n, proj)).real
            assert closed == pytest.approx(ev, abs=1e-11)


def test_projector_requires_ordered_phase():
    with pytest.raises(DomainError):
        projector_expectation_closed(ModelParams(0.1, 0.0, 0.1), 1, Branch.ORDERED_PLUS, "P")


def test_projector_limit_scan_decreases():
    rows = projector_limit_scan(1.0, 0.3, 3, [1.0, 2.0, 3.0])
    devs = [r["dev_from_one"] for r in rows]
    assert devs[0] > devs[1] > devs[2]
    qs = [r["phi1_qn"] for r in rows]
    assert qs[0] > qs[1] > qs[2] >= 0.0


def test_marker_closed_matches_evaluation():
    for p in POINTS:
        for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
            ctx = EvalContext.create(p, branch)
            for n in (1, 2):
                closed = marker_expectation_closed(p, n, branch)
                assert closed == pytest.approx(eval_recursive(ctx, marker_observable(n)).real, abs=1e-11)


def composed_marker_closed(p, n, branch):
    """The closed marker from the public pieces, each computing its inputs again: the reference for its bits."""
    c = transfer_coeffs(p)
    xi0, xi3 = ordered_xi(p)
    xi3 = ordered_sign(branch) * xi3
    ts = transfer_series(p)
    edge, drift = xi0 + xi3, c.c1 * xi0 + c.c2 * xi3
    v1 = ordered_sign(branch) * ts.rho1_check
    const = (edge * drift * ts.rho1_hat + (c.c3 / 2) * edge**2 * v1) / 2
    coeff = (edge * drift * ts.rho2_hat + (c.c3 / 2) * edge**2 * (-v1)) / 2
    return const + coeff * lam(p) ** (n - 1)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(-0.95, 0.95), st.floats(0.1, 30.0), st.integers(1, 40))
@example(2.0, 0.0, 30.0, 1)  # 2 C2 C3^2 xi3 overflows although rho1_check is about 4e103
def test_marker_closed_reads_its_inputs_once_bit_for_bit(j0, ratio, beta, n):
    p = ModelParams(j0, j0 * ratio, beta)
    for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
        try:
            want = composed_marker_closed(p, n, branch)
        except DomainError as exc:
            with pytest.raises(type(exc)):
                marker_expectation_closed(p, n, branch)
            continue
        assert marker_expectation_closed(p, n, branch).hex() == want.hex()


def test_marker_tends_to_its_constant():
    const, _, _ = analysis._marker_coeffs(POINT, Branch.ORDERED_PLUS)
    tail = [abs(marker_expectation_closed(POINT, n, Branch.ORDERED_PLUS) - const) for n in (2, 4, 6, 8)]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_quasi_gap_constants():
    g = quasi_gap(POINT)
    c = transfer_coeffs(POINT)
    xi3 = solve_ordered(POINT)[0].xi3
    displayed = c.c3 * xi3 * (2 * c.c2 + c.c3) / (3 * c.c3 - 2 * c.c1)
    assert g.i1 == pytest.approx(abs(displayed), rel=1e-13)
    assert g.i1 > 0
    assert g.lower_bound(2) <= g.lower_bound(6) < g.i1


def test_closed_forms_answer_where_the_check_product_overflows():
    # c2 c3^2 ~ e^720 overflows at beta = 60, but rho1_check does not: the closed forms answer, as the engine does
    p = ModelParams(1.0, 0.3, 60.0)
    engine = eval_recursive(EvalContext.create(p, Branch.ORDERED_PLUS), marker_observable(2))
    assert engine == 1.0
    assert marker_expectation_closed(p, 2, Branch.ORDERED_PLUS) == pytest.approx(1.0, abs=1e-15)
    gap = quasi_gap(p)
    assert all(map(math.isfinite, (gap.i1, gap.i2, gap.lam)))


def test_marker_constants_refuse_finite_inputs_whose_product_overflows(monkeypatch):
    # no solved point reaches this refusal (rho1_check is formed without a spurious overflow), so patch in
    # finite ordered constants whose products with rho1_check overflow
    monkeypatch.setattr(analysis, "ordered_xi", lambda p, coeffs=None: (1e110, 5e109))
    analysis._marker_coeffs.cache_clear()  # a memo of POINT filled earlier would answer without reading them
    with pytest.raises(DomainError, match=r"marker constants overflow a float at .*\(inf, -inf\)"):
        marker_expectation_closed(POINT, 2, Branch.ORDERED_PLUS)


@pytest.mark.parametrize(
    "closed_form",
    [lambda p: marker_expectation_closed(p, 2, Branch.ORDERED_PLUS), quasi_gap, transfer_series],
    ids=["marker", "quasi_gap", "transfer_series"],
)
def test_series_overflow_names_the_point(closed_form):
    # C3^2 ~ e^1200 overflows a float power at beta = 150: the refusal is a DomainError that names the point,
    # and still an OverflowError, as a float power's is
    with pytest.raises(DomainError, match=r"C3\^2 overflows a float at j0=1.0, j=0.3, beta=150.0$") as info:
        closed_form(ModelParams(1.0, 0.3, 150.0))
    assert isinstance(info.value, OverflowError)


def test_transfer_series_forms_rho1_check_without_overflow():
    # 2 C2 C3^2 xi3 overflows here although rho1_check is about 9.07e130: it is
    # formed as 2 C2 xi3 rho1_hat, so the check series is 0 at n = 0, not inf - inf = nan
    p = ModelParams(1.8730946195190907, -1.5183071189741324, 40.43133304755668)
    ts = transfer_series(p)
    assert ts.rho1_check == pytest.approx(9.07e130, rel=1e-3) and math.isfinite(ts.rho1_hat)
    for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
        assert ts.check(0, branch) == 0.0


def test_projector_refuses_depths_beyond_a_double():
    p = ModelParams(1.0, 0.3, 1.0)
    assert projector_expectation_closed(p, 1000, Branch.ORDERED_PLUS, "P") == 0.0  # underflows, a fine answer
    for n in (1023, 1024, 5000):
        with pytest.raises(DomainError, match=f"n = {n}"):
            projector_expectation_closed(p, n, Branch.ORDERED_PLUS, "P")


def test_quasi_gap_requires_inner_strip():
    with pytest.raises(DomainError):
        quasi_gap(ModelParams(1.0, 2.0, 0.5))


def test_lambda_is_contractive_in_the_inner_strip():
    # |C1/C3 - 1/2| < 1/2 across the admissible ordered region, theta large
    for j0, j in ((1.0, 0.0), (1.0, 0.5), (1.5, -1.0)):
        for beta in np.linspace(0.6, 3.0, 9):
            p = ModelParams(j0, j, float(beta))
            if analysis.delta_theta(p) <= 0:
                continue
            assert abs(lam(p)) < 0.5


def test_clustering_transfer_structure():
    for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
        ct = clustering_transfer(POINT, branch)
        evals = np.linalg.eigvals(ct.matrix_a)
        assert sorted(np.real(evals)) == pytest.approx(sorted(ct.eigenvalues), abs=1e-12)
        # eigenvalue-1 eigenvector is fixed by the matrix
        w, v = np.linalg.eig(ct.matrix_a)
        fix = v[:, np.argmin(np.abs(w - 1))]
        assert np.linalg.norm(ct.matrix_a @ fix - fix) < 1e-12
        assert ct.eigenvalues[1] == pytest.approx(lam(POINT), rel=1e-13)


def test_clustering_alpha_decomposition():
    # Tr_parent(A (f x h x h) A*) = a1 f + a2 {f, sz} + a3 sz f sz, per branch
    rng = np.random.default_rng(11)
    sz = np.diag([1.0, -1.0]).astype(complex)
    for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
        ctx = EvalContext.create(POINT, branch)
        ct = clustering_transfer(POINT, branch)
        for _ in range(4):
            f = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = vertex_channel(ctx.vertex, f, ctx.h, ctx.h)
            want = ct.alpha1 * f + ct.alpha2 * (f @ sz + sz @ f) + ct.alpha3 * (sz @ f @ sz)
            assert np.max(np.abs(got - want)) < 1e-12


def test_clustering_identity_ties_sections():
    c = transfer_coeffs(POINT)
    xi0 = solve_ordered(POINT)[0].xi0
    assert (c.c1 - c.c3 / 2) * xi0 == pytest.approx(lam(POINT), rel=1e-14)


def test_clustering_limit_report(ctx_plus, ctx_minus):
    # the per-vertex pipeline reproduces the asymptotic value; the one-line
    # displayed combination does not, and is reported rather than asserted
    for ctx in (ctx_plus, ctx_minus):
        rep = analysis.clustering_limit_report(ctx, E11)
        assert rep.structural_dev < 1e-10
        assert math.isfinite(rep.displayed_dev)


def test_marker_gap_numeric_at_depth_two(ctx_plus, ctx_minus):
    # the reduced oracle confirms the closed gap bound at the two-level ball
    from cayley_qmc.qmc_state import eval_sparse

    p = ctx_plus.params
    g = quasi_gap(p)
    obs = marker_observable(2)
    numeric = abs(eval_sparse(ctx_plus, obs, 2).real - eval_sparse(ctx_minus, obs, 2).real)
    assert numeric >= g.lower_bound(2) - 1e-12


def test_decay_rate_fits_lambda(ctx_plus):
    obs = Observable.single(ROOT, E11)
    rows = clustering_deviations(ctx_plus, obs, obs, [3, 4, 5, 6])
    fitted = fitted_decay_ratio(rows)
    target = abs(lam(ctx_plus.params))
    assert abs(fitted - target) / target < 0.1


def test_phase_scan_rows_and_symmetry():
    rows = phase_diagram_scan(-1.0, 1.0, 0.2, 1.4, 1.0, 5)
    assert len(rows) == 25
    assert rows[0].j == -1.0 and rows[0].j0 == 0.2
    by_key = {(r.j, r.j0): r for r in rows}
    for r in rows:
        mirror = by_key[(-r.j, r.j0)]
        if math.isnan(r.delta):
            assert math.isnan(mirror.delta)
        else:
            assert mirror.delta == pytest.approx(r.delta, abs=1e-14)


def test_phase_scan_flags_singular_rows():
    rows = phase_diagram_scan(0.5, 1.5, 0.5, 1.5, 0.7, 3)
    flagged = [r for r in rows if r.classification == "Singular"]
    assert flagged and all(math.isnan(r.delta) for r in flagged)
    assert all(r.j == r.j0 for r in flagged)



def _scan_reference(j_min, j_max, j0_min, j0_max, beta, resolution):
    """The scan point by point through the scalar functions, as the rows are defined."""
    rows = []
    for j in np.linspace(j_min, j_max, resolution).tolist():
        for j0 in np.linspace(j0_min, j0_max, resolution).tolist():
            threshold = dd_threshold(j, beta)
            try:
                delta_theta(ModelParams(j0, j, beta))
            except SingularParameterError:
                rows.append((j, j0, math.nan, "Singular", threshold))
                continue
            region = phase_region(ModelParams(j0, j, beta))
            rows.append((j, j0, region.delta, region.classification.value, threshold))
    return rows


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def _outcome(scan, *args):
    try:
        return [_bits(r) for r in scan(*args)]
    except (OverflowError, DomainError) as exc:
        return type(exc), str(exc)


def _assert_scan_matches_reference(*args):
    """Same rows bit for bit, or the same exception with the same message."""
    assert _outcome(phase_diagram_scan, *args) == _outcome(_scan_reference, *args)


coupling = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(coupling, coupling, coupling, coupling, st.floats(0.05, 5.0), st.integers(2, 12), st.sampled_from([0, 1, -1]))
def test_phase_scan_rows_equal_the_scalar_functions(j_a, j_b, j0_a, j0_b, beta, resolution, mirror):
    # mirror = +-1 puts the J0 grid on the J grid (or its negative), so the
    # diagonal rows are exactly J = +-J0
    j_min, j_max = sorted((j_a, j_b))
    j0_min, j0_max = (j0_a, j0_b) if mirror == 0 else sorted((mirror * j_min, mirror * j_max))
    _assert_scan_matches_reference(j_min, j_max, j0_min, j0_max, beta, resolution)


def test_phase_scan_exact_singular_points_match_the_scalar_functions():
    _assert_scan_matches_reference(-1.5, 1.5, -1.5, 1.5, 0.8, 7)
    rows = phase_diagram_scan(-1.5, 1.5, -1.5, 1.5, 0.8, 7)
    singular = [(r.j, r.j0) for r in rows if r.classification == "Singular"]
    assert len(singular) == 13  # both diagonals, crossing at J = J0 = 0
    assert all(j == j0 or j == -j0 for j, j0 in singular)


@pytest.mark.parametrize(
    "args",
    [
        # every point is J = +-J0, where e^{4 J0 beta} (it overflows at
        # beta = 100) is never formed: no error
        (-2.0, 2.0, 2.0, 2.0, 100.0, 2),
        (-2.0, 2.0, -2.0, 2.0, 100.0, 3),  # e^{4 J0 beta} overflows at J = 0, J0 = 2
        (-3.6, 3.6, -3.0, 0.0, 100.0, 5),  # cosh(2 J beta) overflows on the first row
        (-1.0, 1.0, 0.2, 1.2, 400.0, 4),
        # J0 = 0.8999999999999999 against J = -0.9: den cancels to 9.1e-13, of
        # the wrong sign, within rounding of e^{4 J0 beta}: both flag it Singular
        (-1.5, 0.0, 0.0, 1.5, 2.5, 6),
    ],
)
def test_phase_scan_raises_where_a_point_would(args):
    _assert_scan_matches_reference(*args)


def test_phase_scan_flags_points_within_rounding_of_the_diagonal():
    # den's rounding error scales with e^{4 J0 beta}: one ulp off J = -J0 it used
    # to fail the region cross-check (beta 2.5) or print Delta ~ -2e5 with at most
    # one correct digit (beta 2)
    rows = {(r.j, r.j0): r for r in phase_diagram_scan(-1.5, 0.0, 0.0, 1.5, 2.5, 6)}
    assert rows[(-0.9000000000000000, 0.8999999999999999)].classification == "Singular"
    rows = {(r.j, r.j0): r for r in phase_diagram_scan(-3.0, 3.0, -3.0, 3.0, 2.0, 61)}
    near = rows[(-2.8999999999999999, 2.9000000000000004)]
    assert near.classification == "Singular" and math.isnan(near.delta)
    _assert_scan_matches_reference(-3.0, 3.0, -3.0, 3.0, 2.0, 61)  # the grid's cut is the scalar one


def test_fitted_decay_ratio_stops_at_rounding():
    rows = [{"deviation": d} for d in (1e-3, 1e-4, 1e-5, 2e-12, 1e-3)]
    assert fitted_decay_ratio(rows) == pytest.approx(0.1, rel=1e-12)
    for devs in ((1e-3, 1e-11), (0.0, 1e-3, 1e-4), (1e-13, 1e-14)):
        with pytest.raises(DomainError, match="two leading deviations above 1e-11"):
            fitted_decay_ratio([{"deviation": d} for d in devs])


def test_phase_scan_cross_check_still_fails(monkeypatch):
    # a wrong threshold contradicts the sign of Delta inside |J| < J0
    monkeypatch.setattr(boundary, "dd_threshold", lambda j, beta: 100.0)
    with pytest.raises(ModelInconsistencyError, match="region check failed"):
        phase_diagram_scan(-1.0, 1.0, 0.2, 1.4, 1.0, 5)
    # the first failing point in row order decides which error a grid raises;
    # e^{4 J0 beta} overflows at J0 = 2, beta = 100
    _assert_scan_matches_reference(-0.1, 0.1, 0.5, 2.0, 100.0, 3)  # the cross-check fails first
    _assert_scan_matches_reference(-0.1, 0.1, 2.0, 0.5, 100.0, 3)  # the overflow comes first
