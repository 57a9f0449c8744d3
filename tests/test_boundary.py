import math

import numpy as np
import pytest

from cayley_qmc.boundary import (
    Branch,
    Classification,
    _solution,
    dd_threshold,
    delta_theta,
    fixed_point_residual,
    ordered_sign,
    phase_region,
    solve_branch,
    solve_ordered,
    xy_alpha_report,
)
from cayley_qmc.errors import DomainError, ModelInconsistencyError, SingularParameterError, SolutionNotPositiveError
from cayley_qmc.linalg import normalized_trace
from cayley_qmc.model_ops import ModelParams, transfer_coeffs, vertex_operator


def test_delta_boundary_point():
    # theta = 3, j0 = 1, j = 0: (9 - 6 - 3) / (9 - 6 + 1) = 0
    p = ModelParams(1.0, 0.0, math.log(3) / 2)
    assert abs(delta_theta(p)) < 1e-14


def test_delta_known_value():
    assert delta_theta(ModelParams(1.0, 0.0, 1.0)) == pytest.approx(0.9020, abs=5e-5)


def test_delta_positive_outside_the_diagonal_strip():
    for beta in (0.2, 0.7, 1.5):
        assert delta_theta(ModelParams(1.0, 2.0, beta)) > 0


def test_delta_singular_on_excluded_lines():
    with pytest.raises(SingularParameterError):
        delta_theta(ModelParams(1.0, 1.0, 0.5))
    with pytest.raises(SingularParameterError):
        delta_theta(ModelParams(1.0, -1.0, 0.5))


def test_delta_singular_within_rounding_of_the_diagonal():
    # one ulp off J = -J0, den cancels to 9.1e-13 (of the wrong sign), inside the
    # rounding of e^{4 J0 beta} = 8.1e3; an absolute 1e-14 cut let Delta = -4.4e12 through
    near = ModelParams(0.8999999999999999, -0.9, 2.5)
    with pytest.raises(SingularParameterError, match="denominator 9.095e-13 vanishes"):
        delta_theta(near)
    with pytest.raises(SingularParameterError):
        phase_region(near)


def test_delta_equals_coefficient_ratio():
    for j0 in (0.3, 1.0, 1.8):
        for j in (-0.8, 0.0, 0.6, 2.5):
            for beta in (0.3, 1.0):
                if abs(j) == j0:
                    continue
                p = ModelParams(j0, j, beta)
                c = transfer_coeffs(p)
                if c.c2 == 0:
                    continue
                ratio = (c.c3 - c.c1) / c.c2
                assert delta_theta(p) == pytest.approx(ratio, rel=1e-12, abs=1e-12)


def test_phase_region_examples():
    assert phase_region(ModelParams(1.0, 2.0, 0.5)).classification is Classification.PHASE_TRANSITION
    assert phase_region(ModelParams(0.1, 0.0, 0.1)).classification is Classification.UNIQUE
    assert phase_region(ModelParams(1.0, 0.0, math.log(3) / 2)).classification is Classification.BOUNDARY


def test_threshold_matches_delta_sign_on_a_grid():
    beta = 0.8
    for j in np.linspace(-1.5, 1.5, 11):
        t = dd_threshold(float(j), beta)
        for j0 in (t * 0.9, t * 1.1):
            if j0 <= abs(j):
                continue
            p = ModelParams(float(j0), float(j), beta)
            assert (delta_theta(p) > 0) == (j0 > t)


def test_solve_disordered_trivial():
    sol = solve_branch(ModelParams(0.0, 0.0, 1.0), Branch.DISORDERED)
    assert np.allclose(sol.h, np.eye(2))
    assert np.allclose(sol.omega0, np.eye(2))


def test_solve_disordered_fixed_point():
    sol = solve_branch(ModelParams(1.0, 0.5, 0.5), Branch.DISORDERED)
    assert sol.residual < 1e-10
    assert abs(normalized_trace(sol.omega0 @ sol.h) - 1) <= 1e-15
    assert sol.alpha == pytest.approx(1 / transfer_coeffs(ModelParams(1.0, 0.5, 0.5)).c1, rel=1e-14)


def test_solve_ordered_known_values():
    p = ModelParams(1.0, 0.0, 1.0)
    plus, minus = solve_ordered(p)
    xi0 = 2 / (math.exp(4) - 1)
    assert plus.xi0 == pytest.approx(xi0, rel=1e-12)
    assert plus.xi3 == pytest.approx(xi0 * math.sqrt(delta_theta(p)), rel=1e-12)
    assert plus.residual < 1e-10 and minus.residual < 1e-10
    assert np.allclose(plus.h, np.diag([plus.xi0 + plus.xi3, plus.xi0 - plus.xi3]))
    assert np.allclose(minus.h, np.diag([plus.xi0 - plus.xi3, plus.xi0 + plus.xi3]))


def test_every_solution_is_diagonal_and_the_ordered_pair_differs_in_the_sign_of_xi3():
    assert (ordered_sign(Branch.ORDERED_PLUS), ordered_sign(Branch.ORDERED_MINUS)) == (1.0, -1.0)
    for branch in (Branch.DISORDERED, Branch.XY_ONLY):
        with pytest.raises(DomainError, match="ordered branch"):
            ordered_sign(branch)
    p = ModelParams(1.0, 0.3, 1.2)
    plus, minus = solve_ordered(p)
    xy = solve_branch(ModelParams(0.0, 0.3, 1.2), Branch.XY_ONLY)
    for sol in (plus, minus, solve_branch(p, Branch.DISORDERED), xy):
        for m in (sol.h, sol.omega0):
            assert np.array_equal(m, np.diag(np.diagonal(m)))
    assert np.array_equal(minus.h, plus.h[::-1, ::-1]) and np.array_equal(minus.omega0, plus.omega0)


def test_solve_ordered_empty_below_threshold():
    assert solve_ordered(ModelParams(0.1, 0.0, 0.1)) is None


def test_solve_ordered_dichotomy():
    for j0, j, beta in [(1.0, 0.5, 0.8), (1.0, 0.2, 0.4), (0.6, 0.0, 1.4), (1.4, -0.9, 0.3)]:
        p = ModelParams(j0, j, beta)
        assert (solve_ordered(p) is not None) == (delta_theta(p) > 0)


@pytest.mark.parametrize(
    ("j0", "j", "beta"), [(1.0, 0.5, 0.8), (1.0, 0.0, 1.0), (1.4, -0.9, 1.3), (1.0, 0.3, 5.0), (2.0, 1.9, 2.0)]
)
def test_solve_branch_is_its_half_of_solve_ordered(j0, j, beta):
    p = ModelParams(j0, j, beta)
    pair = solve_ordered(p)
    for branch, want in zip((Branch.ORDERED_PLUS, Branch.ORDERED_MINUS), pair):
        got = solve_branch(p, branch)
        assert got is want
        assert (got.branch, got.xi0, got.xi3, got.alpha) == (want.branch, want.xi0, want.xi3, want.alpha)
        assert got.residual.hex() == want.residual.hex()
        assert got.h.tobytes() == want.h.tobytes() and got.omega0.tobytes() == want.omega0.tobytes()


@pytest.mark.parametrize(
    ("j0", "j", "beta", "error"),
    [
        (0.1, 0.0, 0.1, DomainError),  # Delta <= 0
        (1.0, 0.9, 0.5, DomainError),  # Delta <= 0 inside the strip
        (1.0, 2.0, 0.5, SolutionNotPositiveError),  # |J| > J0
        (1.0, -1.5, 0.8, SolutionNotPositiveError),
        (0.0, 1.0, 0.5, DomainError),  # no Ising part
        (1.0, 1.0, 0.5, SingularParameterError),  # J = J0
    ],
)
def test_solve_branch_refuses_as_solve_ordered(j0, j, beta, error):
    p = ModelParams(j0, j, beta)
    try:
        want = solve_ordered(p)  # None where Delta <= 0
    except error as exc:
        want = str(exc)
    for branch in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS):
        with pytest.raises(error) as got:
            solve_branch(p, branch)
        if want is None:
            assert str(got.value).startswith("no ordered phase")
        else:
            assert str(got.value) == want


def test_solve_ordered_not_positive_outside_strip():
    # |J| > J0 gives Delta > 1, so xi3 > xi0 and both formal solutions are indefinite
    with pytest.raises(SolutionNotPositiveError):
        solve_ordered(ModelParams(1.0, 2.0, 0.5))


def test_solve_ordered_refuses_vanishing_ising_part():
    with pytest.raises(DomainError):
        solve_ordered(ModelParams(0.0, 1.0, 0.5))


def test_residual_detects_non_solutions():
    p = ModelParams(1.0, 0.5, 0.8)
    assert fixed_point_residual(p, 2 * np.eye(2, dtype=complex)) > 0.01


def test_solve_xy_only():
    sol = solve_branch(ModelParams(0.0, 0.0, 1.0), Branch.XY_ONLY)
    assert np.allclose(sol.h, np.eye(2))
    sol = solve_branch(ModelParams(0.0, 1.0, 0.7), Branch.XY_ONLY)
    assert sol.residual < 1e-10
    assert sol.alpha == pytest.approx(1 / math.cosh(0.7) ** 2, rel=1e-12)
    with pytest.raises(DomainError):
        solve_branch(ModelParams(0.5, 1.0, 0.7), Branch.XY_ONLY)


def test_xy_alpha_report_flags_the_displayed_value():
    rep = xy_alpha_report(ModelParams(0.0, 1.0, math.log(2)))
    assert rep.displayed_inverse_alpha == pytest.approx(9 / 16 + 2 * (9 / 16) ** 2 + 1 / 64, rel=1e-14)
    assert rep.oracle_inverse_alpha == pytest.approx(25 / 16, rel=1e-12)
    assert not rep.matches


def test_fixed_point_check_is_relative_for_small_h():
    # at beta = 60 the disordered h = 1/C1 is about 2e-104: an absolute 1e-10
    # bound would pass any h that small, a non-solution included
    p = ModelParams(1.0, 0.3, 60.0)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ModelInconsistencyError):
        _solution(p, Branch.DISORDERED, 1e-100 * eye, 1e100 * eye)
    sol = solve_branch(p, Branch.DISORDERED)
    assert 0 < sol.residual <= 1e-10 * np.linalg.norm(sol.h)


def test_each_solution_is_built_once_shared_and_read_only():
    ordered, xy = ModelParams(1.0, 0.3, 1.2), ModelParams(0.0, 1.0, 0.7)
    plus, minus = solve_ordered(ordered)
    for p, branch, sol in (
        (ordered, Branch.DISORDERED, solve_branch(ordered, Branch.DISORDERED)),
        (ordered, Branch.ORDERED_PLUS, plus),
        (ordered, Branch.ORDERED_MINUS, minus),
        (xy, Branch.XY_ONLY, solve_branch(xy, Branch.XY_ONLY)),
    ):
        assert solve_branch(p, branch) is sol
        assert solve_branch(ModelParams(p.j0, p.j, p.beta), branch) is sol  # an equal key, not the same object
        for a in (sol.h, sol.omega0):
            with pytest.raises(ValueError):
                a[0, 0] = 0
    assert all(s is t for s, t in zip(solve_ordered(ordered), (plus, minus)))


@pytest.mark.parametrize(
    ("p", "branch", "error"),
    [
        (ModelParams(0.1, 0.0, 0.1), Branch.ORDERED_PLUS, DomainError),  # Delta < 0
        (ModelParams(1.0, 2.0, 0.5), Branch.ORDERED_MINUS, SolutionNotPositiveError),  # |J| > J0
        (ModelParams(0.5, 1.0, 0.7), Branch.XY_ONLY, DomainError),  # j0 != 0
        (ModelParams(1.0, 1.0, 0.5), Branch.ORDERED_PLUS, SingularParameterError),  # J = J0
    ],
)
def test_refusals_are_not_cached(p, branch, error):
    for _ in range(2):
        with pytest.raises(error):
            solve_branch(p, branch)


@pytest.mark.parametrize(
    ("zero", "negative_zero", "branches"),
    [
        (ModelParams(0.0, 1.0, 0.7), ModelParams(-0.0, 1.0, 0.7), (Branch.XY_ONLY, Branch.DISORDERED)),
        (
            ModelParams(1.0, 0.0, 1.0),
            ModelParams(1.0, -0.0, 1.0),
            (Branch.DISORDERED, Branch.ORDERED_PLUS, Branch.ORDERED_MINUS),
        ),
    ],
)
def test_signed_zeros_share_one_solution_with_the_same_bits(zero, negative_zero, branches):
    # the two parameter sets are equal keys, so the memo hands the first one's
    # solution to both: built apart (memos bypassed) they agree bit for bit
    assert zero == negative_zero
    assert vertex_operator.__wrapped__(zero).tobytes() == vertex_operator.__wrapped__(negative_zero).tobytes()
    for branch in branches:
        assert solve_branch(zero, branch) is solve_branch(negative_zero, branch)
        a, b = (solve_branch.__wrapped__(p, branch) for p in (zero, negative_zero))
        assert (a.h.tobytes(), a.omega0.tobytes()) == (b.h.tobytes(), b.omega0.tobytes())
        assert repr((a.residual, a.xi0, a.xi3, a.alpha)) == repr((b.residual, b.xi0, b.xi3, b.alpha))


def test_a_branch_is_not_its_str_value():
    assert Branch.ORDERED_PLUS != "plus"
    assert Branch("plus") is Branch.ORDERED_PLUS and Branch.ORDERED_PLUS.value == "plus"


@pytest.mark.parametrize("branch", ["plus", "minus", "disordered", "xy", "bogus", None])
def test_solve_branch_refuses_a_branch_that_is_not_a_branch(branch):
    # a str equal to a Branch's value used to come back with a str .branch, or fail on .value
    p = ModelParams(1.0, 0.3, 1.2)
    solve_ordered(p)  # the Branch entries are cached: the str must not hit them
    for _ in range(2):
        with pytest.raises(DomainError, match="branch must be a Branch"):
            solve_branch(p, branch)


def test_ordered_sign_names_a_value_that_is_not_a_branch():
    for branch in ("disordered", "xy", 3):
        with pytest.raises(DomainError, match=f"ordered branch .*got {branch!r}"):
            ordered_sign(branch)
