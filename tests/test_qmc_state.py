import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_qmc
from cayley_qmc.analysis import (
    E11,
    marker_expectation_closed,
    projector_expectation_closed,
    projector_observable,
)
from cayley_qmc.boundary import Branch, BoundarySolution, delta_theta
from cayley_qmc.errors import DomainError, ResourceLimitError
from cayley_qmc.linalg import dagger, normalized_partial_trace, normalized_trace
from cayley_qmc.model_ops import PAULI, ModelParams, transfer_coeffs, vertex_channel
from cayley_qmc.qmc_state import (
    EvalContext,
    Observable,
    ObservableTerm,
    compatibility_residual,
    channel_tensor,
    correlation,
    eval_bruteforce,
    eval_recursive,
    eval_sparse,
    multiply_observables,
    random_product_observable,
    reduced_weight,
    translate_observable,
    weight_matrix,
)
from cayley_qmc.tree import ROOT, TreeCoord, ball_vertices

from conftest import ORDERED_POINT


def test_observable_json_roundtrip(rng):
    obs = Observable(
        (
            ObservableTerm(1.5 - 0.5j, ((TreeCoord((1,)), PAULI["Z"]), (TreeCoord((2, 1)), PAULI["X"]))),
            ObservableTerm(0.25, ()),
        )
    )
    doc = obs.to_json_dict()
    back = Observable.from_json_dict(doc)
    assert back.support == obs.support
    assert back.terms[0].coeff == obs.terms[0].coeff
    for (s1, m1), (s2, m2) in zip(back.terms[0].factors, obs.terms[0].factors):
        assert s1 == s2 and np.allclose(m1, m2)


def test_observable_json_pauli_factors():
    doc = {"terms": [{"coeff": [2.0, 0.0], "factors": [{"site": [1, 2], "pauli": "Y"}]}]}
    obs = Observable.from_json_dict(doc)
    assert obs.terms[0].coeff == 2.0
    assert np.allclose(obs.terms[0].factors[0][1], PAULI["Y"])
    with pytest.raises(DomainError):
        Observable.from_json_dict({"terms": [{"coeff": 1.0, "factors": [{"site": [1]}]}]})


def test_observable_duplicate_sites_rejected():
    with pytest.raises(DomainError):
        ObservableTerm(1.0, ((ROOT, PAULI["X"]), (ROOT, PAULI["Y"])))


def test_translate_and_multiply():
    f = Observable.single(TreeCoord((1,)), PAULI["X"])
    shifted = translate_observable(f, TreeCoord((2,)))
    assert shifted.support == {TreeCoord((2, 1))}

    a = Observable.single(ROOT, PAULI["X"])
    b = Observable.single(ROOT, PAULI["Y"])
    prod = multiply_observables(a, b)
    # overlapping sites multiply in (a, b) order: sx sy = i sz
    assert np.allclose(prod.terms[0].factors[0][1], 1j * PAULI["Z"])


def test_weight_matrix_trivial_params():
    ctx = EvalContext.create(ModelParams(0.0, 0.0, 1.0), Branch.XY_ONLY)
    w = weight_matrix(ctx, 0)
    assert np.allclose(w.matrix, np.eye(8))


def test_weight_matrix_positive_and_normalized(ctx_plus):
    for n in (0, 1):
        w = weight_matrix(ctx_plus, n)
        eigs = np.linalg.eigvalsh(w.matrix)
        assert eigs.min() > -1e-12
        assert normalized_trace(w.matrix) == pytest.approx(1.0, abs=1e-12)


def test_weight_matrix_guard(ctx_plus):
    with pytest.raises(ResourceLimitError):
        weight_matrix(ctx_plus, 2)


def test_bruteforce_identity_and_flip_symmetry(ctx_disordered):
    assert eval_bruteforce(ctx_disordered, Observable.identity(), 1) == pytest.approx(1.0, abs=1e-12)
    val = eval_bruteforce(ctx_disordered, Observable.single(ROOT, PAULI["Z"]), 0)
    assert abs(val) < 1e-12


def test_bruteforce_support_guard(ctx_plus):
    obs = Observable.single(TreeCoord((1, 1)), PAULI["Z"])
    with pytest.raises(DomainError):
        eval_bruteforce(ctx_plus, obs, 0)


def contract_vertex(ctx, root, left, right):
    """One vertex through the context's channel tensor."""
    t, _ = channel_tensor(ctx)
    flat = (np.asarray(m, dtype=complex).reshape(4) for m in (root, left, right))
    return np.einsum("oabc,a,b,c->o", t, *flat).reshape(2, 2)


def test_channel_tensor_matches_vertex_channel(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, rng):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        t, t_h = channel_tensor(ctx)
        assert channel_tensor(ctx)[0] is t  # built once per context
        for _ in range(5):
            a, b1, b2 = ((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for _ in range(3))
            want = vertex_channel(ctx.vertex, a, b1, b2)
            assert np.max(np.abs(contract_vertex(ctx, a, b1, b2) - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
            want = vertex_channel(ctx.vertex, a, ctx.h, ctx.h)
            got = (t_h @ a.reshape(4)).reshape(2, 2)
            assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))


def test_contract_vertex_fixed_point(ctx_plus, ctx_minus, ctx_disordered):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered):
        out = contract_vertex(ctx, PAULI["I"], ctx.h, ctx.h)
        assert np.linalg.norm(out - ctx.h) < 1e-10


def test_contract_vertex_factorizes_without_coupling():
    ctx = EvalContext.create(ModelParams(0.0, 0.0, 0.7), Branch.XY_ONLY)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = contract_vertex(ctx, a, b1, b2)
    assert np.allclose(got, a * normalized_trace(b1) * normalized_trace(b2), atol=1e-13)


def test_contract_vertex_projector_block(ctx_plus):
    # (1, e11 h, e11 h) picks up (xi0+xi3)^2 (C1+C2+C3)/4 on the e11 entry
    sol = ctx_plus.solution
    c = transfer_coeffs(ctx_plus.params)
    e11h = E11 @ ctx_plus.h
    got = contract_vertex(ctx_plus, PAULI["I"], e11h, e11h)
    want = (sol.xi0 + sol.xi3) ** 2 * (c.c1 + c.c2 + c.c3) / 4
    assert got[0, 0].real == pytest.approx(want, rel=1e-12)


def unshared_recursive(ctx, obs):
    """The recursive route one vertex at a time, with no subtree shared: the reference for sharing."""
    t, t_h = channel_tensor(ctx)
    (term,) = obs.terms
    fmap = term.factor_map
    active = {TreeCoord(s.digits[:k]) for s in fmap for k in range(s.level + 1)} | {ROOT}

    def value(x):
        f = fmap.get(x, PAULI["I"]).reshape(1, 4)
        kids = [TreeCoord(x.digits + (d,)) for d in (1, 2)]
        if not any(c in active for c in kids):
            return np.einsum("oa,na->no", t_h, f)
        left, right = (value(c) if c in active else ctx.h.reshape(1, 4) for c in kids)
        return np.einsum("oabc,na,nb,nc->no", t, f, left, right)

    return term.coeff * normalized_trace(ctx.omega0 @ value(ROOT).reshape(2, 2))


def test_subtree_sharing_is_exact(ctx_plus, ctx_minus, rng):
    for ctx in (ctx_plus, ctx_minus):
        shared = Observable.product({s: E11 for s in ball_vertices(6, 2)})
        copies = Observable.product({s: E11.copy() for s in ball_vertices(6, 2)})
        value = eval_recursive(ctx, shared)
        assert eval_recursive(ctx, copies) == value
        assert unshared_recursive(ctx, copies) == value
        # a random product on the 4-ball shares nothing, and still matches bit for bit
        obs = random_product_observable(rng, ball_vertices(4, 2))
        assert eval_recursive(ctx, obs) == unshared_recursive(ctx, obs)


def test_recursive_normalization(ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        assert eval_recursive(ctx, Observable.identity()) == pytest.approx(1.0, abs=1e-12)


def test_recursive_matches_bruteforce(ctx_plus, ctx_minus, ctx_disordered, rng):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered):
        for _ in range(5):
            obs = random_product_observable(rng, ball_vertices(1, 2))
            assert abs(eval_recursive(ctx, obs) - eval_bruteforce(ctx, obs, 1)) < 1e-10


def test_recursive_deep_site_is_cheap(ctx_plus):
    obs = Observable.single(TreeCoord((1,) * 5), PAULI["Z"])
    value = eval_recursive(ctx_plus, obs)
    assert np.isfinite(value.real) and abs(value.imag) < 1e-12


def test_recursive_positivity(ctx_plus, rng):
    for _ in range(5):
        term = random_product_observable(rng, [ROOT, TreeCoord((1,)), TreeCoord((2, 2))]).terms[0]
        adj = ObservableTerm(np.conj(term.coeff), tuple((s, dagger(m)) for s, m in term.factors))
        prod = multiply_observables(Observable((adj,)), Observable((term,)))
        assert eval_recursive(ctx_plus, prod).real >= -1e-10


def test_recursive_identity_padding_absorbed(ctx_plus, ctx_minus):
    for ctx in (ctx_plus, ctx_minus):
        base = Observable.single(TreeCoord((1,)), E11)
        padded = Observable.product(
            {TreeCoord((1,)): E11, TreeCoord((2, 1)): PAULI["I"], TreeCoord((1, 2, 2)): PAULI["I"]}
        )
        assert abs(eval_recursive(ctx, base) - eval_recursive(ctx, padded)) < 1e-12


def test_same_level_translation_invariance(ctx_plus, ctx_disordered):
    for ctx in (ctx_plus, ctx_disordered):
        lvl1 = [eval_recursive(ctx, Observable.single(TreeCoord((d,)), E11)) for d in (1, 2)]
        lvl2 = [
            eval_recursive(ctx, Observable.single(TreeCoord(d), E11))
            for d in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
        assert max(abs(v - lvl1[0]) for v in lvl1) < 1e-10
        assert max(abs(v - lvl2[0]) for v in lvl2) < 1e-10


def test_cross_level_deviation_is_the_closed_form_transient(ctx_plus, ctx_disordered):
    # ordered states are only level-wise invariant: the level-1 vs level-2
    # marker gap is exactly the lam^(n-1) transient of the closed form
    p = ctx_plus.params
    v1 = eval_recursive(ctx_plus, Observable.single(TreeCoord((1,)), E11)).real
    v2 = eval_recursive(ctx_plus, Observable.single(TreeCoord((1, 1)), E11)).real
    want = marker_expectation_closed(p, 1, Branch.ORDERED_PLUS) - marker_expectation_closed(
        p, 2, Branch.ORDERED_PLUS
    )
    assert v1 - v2 == pytest.approx(want, abs=1e-12)
    assert abs(v1 - v2) > 1e-6  # the deviation is real, not hidden

    w1 = eval_recursive(ctx_disordered, Observable.single(TreeCoord((1,)), E11)).real
    w2 = eval_recursive(ctx_disordered, Observable.single(TreeCoord((1, 1)), E11)).real
    assert abs(w1 - w2) < 1e-12  # the uniform branch is fully invariant


def test_sparse_matches_dense(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, rng):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        for n in (0, 1):
            literal = normalized_partial_trace(weight_matrix(ctx, n), ball_vertices(n, 2))
            reduced = reduced_weight(ctx, n)
            assert reduced.sites == literal.sites
            assert np.max(np.abs(reduced.matrix - literal.matrix)) < 1e-12
            for _ in range(3):
                obs = random_product_observable(rng, ball_vertices(n, 2))
                assert abs(eval_sparse(ctx, obs, n) - eval_bruteforce(ctx, obs, n)) < 1e-12


def test_sparse_depth_two_matches_recursive(ctx_plus, rng):
    for _ in range(2):
        obs = random_product_observable(rng, ball_vertices(2, 2))
        assert abs(eval_sparse(ctx_plus, obs, 2) - eval_recursive(ctx_plus, obs)) < 1e-10


def test_reduced_weight_hermitian_and_normalized(ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        for n in (0, 1, 2):
            w = reduced_weight(ctx, n)
            assert w.sites == tuple(ball_vertices(n, 2))
            assert np.max(np.abs(w.matrix - dagger(w.matrix))) < 1e-12
            assert abs(normalized_trace(w.matrix) - 1) < 1e-12


def test_sparse_multi_term_matches_recursive(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, rng):
    sites = ball_vertices(2, 2)
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        for _ in range(3):
            terms = []
            for size in (1, 3, 7):
                picked = [sites[i] for i in sorted(rng.choice(len(sites), size=size, replace=False))]
                coeff = complex(rng.normal(), rng.normal())
                term = random_product_observable(rng, picked).terms[0]
                terms.append(ObservableTerm(coeff, term.factors))
            obs = Observable(tuple(terms) + (ObservableTerm(0.5, ()),))
            assert abs(eval_sparse(ctx, obs, 2) - eval_recursive(ctx, obs)) < 1e-10


def test_oracle_runs_without_scipy():
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from cayley_qmc import Branch, EvalContext, ModelParams, acceptance
        from cayley_qmc.qmc_state import eval_sparse, random_product_observable
        from cayley_qmc.tree import ball_vertices
        import numpy as np

        ctx = EvalContext.create(ModelParams(1.0, 0.5, 0.8), Branch.ORDERED_PLUS)
        obs = random_product_observable(np.random.default_rng(0), ball_vertices(2, 2))
        assert np.isfinite(eval_sparse(ctx, obs, 2))
        for result in (acceptance.criterion_compatibility(), acceptance.criterion_oracle_equivalence()):
            assert result.passed, result
        """
    )
    src = str(Path(cayley_qmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_sparse_guard(ctx_plus):
    with pytest.raises(ResourceLimitError):
        eval_sparse(ctx_plus, Observable.identity(), 3)


def test_compatibility_solved_and_corrupted(ctx_plus):
    assert compatibility_residual(ctx_plus, 0, 5) < 1e-10
    assert compatibility_residual(ctx_plus, 1, 3) < 1e-10
    with pytest.raises(ResourceLimitError):
        compatibility_residual(ctx_plus, 2, 1)

    corrupted = BoundarySolution(
        branch=Branch.DISORDERED,
        h=2 * np.eye(2, dtype=complex),
        omega0=0.5 * np.eye(2, dtype=complex),
        residual=float("nan"),
    )
    bad = EvalContext(params=ORDERED_POINT, solution=corrupted)
    assert compatibility_residual(bad, 0, 3) > 0.01
    assert compatibility_residual(bad, 1, 3) > 0.01


def test_trivial_product_state_compatibility():
    ctx = EvalContext.create(ModelParams(0.0, 0.0, 1.0), Branch.XY_ONLY)
    assert compatibility_residual(ctx, 0, 3) < 1e-14
    assert compatibility_residual(ctx, 1, 3) < 1e-14


def test_correlation_degenerate_cases(ctx_plus):
    a = Observable.single(ROOT, E11)
    f_id = Observable.identity()
    assert correlation(ctx_plus, a, f_id, TreeCoord((1, 1))) == pytest.approx(
        eval_recursive(ctx_plus, a), abs=1e-12
    )
    f = Observable.single(ROOT, PAULI["Z"])
    prod = multiply_observables(a, f)
    assert correlation(ctx_plus, a, f, ROOT) == pytest.approx(eval_recursive(ctx_plus, prod), abs=1e-12)


# --- properties over sampled ordered parameters, past the oracle's 15 sites ---

ordered_points = (
    st.tuples(st.floats(0.5, 1.5), st.floats(-0.9, 0.9), st.floats(0.3, 2.0))
    .map(lambda t: ModelParams(t[0], t[0] * t[1], t[2]))
    .filter(lambda p: delta_theta(p) > 1e-6)
)
ordered_branches = st.sampled_from([Branch.ORDERED_PLUS, Branch.ORDERED_MINUS])


@functools.cache
def ball_projector(n, which):
    return projector_observable(n, which)


@settings(max_examples=10, deadline=None)
@given(ordered_points, ordered_branches, st.integers(0, 2**32 - 1))
def test_recursive_matches_oracle_on_sampled_points(p, branch, seed):
    ctx = EvalContext.create(p, branch)
    rng = np.random.default_rng(seed)
    sites = [s for s in ball_vertices(2, 2) if rng.random() < 0.6]
    obs = random_product_observable(rng, sites)
    assert abs(eval_recursive(ctx, obs) - eval_sparse(ctx, obs, 2)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(ordered_points, ordered_branches, st.integers(10, 13), st.sampled_from("PQ"))
def test_deep_projectors_match_closed_form(p, branch, n, which):
    ctx = EvalContext.create(p, branch)
    want = projector_expectation_closed(p, n, branch, which)
    got = eval_recursive(ctx, ball_projector(n, which))
    if want > 1e-250:
        assert abs(got - want) < 1e-10 * want
    else:  # near the subnormals neither side keeps its relative accuracy
        assert abs(got) < 1e-240


@settings(max_examples=25, deadline=None)
@given(ordered_points, ordered_branches, st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_deep_markers_match_closed_form(p, branch, n, seed):
    ctx = EvalContext.create(p, branch)
    site = TreeCoord(tuple(int(d) for d in np.random.default_rng(seed).integers(1, 3, size=n)))
    got = eval_recursive(ctx, Observable.single(site, E11))
    assert abs(got - marker_expectation_closed(p, n, branch)) < 1e-10
