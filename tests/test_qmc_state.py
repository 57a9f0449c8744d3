import copy
import functools
import inspect
import itertools
import math
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayley_qmc
from cayley_qmc import qmc_state
from cayley_qmc.analysis import (
    E11,
    marker_expectation_closed,
    marker_observable,
    projector_expectation_closed,
    projector_observable,
)
from cayley_qmc.boundary import Branch, BoundarySolution, delta_theta, solve_branch, solve_ordered
from cayley_qmc.errors import CayleyQmcError, DomainError, ResourceLimitError
from cayley_qmc.linalg import dagger, kron, normalized_trace
from cayley_qmc.model_ops import PAULI, ModelParams, transfer_coeffs, vertex_channel, vertex_operator
from cayley_qmc.qmc_state import (
    EvalContext,
    Observable,
    ObservableTerm,
    _diagonal_boundary,
    compatibility_residual,
    channel_tensor,
    correlation,
    eval_bruteforce,
    eval_recursive,
    eval_sparse,
    matrix_from_pairs,
    multiply_observables,
    random_product_observable,
    reduced_weight,
    relocate_observable,
    weight_matrix,
)
from cayley_qmc.tree import ROOT, TreeCoord, ball_vertices

from conftest import ORDERED_POINT, XY_POINT


def test_observable_json_roundtrip(rng):
    obs = Observable(
        (
            ObservableTerm(1.5 - 0.5j, ((TreeCoord((1,)), PAULI["Z"]), (TreeCoord((2, 1)), PAULI["X"]))),
            ObservableTerm(0.25, ()),
        )
    )
    doc = {
        "terms": [
            {
                "coeff": [t.coeff.real, t.coeff.imag],
                "factors": [
                    {"site": list(s.digits), "matrix": [[z.real, z.imag] for z in m.reshape(-1)]} for s, m in t.factors
                ],
            }
            for t in obs.terms
        ]
    }
    back = Observable.from_json_dict(doc)
    assert back.support == obs.support
    assert back.terms[0].coeff == obs.terms[0].coeff
    for (s1, m1), (s2, m2) in zip(back.terms[0].factors, obs.terms[0].factors):
        assert s1 == s2 and np.allclose(m1, m2)


def test_matrix_pair_roundtrip(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pairs = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert np.array_equal(matrix_from_pairs(pairs), m)


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
    shifted = relocate_observable(f, TreeCoord((2,)))
    assert shifted.support == {TreeCoord((2, 1))}

    a = Observable.single(ROOT, PAULI["X"])
    b = Observable.single(ROOT, PAULI["Y"])
    prod = multiply_observables(a, b)
    # overlapping sites multiply in (a, b) order: sx sy = i sz
    assert np.allclose(prod.terms[0].factors[0][1], 1j * PAULI["Z"])


def test_weight_matrix_trivial_params():
    ctx = EvalContext.create(ModelParams(0.0, 0.0, 1.0), Branch.XY_ONLY)
    assert np.allclose(weight_matrix(ctx, 0), np.eye(8))


def test_weight_matrix_positive_and_normalized(ctx_plus):
    for n in (0, 1):
        w = weight_matrix(ctx_plus, n)
        eigs = np.linalg.eigvalsh(w)
        assert eigs.min() > -1e-12
        assert normalized_trace(w) == pytest.approx(1.0, abs=1e-12)


def literal_weight(ctx, n):
    """The reference of weight_matrix: K*K of the (n+1)-ball, with K built literally, in ball order.

    K is omega0^{1/2} on the root, then the vertex operator A_x on
    (x, 2x+1, 2x+2) for every vertex x of levels 0..n in ball order, then
    h^{1/2} on every boundary site; each factor multiplies K on its own site
    axes, as the formula is written.
    """
    m = 2 ** (n + 2) - 1  # sites of the (n+1)-ball
    inner = 2 ** (n + 1) - 1  # sites of the n-ball: the vertices that carry an A
    factors = [(np.sqrt(ctx.omega0), (0,))]
    factors += [(ctx.vertex, (x, 2 * x + 1, 2 * x + 2)) for x in range(inner)]
    factors += [(np.sqrt(ctx.h), (x,)) for x in range(inner, m)]
    k = np.eye(2**m, dtype=complex).reshape((2,) * (2 * m))  # rows then columns, one axis per site
    for op, sites in factors:
        cols = [m + x for x in sites]
        k = np.tensordot(k, op.reshape((2,) * (2 * len(sites))), axes=(cols, range(len(sites))))
        k = np.moveaxis(k, range(-len(sites), 0), cols)
    k = k.reshape(2**m, 2**m)
    return dagger(k) @ k


ROOT_CASES = (
    [(ModelParams(1.0, 0.3, 1.2), b) for b in (Branch.DISORDERED, Branch.ORDERED_PLUS, Branch.ORDERED_MINUS)]
    + [(ModelParams(0.0, 0.3, 1.2), Branch.XY_ONLY)]
    # beta = 60: h's two entries are e^{+-240} apart and omega0 grows like e^{240}
    + [(ModelParams(1.0, 0.3, 60.0), b) for b in (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS)]
)
# every branch that solves, at six points
LITERAL_CASES = (
    ROOT_CASES
    + [(ModelParams(1.0, 0.3, 60.0), Branch.DISORDERED), (ModelParams(0.0, 0.3, 1.2), Branch.DISORDERED)]
    + [(p, b) for p in (ORDERED_POINT, ModelParams(0.7, -0.4, 2.5))
       for b in (Branch.DISORDERED, Branch.ORDERED_PLUS, Branch.ORDERED_MINUS)]
    + [(XY_POINT, b) for b in (Branch.DISORDERED, Branch.XY_ONLY)]
)


@pytest.mark.parametrize(("p", "branch"), ROOT_CASES)
def test_entrywise_square_roots_square_back(p, branch):
    # the weight builder takes h^{1/2} entrywise, and the literal K omega0^{1/2} too
    ctx = EvalContext.create(p, branch)
    for a in (ctx.h, ctx.omega0):
        root = np.sqrt(a)
        assert np.max(np.abs(root @ root - a)) <= 4 * np.finfo(float).eps * np.max(np.abs(a))


@pytest.mark.parametrize(("p", "branch"), LITERAL_CASES)
def test_weight_matrix_is_the_literal_product(p, branch):
    # the 3- and 7-site balls
    ctx = EvalContext.create(p, branch)
    for n in (0, 1):
        want = literal_weight(ctx, n)
        assert np.max(np.abs(weight_matrix(ctx, n) - want)) <= 1e-14 * np.max(np.abs(want))


def test_both_weights_are_the_literal_product_on_a_generic_vertex(rng):
    # every state's A is real and exactly symmetric under exchanging the children, so its weights cannot
    # tell a swapped pair of children or a transposed conjugation step: a generic complex A can
    uneven = BoundarySolution(branch=Branch.DISORDERED, h=np.diag([0.3, 1.7]).astype(complex),
                              omega0=np.diag([0.4, 1.6]).astype(complex), residual=float("nan"))
    ctx = EvalContext(params=ORDERED_POINT, solution=uneven)
    object.__setattr__(ctx, "vertex", rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    for n in (0, 1):
        want = literal_weight(ctx, n)
        assert np.max(np.abs(weight_matrix(ctx, n) - want)) <= 1e-14 * np.max(np.abs(want))
        inner, boundary = 2 ** (2 ** (n + 1) - 1), 2 ** (2 ** (n + 1))  # dims of the n-ball and of level n+1
        traced = np.trace(want.reshape(inner, boundary, inner, boundary), axis1=1, axis2=3) / boundary
        assert np.max(np.abs(reduced_weight(ctx, n) - traced)) <= 1e-14 * np.max(np.abs(traced))


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


def _contexts(p):
    """The contexts of every branch that solves at p."""
    out = []
    for branch in Branch:
        try:
            out.append(EvalContext.create(p, branch))
        except CayleyQmcError:
            pass
    return out


def six_index_channel(ctx):
    """The one-vertex channel as the full 4x4x4x4 tensor T, with its contractions with h: the engine's reference.

    T[(p,q),(a,a'),(b,b'),(c,c')] = 1/4 sum_ij A[p,i,j,a,b,c] conj(A[q,i,j,a',b',c']) as one
    six-index einsum; T_h sets both children to h, and the spine map sets the root to the
    identity and child 2 to h.  The engine contracts only T's slice a = o (channel_tensor).
    """
    a = ctx.vertex.reshape((2,) * 6)
    t = np.einsum("pijabc,qijxyz->pqaxbycz", a, a.conj()).reshape(4, 4, 4, 4) / 4
    eye, h = PAULI["I"].reshape(4), ctx.h.reshape(4)
    return t, np.einsum("oabc,b,c->oa", t, h, h), np.einsum("oabc,a,c->ob", t, eye, h)


def spine_matrix(s):
    """The 4x4 spine map of channel_tensor's four entries (s00, s03, s30, s33)."""
    out = np.zeros((4, 4), dtype=complex)
    out[[0, 0, 3, 3], [0, 3, 0, 3]] = s
    return out


def _charge(x):
    """The sz charge b - b' of a flattened 2x2 entry x = 2b + b'."""
    return (x >> 1) - (x & 1)


# the child pairs (b, c) with (b - b') + (c - c') = 0, in einsum's order: the only ones M may use
CHARGE_PAIRS = [(b, c) for b in range(4) for c in range(4) if _charge(b) + _charge(c) == 0]


def channel_matrix(table):
    """The 4x4x4 channel M of channel_tensor's table: its rows at CHARGE_PAIRS, exact zeros elsewhere."""
    out = np.zeros((4, 4, 4), dtype=complex)
    b, c = zip(*CHARGE_PAIRS)
    out[:, b, c] = table
    return out


def contract_vertex(ctx, root, left, right):
    """One vertex through the reference tensor T."""
    t, _, _ = six_index_channel(ctx)
    flat = (np.asarray(m, dtype=complex).reshape(4) for m in (root, left, right))
    return np.einsum("oabc,a,b,c->o", t, *flat).reshape(2, 2)


def test_channel_tensor_matches_vertex_channel(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, rng):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        table, g, s, _, _ = channel_tensor(ctx)
        assert channel_tensor(ctx)[0] is table  # built once per context
        m, g = channel_matrix(table), np.array(g)
        for _ in range(5):
            a, b1, b2 = ((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for _ in range(3))
            want = vertex_channel(ctx.vertex, a, b1, b2)
            assert np.max(np.abs(contract_vertex(ctx, a, b1, b2) - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
            # the root's entry o stays at o: M carries it, per unit, for any root factor
            got = np.einsum("obc,o,b,c->o", m, a.reshape(4), b1.reshape(4), b2.reshape(4)).reshape(2, 2)
            assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
            want = vertex_channel(ctx.vertex, a, ctx.h, ctx.h)
            got = (g * a.reshape(4)).reshape(2, 2)
            assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
            # the spine map: no factor at the vertex, h on the untouched child, on either side
            got = (spine_matrix(s) @ b1.reshape(4)).reshape(2, 2)
            for want in (
                vertex_channel(ctx.vertex, PAULI["I"], b1, ctx.h),
                vertex_channel(ctx.vertex, PAULI["I"], ctx.h, b1),
            ):
                assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))


def test_contexts_of_a_point_share_one_channel_table_and_cold_calls_equal_warm_ones():
    # M depends on the point alone: one table object serves every branch; the first call of a
    # process (every memo empty) and a later one give the same bits
    p = ModelParams(0.9, -0.35, 1.7)
    branches = (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS, Branch.DISORDERED)
    obs = random_product_observable(np.random.default_rng(5), [ROOT, TreeCoord((1,)), TreeCoord((2, 1, 2))])

    def build():
        contexts = [EvalContext.create(p, b) for b in branches]
        return [channel_tensor(ctx) for ctx in contexts], [eval_recursive(ctx, obs) for ctx in contexts]

    for memo in (qmc_state._channel_table, vertex_operator, solve_branch):
        memo.cache_clear()
    cold, cold_values = build()
    assert all(c[0] is cold[0][0] for c in cold)
    assert qmc_state._channel_table.cache_info().currsize == 1
    warm, warm_values = build()  # new contexts, the memos filled
    assert all(w[0] is cold[0][0] for w in warm)
    flat = [np.array(list(itertools.chain(*c[0], *c[1:]))).tobytes() for c in cold]
    assert flat == [np.array(list(itertools.chain(*w[0], *w[1:]))).tobytes() for w in warm]
    assert np.array(cold_values).tobytes() == np.array(warm_values).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 6.0))
def test_channel_is_exactly_symmetric_in_its_children(j0, j, beta):
    # A is symmetric under exchanging the children, so one spine map serves both sides
    for ctx in _contexts(ModelParams(j0, j, beta)):
        table, _, s, _, _ = channel_tensor(ctx)
        m = channel_matrix(table)
        assert m.tobytes() == m.transpose(0, 2, 1).tobytes()
        other_side = np.einsum("obc,o,b->oc", m, PAULI["I"].reshape(4), ctx.h.reshape(4))
        assert other_side.tobytes() == spine_matrix(s).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 6.0))
def test_channel_tensor_is_the_six_index_einsum_bit_for_bit(j0, j, beta):
    # M is T's slice a = o at the charge-conserving pairs, g is T_h's diagonal and S is T's spine map, bit for bit
    for ctx in _contexts(ModelParams(j0, j, beta)):
        t, t_h, spine = six_index_channel(ctx)
        table, g, s, h, w = channel_tensor(ctx)
        o, (b, c) = np.arange(4), zip(*CHARGE_PAIRS)
        assert np.array(table).tobytes() == t[o, o][:, b, c].tobytes()
        assert np.array(g).tobytes() == t_h.diagonal().tobytes()
        assert spine_matrix(s).tobytes() == spine.tobytes()
        assert np.array(h).tobytes() == ctx.h.tobytes() and np.array(w).tobytes() == ctx.omega0.diagonal().tobytes()
        assert all(type(x) is complex for x in (*itertools.chain(*table), *g, *s, *h, *w))


# --- the structure the engine's kernels rely on, exactly, over sampled (J0, J, beta) ---

# j0 = 0 half the time, so the xy branch is solved as often as the others
structure_points = st.tuples(
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), st.floats(-2.0, 2.0), st.floats(0.1, 5.0)
).map(lambda t: ModelParams(*t))
# points in the ordered region, where both ordered branches exist
ordered_points = (
    st.tuples(st.floats(0.5, 1.5), st.floats(-0.9, 0.9), st.floats(0.3, 2.0))
    .map(lambda t: ModelParams(t[0], t[0] * t[1], t[2]))
    .filter(lambda p: delta_theta(p) > 1e-6)
)


@settings(max_examples=60, deadline=None)
@given(structure_points)
def test_vertex_operator_is_block_diagonal_in_its_own_spin(p):
    # A[p, i, j, a, b, c] with p != a
    a = vertex_operator(p).reshape(2, 4, 2, 4)
    assert not a[0, :, 1, :].any() and not a[1, :, 0, :].any()


@settings(max_examples=60, deadline=None)
@given(structure_points)
def test_channel_conserves_sz_charge_exactly(p):
    # M[(p,q),(b,b'),(c,c')] with (b - b') + (c - c') != 0, M being T's slice a = o
    for ctx in _contexts(p):
        o = np.arange(4)
        m = six_index_channel(ctx)[0][o, o].reshape((2,) * 6)
        for idx in itertools.product((0, 1), repeat=6):
            _, _, b, b_, c, c_ = idx
            if b - b_ + c - c_ != 0:
                assert m[idx] == 0.0, idx


@settings(max_examples=60, deadline=None)
@given(structure_points)
def test_spine_map_acts_on_the_diagonal_alone(p):
    for ctx in _contexts(p):
        spine = six_index_channel(ctx)[2]  # channel_tensor's S is its block at rows and columns 0 and 3
        assert not spine[[1, 2], :].any() and not spine[:, [1, 2]].any()


@settings(max_examples=60, deadline=None)
@given(structure_points, st.integers(0, 2**32 - 1))
def test_channel_of_a_factor_free_vertex_is_diagonal(p, seed):
    # Phi(h) for a positive h that is not diagonal: the boundary is diagonal because of the structure
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = x @ dagger(x) + 0.1 * np.eye(2)
    assert h[0, 1] != 0
    out = vertex_channel(vertex_operator(p), PAULI["I"], h, h)
    assert out[0, 1] == 0 and out[1, 0] == 0


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
    """The recursive route one vertex at a time, with no subtree shared: the reference for sharing.

    It applies the engine's per-vertex rule with the full reference tensor
    (six_index_channel): a leaf is T_h times its factor, a factor-free vertex
    with one touched child is the 4x4 spine map times that child, and any
    other vertex contracts T with its factor and both children.
    """
    t, t_h, spine = six_index_channel(ctx)
    total = 0j
    for term in obs.terms:
        fmap = term.factor_map
        active = {TreeCoord(s.digits[:k]) for s in fmap for k in range(s.level + 1)} | {ROOT}

        def value(x):
            f = fmap.get(x, PAULI["I"]).reshape(1, 4)
            kids = [TreeCoord(x.digits + (d,)) for d in (1, 2)]
            touched = [c in active for c in kids]
            if not any(touched):
                return np.einsum("oa,na->no", t_h, f)[0]
            if sum(touched) == 1 and f.tobytes() == PAULI["I"].tobytes():
                side = touched.index(True)
                return spine @ value(kids[side])
            left, right = (value(c) if c in active else ctx.h.reshape(4) for c in kids)
            return np.einsum("oabc,na,nb,nc->no", t, f, left.reshape(1, 4), right.reshape(1, 4))[0]

        total += term.coeff * normalized_trace(ctx.omega0 @ value(ROOT).reshape(2, 2))
    return total


def test_subtree_sharing_is_exact(ctx_plus, ctx_minus, rng):
    for ctx in (ctx_plus, ctx_minus):
        shared = Observable.product({s: E11 for s in ball_vertices(6)})
        copies = Observable.product({s: E11.copy() for s in ball_vertices(6)})
        value = eval_recursive(ctx, shared)
        assert eval_recursive(ctx, copies) == value
        assert unshared_recursive(ctx, copies) == value
        # a random product on the 4-ball shares nothing, and still matches bit for bit
        obs = random_product_observable(rng, ball_vertices(4))
        assert eval_recursive(ctx, obs) == unshared_recursive(ctx, obs)
        # sparse products to depth 16 hold chain vertices, alone and in runs of levels
        for count in (1, 2, 3, 5, 8):
            sites = {TreeCoord(tuple(rng.integers(1, 3, size=rng.integers(0, 17)))) for _ in range(count)}
            obs = random_product_observable(rng, sites)
            assert eval_recursive(ctx, obs) == unshared_recursive(ctx, obs)
        # factors on the sphere alone: factor-free inner levels above, shared as a ball's are
        sphere = Observable.product({s: E11 for s in ball_vertices(6) if s.level == 6})
        assert eval_recursive(ctx, sphere) == unshared_recursive(ctx, sphere)


def _factor(data, shape=(2, 2)):
    """A factor from Hypothesis: the identity (padding, or a chain vertex) or a small random matrix."""
    if data.draw(st.booleans(), label="identity"):
        return PAULI["I"]
    seed = data.draw(st.integers(0, 2**32 - 1), label="matrix seed")
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / 2


def _sparse_term(data, max_depth=40):
    count = data.draw(st.integers(1, 8), label="factors")
    digits = st.lists(st.integers(1, 2), min_size=0, max_size=max_depth).map(tuple)
    sites = sorted(data.draw(st.sets(digits, min_size=count, max_size=count), label="sites"))
    factors = {TreeCoord(d): _factor(data) for d in sites}
    # ancestors of the sites, identity or random: an identity vertex above exactly one
    # site is a chain vertex, and one where two sites' paths part is an inner vertex
    for d in sites:
        if data.draw(st.booleans(), label="ancestor"):
            cut = data.draw(st.integers(0, len(d)), label="ancestor level")
            factors.setdefault(TreeCoord(d[:cut]), _factor(data))
    for a, b in zip(sites, sites[1:]):
        if data.draw(st.booleans(), label="parting vertex"):
            factors.setdefault(TreeCoord(os.path.commonprefix([a, b])), _factor(data))
    if data.draw(st.booleans(), label="root factor"):
        factors[ROOT] = _factor(data)
    coeff = complex(*data.draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), label="coeff"))
    return ObservableTerm(coeff, tuple(factors.items()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plan_replay_is_the_vertex_by_vertex_walk_bit_for_bit(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, data):
    terms = (_sparse_term(data),)
    if data.draw(st.booleans(), label="two terms"):
        terms += (_sparse_term(data),)
    obs = Observable(terms)
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        assert eval_recursive(ctx, obs) == unshared_recursive(ctx, obs)


# --- exact symmetries of the states, at depth: oracles for the engine that share no code with T ---

symmetry_points = st.one_of(structure_points, ordered_points)  # half of them in the ordered region

SZ_SIGNS = np.array([[1, -1], [-1, 1]])  # sz a sz, entry by entry


def _mapped(term, site_map=lambda s: s, factor_map=lambda s, m: m):
    return ObservableTerm(term.coeff, tuple((site_map(s), factor_map(s, m)) for s, m in term.factors))


def _close(a, b):
    return abs(a - b) <= 1e-13 * max(abs(a), abs(b))


@settings(max_examples=60, deadline=None)
@given(symmetry_points, st.data())
def test_reversing_j_is_sz_on_every_second_child_bit_for_bit(p, data):
    # sz on one child flips the sign of its parent's XY bond; h and omega0 are diagonal, so sz leaves them alone
    term = _sparse_term(data)
    flipped = ModelParams(p.j0, -p.j, p.beta)
    # + 0.0 keeps a zero entry +0, so the identity keeps its bytes (and stays a chain vertex)
    conj = _mapped(term, factor_map=lambda s, m: m * SZ_SIGNS + 0.0 if s.digits[-1:] == (2,) else m)
    for ctx in _contexts(p):
        other = EvalContext.create(flipped, ctx.solution.branch)
        assert eval_recursive(other, Observable((conj,))) == eval_recursive(ctx, Observable((term,)))


FLIPPED_BRANCH = {Branch.ORDERED_PLUS: Branch.ORDERED_MINUS, Branch.ORDERED_MINUS: Branch.ORDERED_PLUS}


@settings(max_examples=60, deadline=None)
@given(symmetry_points, st.data())
def test_the_global_flip_exchanges_the_ordered_states(p, data):
    # phi_-(a) = phi_+(sx a sx) on every site; the disordered and xy states are flip-invariant
    term = _sparse_term(data)
    flipped = _mapped(term, factor_map=lambda s, m: np.array(m[::-1, ::-1]))
    for ctx in _contexts(p):
        branch = ctx.solution.branch
        other = EvalContext.create(p, FLIPPED_BRANCH.get(branch, branch))
        assert _close(eval_recursive(other, Observable((term,))), eval_recursive(ctx, Observable((flipped,))))


@settings(max_examples=60, deadline=None)
@given(symmetry_points, st.data())
def test_swapping_the_subtrees_below_a_vertex_changes_nothing(p, data):
    # A is symmetric in its children and every boundary is the same h, so the state is too
    term = _sparse_term(data)
    site = data.draw(st.sampled_from([s.digits for s, _ in term.factors]), label="site")
    x = site[: data.draw(st.integers(0, len(site)), label="vertex level")]

    def swap(s):
        d = s.digits
        if d[: len(x)] != x or len(d) == len(x):
            return s
        return TreeCoord(x + (3 - d[len(x)],) + d[len(x) + 1 :])

    swapped = _mapped(term, site_map=swap)
    for ctx in _contexts(p):
        assert _close(eval_recursive(ctx, Observable((swapped,))), eval_recursive(ctx, Observable((term,))))


@pytest.mark.parametrize("n", range(1, 13))
def test_a_ball_projector_compiles_to_one_leaf_and_one_inner_op_per_level(n):
    plan = projector_observable(n, "P").terms[0]._plan
    assert len(plan[0]) == 1  # (factor,)
    assert len(plan) == n + 1 and all(len(op) == 3 for op in plan[1:])  # (factor, left id, right id)


def test_a_deep_two_site_term_compiles_and_evaluates_without_recursion(ctx_plus, ctx_minus, ctx_disordered):
    a, f, deep = E11, PAULI["Z"], TreeCoord((1,) * 5000)
    term = ObservableTerm(1.0, ((ROOT, a), (deep, f)))
    obs = Observable((term,))
    # a walk that recursed once per level would need 5000 frames; allow 50 above this one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        plan = term._plan
        values = [eval_recursive(ctx, obs) for ctx in (ctx_plus, ctx_minus, ctx_disordered)]
    finally:
        sys.setrecursionlimit(limit)
    # the leaf f, one chain of 4999 spine maps up to the root's child, and the root
    assert len(plan) == 3 and len(plan[0]) == 1 and plan[1] == (1, 4999) and plan[2][1:] == (2, 0)
    for ctx, value in zip((ctx_plus, ctx_minus, ctx_disordered), values):
        product = eval_recursive(ctx, Observable.single(ROOT, a)) * eval_recursive(ctx, Observable.single(deep, f))
        assert abs(value - product) < 1e-14


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_every_route_refuses_a_non_finite_factor(ctx_plus, bad):
    routes = (
        lambda obs: eval_recursive(ctx_plus, obs),
        lambda obs: eval_bruteforce(ctx_plus, obs, 1),
        lambda obs: eval_sparse(ctx_plus, obs, 2),
    )
    for route in routes:
        for site in (ROOT, TreeCoord((2, 1))):
            with pytest.raises(DomainError, match="not finite"):
                route(Observable.single(site, [[1, 0], [bad, 1]]))
            with pytest.raises(DomainError, match="not finite"):
                route(Observable.product({TreeCoord((1,)): PAULI["Z"], site: np.diag([1, bad])}))


def _fresh_copy(obs):
    return Observable(tuple(ObservableTerm(t.coeff, tuple((s, m.copy()) for s, m in t.factors)) for t in obs.terms))


def test_a_reused_plan_gives_the_bits_of_a_fresh_term(ctx_plus, ctx_minus, ctx_disordered, rng):
    sites = {TreeCoord(tuple(rng.integers(1, 3, size=rng.integers(0, 25)))) for _ in range(6)}
    for obs in (ball_projector(6, "P"), random_product_observable(rng, sites)):
        # contexts A, B, then A again on one term, against a fresh copy of the term each time
        for ctx in (ctx_plus, ctx_minus, ctx_plus, ctx_disordered, ctx_minus):
            assert eval_recursive(ctx, obs) == eval_recursive(ctx, _fresh_copy(obs))


def test_the_plan_is_built_once_per_term(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, monkeypatch):
    built = []
    compile_term = qmc_state._compile
    monkeypatch.setattr(qmc_state, "_compile", lambda term: built.append(term) or compile_term(term))
    marker = ObservableTerm(0.5, ((TreeCoord((2, 1)), PAULI["Z"]),))
    obs = Observable((projector_observable(4, "Q").terms[0], marker))
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy, ctx_plus):
        eval_recursive(ctx, obs)
    assert built == list(obs.terms)


def test_a_term_copies_its_factors_once_and_read_only(ctx_plus):
    source = E11.copy()
    obs = Observable.product({s: source for s in ball_vertices(3)})
    stored = {id(m) for _, m in obs.terms[0].factors}
    assert len(stored) == 1 and id(source) not in stored  # one copy, shared by every site
    value = eval_recursive(ctx_plus, obs)
    source[1, 1] = 1.0  # the caller's array changes; the term does not
    assert eval_recursive(ctx_plus, obs) == value
    assert eval_recursive(ctx_plus, Observable.product({s: source for s in ball_vertices(3)})) != value
    (_, factor), *_ = obs.terms[0].factors
    with pytest.raises(ValueError):
        factor[0, 0] = 2.0


def test_terms_that_differ_in_the_sign_of_a_zero_differ():
    site = TreeCoord((1, 2))
    plus, minus = (ObservableTerm(1.0, ((site, np.array([[1, zero], [0, 1]], dtype=complex)),)) for zero in (0.0, -0.0))
    assert plus != minus and hash(plus) != hash(minus)
    (leaf_plus, _), (leaf_minus, _) = plus._plan, minus._plan
    assert [z.real for z in leaf_plus[0]] == [z.real for z in leaf_minus[0]]  # equal as numbers
    assert [math.copysign(1, z.real) for z in leaf_plus[0]] != [math.copysign(1, z.real) for z in leaf_minus[0]]


def test_a_copied_term_is_built_again():
    term = projector_observable(3, "P").terms[0]
    for copied in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert copied == term and hash(copied) == hash(term) and copied._plan == term._plan


def test_separately_built_observables_compare_by_value():
    site = TreeCoord((1,))
    z = Observable.single(site, PAULI["Z"])
    same = Observable.single(site, np.diag([1, -1]))  # stored as the same complex bytes
    assert z == same and hash(z) == hash(same)
    assert multiply_observables(Observable.identity(), z) == z == relocate_observable(z, ROOT)
    assert z != Observable.single(site, PAULI["X"])
    assert z != Observable.single(TreeCoord((2,)), PAULI["Z"])
    assert z != Observable.single(site, PAULI["Z"], coeff=2.0)


def test_recursive_normalization(ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        assert eval_recursive(ctx, Observable.identity()) == pytest.approx(1.0, abs=1e-12)


def test_recursive_matches_bruteforce(ctx_plus, ctx_minus, ctx_disordered, rng):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered):
        for _ in range(5):
            obs = random_product_observable(rng, ball_vertices(1))
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
            inner, boundary = 2 ** (2 ** (n + 1) - 1), 2 ** (2 ** (n + 1))  # dims of the n-ball and of level n+1
            w = weight_matrix(ctx, n).reshape(inner, boundary, inner, boundary)
            literal = np.trace(w, axis1=1, axis2=3) / boundary  # level n+1 traced out, normalized
            assert np.max(np.abs(reduced_weight(ctx, n) - literal)) < 1e-12
            for _ in range(3):
                obs = random_product_observable(rng, ball_vertices(n))
                assert abs(eval_sparse(ctx, obs, n) - eval_bruteforce(ctx, obs, n)) < 1e-12


def embedded_trace(w, n, obs):
    """The literal trace, the reference of _trace_weight: each term embedded as a 2^m x 2^m Kronecker chain.

    Returns the normalized trace Tr(w obs) / 2^m and the same trace of the
    entrywise absolute values, summed with |coeff| over the terms: the scale
    that the rounding error of either form grows with.
    """
    sites = ball_vertices(n)
    value, scale = 0j, 0.0
    for term in obs.terms:
        fmap = term.factor_map
        emb = functools.reduce(kron, [fmap.get(s, PAULI["I"]) for s in sites])
        value += term.coeff * np.einsum("ij,ji->", w, emb) / emb.shape[0]
        scale += abs(term.coeff) * np.einsum("ij,ji->", np.abs(w), np.abs(emb)).real / emb.shape[0]
    return complex(value), scale


# Against a long-double form of embedded_trace, over 35 904 cases (every subset
# of the 3- and 7-site balls, single terms and two-term sums, every branch at
# ten points with beta up to 5), _trace_weight erred by at most 7.7 eps times
# the scale and the embedded trace by at most 19.7: their gap stays below 27.4.
TRACE_TOL = 64 * np.finfo(float).eps


def test_trace_weight_is_the_embedded_trace(ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
    rng = np.random.default_rng(3203)
    weights = []
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        weights += [(weight_matrix(ctx, 0), 1), (weight_matrix(ctx, 1), 2),
                    (reduced_weight(ctx, 1), 1), (reduced_weight(ctx, 2), 2)]
    # every state's weight is real, and symmetric under exchanging two children:
    # a transposed factor or a mirrored site shows only on a generic matrix
    for dim, n in ((8, 1), (128, 2)):
        weights.append((rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), n))
    for w, n in weights:
        sites = ball_vertices(n)
        for k in range(len(sites) + 1):
            for picked in itertools.combinations(sites, k):  # the empty term too
                term = random_product_observable(rng, picked).terms[0]
                other = random_product_observable(rng, [s for s in sites if rng.random() < 0.5]).terms[0]
                pair = (  # complex coefficients, and one term's factors in reverse ball order
                    ObservableTerm(complex(*rng.normal(size=2)), term.factors),
                    ObservableTerm(complex(*rng.normal(size=2)), other.factors[::-1]),
                )
                for obs in (Observable((term,)), Observable(pair)):
                    want, scale = embedded_trace(w, n, obs)
                    assert abs(qmc_state._trace_weight(w, n, obs) - want) <= TRACE_TOL * scale


def test_sparse_depth_two_matches_recursive(ctx_plus, rng):
    for _ in range(2):
        obs = random_product_observable(rng, ball_vertices(2))
        assert abs(eval_sparse(ctx_plus, obs, 2) - eval_recursive(ctx_plus, obs)) < 1e-10


def test_reduced_weight_hermitian_and_normalized(ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
    for ctx in (ctx_plus, ctx_minus, ctx_disordered, ctx_xy):
        for n in (0, 1, 2):
            w = reduced_weight(ctx, n)
            assert w.shape == (2 ** len(ball_vertices(n)),) * 2
            assert np.max(np.abs(w - dagger(w))) < 1e-12
            assert abs(normalized_trace(w) - 1) < 1e-12


def test_sparse_multi_term_matches_recursive(ctx_plus, ctx_minus, ctx_disordered, ctx_xy, rng):
    sites = ball_vertices(2)
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
        obs = random_product_observable(np.random.default_rng(0), ball_vertices(2))
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


@pytest.mark.parametrize(("oracle", "n"), [(eval_sparse, 2), (eval_bruteforce, 1), (eval_sparse, 1)])
def test_oracles_refuse_a_weight_that_overflows(oracle, n):
    # only a finished weight beyond a float is refused: omega0 = 1e306 (not a solution) scales it by 1e306
    eye = np.eye(2, dtype=complex)
    huge = BoundarySolution(branch=Branch.ORDERED_PLUS, h=eye, omega0=1e306 * eye, residual=float("nan"))
    ctx = EvalContext(params=ModelParams(1.0, 0.3, 1.2), solution=huge)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(DomainError, match="plus branch at j0=1.0, j=0.3, beta=1.2"):
            oracle(ctx, marker_observable(1), n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("oracle", "n"), [(eval_bruteforce, 1), (eval_sparse, 1), (eval_sparse, 2)])
def test_oracles_refuse_a_trace_that_overflows_without_a_warning(oracle, n):
    # the weight is finite, but +-1e300 at the root and at (1,) overflow in the trace (inf - inf = nan);
    # the oracles refuse the value as eval_recursive does, naming the ball and the branch, and never warn
    f = np.array([[1e300, -1e300], [-1e300, 1e300]], dtype=complex)
    obs = Observable.product({ROOT: f, TreeCoord((1,)): f})
    ctx = EvalContext.create(ModelParams(1.0, 0.3, 1.2), Branch.ORDERED_PLUS)
    with pytest.raises(DomainError, match="not finite"):
        eval_recursive(ctx, obs)
    with pytest.raises(DomainError, match=f"at n = {n} is not finite on the plus branch at j0=1.0, j=0.3, beta=1.2"):
        oracle(ctx, obs, n)


@pytest.mark.filterwarnings("error")
def test_the_bruteforce_oracle_refuses_an_overflowing_trace_of_the_identity():
    # omega0 = 1e306 (not a solution): the 3-site weight is finite, the sum of its diagonal is not
    eye = np.eye(2, dtype=complex)
    huge = BoundarySolution(branch=Branch.ORDERED_PLUS, h=eye, omega0=1e306 * eye, residual=float("nan"))
    ctx = EvalContext(params=ModelParams(1.0, 0.3, 1.2), solution=huge)
    with pytest.raises(DomainError, match="at n = 0 is not finite on the plus branch"):
        eval_bruteforce(ctx, Observable.identity(), 0)


@pytest.mark.parametrize("branch", [Branch.ORDERED_PLUS, Branch.ORDERED_MINUS, Branch.DISORDERED])
@pytest.mark.parametrize("beta", [30.0, 45.0, 60.0, 90.0])
def test_oracles_answer_at_low_temperature(beta, branch):
    # The weights are small (largest entry 64 or 128), but omega0 (8.5e103 at beta = 60) and A (1.3e52)
    # would overflow a float in unscaled conjugations before the boundary's h^1/2 brings them back, and
    # at beta = 30 an unscaled build of the ordered branches' reduced weight at n = 2 passes through
    # subnormals; the builder scales every step by a power of two, and both oracles answer as the
    # recursive route
    ctx = EvalContext.create(ModelParams(1.0, 0.3, beta), branch)
    for obs in (marker_observable(1), random_product_observable(np.random.default_rng(11), ball_vertices(1))):
        want = eval_recursive(ctx, obs)
        assert abs(eval_sparse(ctx, obs, 2) - want) < 1e-10
        assert abs(eval_bruteforce(ctx, obs, 1) - want) < 1e-10


@pytest.mark.parametrize("branch", [Branch.ORDERED_PLUS, Branch.ORDERED_MINUS, Branch.DISORDERED])
def test_oracles_answer_at_beta_40(branch):
    # below the overflow, both oracles still agree with the recursive route at the 15- and 7-site balls
    ctx = EvalContext.create(ModelParams(1.0, 0.3, 40.0), branch)
    obs = marker_observable(1)
    want = eval_recursive(ctx, obs)
    assert abs(eval_sparse(ctx, obs, 2) - want) < 1e-14
    assert abs(eval_bruteforce(ctx, obs, 1) - want) < 1e-14


def test_context_refuses_a_boundary_that_is_not_psd():
    eye = np.eye(2, dtype=complex)
    for h, omega0 in (
        (np.diag([1.0, -0.5]).astype(complex), eye),  # not PSD
        (eye, np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)),  # not Hermitian
        (np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex), eye),  # Hermitian PSD, but not diagonal
    ):
        bad = BoundarySolution(branch=Branch.DISORDERED, h=h, omega0=omega0, residual=float("nan"))
        with pytest.raises(DomainError):
            EvalContext(params=ORDERED_POINT, solution=bad)


def test_diagonal_boundary_refuses_what_the_array_test_refuses():
    # the array form the scalar test replaced, kept as its reference
    def array_test(a):
        return bool(np.array_equal(a, np.diag(a.diagonal().real)) and np.all(a.diagonal().real >= 0))

    nan, inf = float("nan"), float("inf")
    diagonal = [0.0, -0.0, 1.0, -1.0, complex(0, -0.0), complex(-0.0, -0.0), complex(1, 1e-300), nan, complex(1, nan), inf]
    off = [0.0, -0.0, complex(-0.0, -0.0), 1e-300, complex(0, nan)]
    for d0, d1, x in itertools.product(diagonal, diagonal, off):
        for a in (np.array([[d0, x], [0, d1]], dtype=complex), np.array([[d0, 0], [x, d1]], dtype=complex)):
            try:
                _diagonal_boundary(a, "h")
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == array_test(a), a


def test_context_takes_only_params_and_solution():
    sol = solve_branch(ORDERED_POINT, Branch.DISORDERED)
    for derived in ("vertex", "h", "omega0", "_cache"):
        with pytest.raises(TypeError):
            EvalContext(params=ORDERED_POINT, solution=sol, **{derived: np.eye(2, dtype=complex)})


@pytest.mark.parametrize("branch", [Branch.ORDERED_PLUS, Branch.ORDERED_MINUS, Branch.DISORDERED])
def test_context_names_an_overflowing_boltzmann_factor(branch):
    # e^{4 j0 beta} = e^1200 overflows a float although 4 j0 beta does not
    with pytest.raises(DomainError, match=r"overflows a float at ModelParams\(j0=1, j=0.3, beta=300\)$") as info:
        EvalContext.create(ModelParams(1, 0.3, 300), branch)
    assert isinstance(info.value, OverflowError)


def test_context_shares_the_solved_boundary():
    p = ModelParams(1.0, 0.3, 1.2)
    pair = solve_ordered(p)
    for branch, sol in zip((Branch.ORDERED_PLUS, Branch.ORDERED_MINUS), pair):
        ctx = EvalContext.create(p, branch)
        assert ctx.solution is sol and ctx.h is sol.h and ctx.omega0 is sol.omega0
    assert EvalContext.create(p, Branch.DISORDERED).solution is solve_branch(p, Branch.DISORDERED)


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


@pytest.mark.parametrize("branch", [Branch.ORDERED_PLUS, Branch.DISORDERED])
def test_the_root_weighs_each_omega0_entry_as_the_oracle_does(branch):
    # every solved omega0 is a multiple of the identity, so only a hand-made one tells its two entries apart
    p = ModelParams(1.0, 0.5, 0.8)
    solved = solve_branch(p, branch)
    uneven = BoundarySolution(branch=branch, h=solved.h, omega0=np.diag([0.4, 1.6]).astype(complex),
                              residual=solved.residual)
    ctx = EvalContext(params=p, solution=uneven)
    rng = np.random.default_rng(26)
    for n in (0, 1, 2):
        ball = ball_vertices(n)
        for _ in range(6):
            sites = [x for x in ball if rng.random() < 0.6] or [ROOT]
            obs = random_product_observable(rng, sites)
            assert abs(eval_recursive(ctx, obs) - eval_sparse(ctx, obs, 2)) < 1e-12


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

ordered_branches = st.sampled_from([Branch.ORDERED_PLUS, Branch.ORDERED_MINUS])


@functools.cache
def ball_projector(n, which):
    return projector_observable(n, which)


@settings(max_examples=10, deadline=None)
@given(ordered_points, ordered_branches, st.integers(0, 2**32 - 1))
def test_recursive_matches_oracle_on_sampled_points(p, branch, seed):
    ctx = EvalContext.create(p, branch)
    rng = np.random.default_rng(seed)
    sites = [s for s in ball_vertices(2) if rng.random() < 0.6]
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
@given(ordered_points, ordered_branches, st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_deep_markers_match_closed_form(p, branch, n, seed):
    ctx = EvalContext.create(p, branch)
    site = TreeCoord(tuple(int(d) for d in np.random.default_rng(seed).integers(1, 3, size=n)))
    got = eval_recursive(ctx, Observable.single(site, E11))
    assert abs(got - marker_expectation_closed(p, n, branch)) < 1e-10


def test_a_memo_hit_on_an_ordered_branch_computes_no_delta(monkeypatch):
    p = ModelParams(1.0, 0.3, 1.25)
    first = EvalContext.create(p, Branch.ORDERED_MINUS)

    def no_delta(params):
        raise AssertionError("Delta computed on a memo hit")

    monkeypatch.setattr("cayley_qmc.boundary.delta_theta", no_delta)
    assert EvalContext.create(p, Branch.ORDERED_MINUS).solution is first.solution


@pytest.mark.parametrize("branch", ["plus", "disordered", "xy"])
def test_context_refuses_a_branch_that_is_not_a_branch(branch):
    with pytest.raises(DomainError, match="branch must be a Branch"):
        EvalContext.create(ModelParams(1.0, 0.3, 1.2), branch)


@pytest.mark.parametrize("pairs", [[[1, 0]], [[1, 0]] * 3, [[1, 0]] * 9, [[1, 0]] * 16, []])
def test_matrix_from_pairs_reads_exactly_four_pairs(pairs):
    with pytest.raises(DomainError, match="four"):
        matrix_from_pairs(pairs)
