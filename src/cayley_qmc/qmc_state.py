"""Finite-volume and limit evaluation of the boundary-driven tree states.

Three routes coexist on purpose:

* a dense brute force that literally builds the weight matrix of the volume
  (guarded at 7 sites, i.e. the two-level ball);
* an exact sparse variant of the same formula that reaches the three-level
  ball (15 sites): it builds the literal sparse K once per context and depth,
  reduces K*K to the inner sites by tracing out the boundary level, and then
  evaluates every observable against that weight, 128x128 at the 15-site
  ball, so no dense object beyond 128x128 is ever built;
* a recursive level-by-level contraction through the per-vertex conditional
  expectation, valid at any depth.

Both brute-force routes end in the same step, the normalized trace of a
site-labelled weight against the embedded observable; they differ only in
how the weight is built.

The recursive route evaluates the same functional as the brute force: an
observable whose deepest factors sit at level m is contracted from level m
down, each deepest vertex absorbing the boundary pair (h, h) of its children;
for diagonal factors this coincides with sandwiching h^{1/2} directly at
level m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .boundary import Branch, BoundarySolution, solve_branch
from .errors import DomainError, ResourceLimitError
from .linalg import (
    SiteOperator,
    dagger,
    embed_operator,
    kron_chain,
    matrix_from_pairs,
    matrix_to_pairs,
    normalized_trace,
    psd_sqrt,
)
from .model_ops import PAULI, ModelParams, pauli, vertex_channel, vertex_operator
from .tree import ROOT, TreeCoord, ball_vertices, canonical_key, concat, level_vertices, successors

if TYPE_CHECKING:
    import scipy.sparse as sparse

MAX_DENSE_SITES = 7  # dims beyond 2^7 = 128 are refused on the dense route
MAX_SPARSE_SITES = 15


@dataclass(frozen=True)
class ObservableTerm:
    """One site-factorized term: coeff times a finite product of 2x2 factors."""

    coeff: complex
    factors: tuple[tuple[TreeCoord, np.ndarray], ...]

    def __post_init__(self) -> None:
        sites = [s for s, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise DomainError("term factors must sit on distinct sites")
        ordered = tuple(
            (s, np.asarray(m, dtype=complex)) for s, m in sorted(self.factors, key=lambda f: canonical_key(f[0]))
        )
        for _, m in ordered:
            if m.shape != (2, 2):
                raise DomainError(f"factors must be 2x2, got shape {m.shape}")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "factors", ordered)

    @property
    def factor_map(self) -> dict[TreeCoord, np.ndarray]:
        return dict(self.factors)

    @property
    def depth(self) -> int:
        return max((s.level for s, _ in self.factors), default=0)


@dataclass(frozen=True)
class Observable:
    """A finite sum of site-factorized terms; absent sites act as identity."""

    terms: tuple[ObservableTerm, ...]

    @classmethod
    def identity(cls) -> "Observable":
        return cls((ObservableTerm(1.0, ()),))

    @classmethod
    def single(cls, site: TreeCoord, matrix: np.ndarray, coeff: complex = 1.0) -> "Observable":
        return cls((ObservableTerm(coeff, ((site, matrix),)),))

    @classmethod
    def product(cls, factors: Mapping[TreeCoord, np.ndarray], coeff: complex = 1.0) -> "Observable":
        return cls((ObservableTerm(coeff, tuple(factors.items())),))

    @property
    def support(self) -> frozenset[TreeCoord]:
        return frozenset(s for t in self.terms for s, _ in t.factors)

    @property
    def depth(self) -> int:
        return max((t.depth for t in self.terms), default=0)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": [t.coeff.real, t.coeff.imag],
                    "factors": [
                        {"site": list(s.digits), "matrix": matrix_to_pairs(m)} for s, m in t.factors
                    ],
                }
                for t in self.terms
            ]
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Observable":
        if not isinstance(doc, Mapping) or "terms" not in doc:
            raise DomainError("observable JSON needs an object with a 'terms' list")
        terms = []
        for raw in doc["terms"]:
            coeff = raw.get("coeff", 1.0)
            if isinstance(coeff, (list, tuple)):
                coeff = complex(coeff[0], coeff[1])
            factors = []
            for f in raw.get("factors", []):
                if "site" not in f:
                    raise DomainError("factor needs a 'site'")
                site = TreeCoord(tuple(f["site"]))
                if "pauli" in f:
                    mat = pauli(f["pauli"])
                elif "matrix" in f:
                    mat = matrix_from_pairs(f["matrix"])
                    if mat.shape != (2, 2):
                        raise DomainError("observable factors must be 2x2 matrices")
                else:
                    raise DomainError("factor needs either 'pauli' or 'matrix'")
                factors.append((site, mat))
            terms.append(ObservableTerm(coeff, tuple(factors)))
        return cls(tuple(terms))


def translate_observable(f: Observable, g: TreeCoord) -> Observable:
    """Relocate every factor site x to g o x."""
    return Observable(
        tuple(ObservableTerm(t.coeff, tuple((concat(g, s), m) for s, m in t.factors)) for t in f.terms)
    )


def multiply_observables(a: Observable, b: Observable) -> Observable:
    """The product a * b; overlapping sites multiply matrices in that order."""
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            merged = ta.factor_map
            for site, m in tb.factors:
                merged[site] = merged[site] @ m if site in merged else m
            terms.append(ObservableTerm(ta.coeff * tb.coeff, tuple(merged.items())))
    return Observable(tuple(terms))


@dataclass(frozen=True)
class EvalContext:
    """Immutable evaluation state: parameters, solved boundary, cached operators."""

    params: ModelParams
    solution: BoundarySolution
    vertex: np.ndarray = field(repr=False, compare=False, default=None)
    h: np.ndarray = field(repr=False, compare=False, default=None)
    h_sqrt: np.ndarray = field(repr=False, compare=False, default=None)
    omega0: np.ndarray = field(repr=False, compare=False, default=None)
    omega0_sqrt: np.ndarray = field(repr=False, compare=False, default=None)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex", vertex_operator(self.params))
        object.__setattr__(self, "h", np.asarray(self.solution.h, dtype=complex))
        object.__setattr__(self, "h_sqrt", psd_sqrt(self.h))
        object.__setattr__(self, "omega0", np.asarray(self.solution.omega0, dtype=complex))
        object.__setattr__(self, "omega0_sqrt", psd_sqrt(self.omega0))

    @classmethod
    def create(cls, params: ModelParams, branch: Branch) -> "EvalContext":
        return cls(params=params, solution=solve_branch(params, branch))


def _check_support(obs: Observable, n: int, k: int) -> None:
    for site in obs.support:
        if site.level > n:
            raise DomainError(f"observable site {site} lies outside the level-{n} ball")
        if any(d > k for d in site.digits):
            raise DomainError(f"site {site} is not a vertex of the order-{k} tree")


def _boundary_diag_chain(ctx: EvalContext, sites: Sequence[TreeCoord], boundary_level: int) -> np.ndarray:
    mats = [ctx.h_sqrt if s.level == boundary_level else PAULI["I"] for s in sites]
    return kron_chain(mats)


def weight_matrix(ctx: EvalContext, n: int) -> SiteOperator:
    """The dense positive weight of the (n+1)-ball, built literally.

    Conjugates the root weight by the ordered product of vertex operators over
    levels 0..n and attaches h^{1/2} at every boundary site.  Refuses volumes
    beyond 7 sites.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    sites = ball_vertices(n + 1, ctx.params.k)
    if len(sites) > MAX_DENSE_SITES:
        raise ResourceLimitError(
            f"dense weight on {len(sites)} sites (dim 2^{len(sites)}) exceeds the {MAX_DENSE_SITES}-site guard"
        )
    key = ("weight", n)
    if key in ctx._cache:
        return ctx._cache[key]
    nsites = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    k_op = embed_operator(ctx.omega0_sqrt, [pos[ROOT]], nsites)
    for m in range(n + 1):
        for x in level_vertices(m, ctx.params.k):
            slots = [pos[x]] + [pos[c] for c in successors(x, ctx.params.k)]
            k_op = k_op @ embed_operator(ctx.vertex, slots, nsites)
    k_op = k_op @ _boundary_diag_chain(ctx, sites, n + 1)
    w = SiteOperator(tuple(sites), dagger(k_op) @ k_op)
    ctx._cache[key] = w
    return w


def _trace_weight(w: SiteOperator, obs: Observable) -> complex:
    """Normalized trace of a weight against the observable embedded on its sites."""
    total = 0j
    for term in obs.terms:
        fmap = term.factor_map
        emb = kron_chain([fmap.get(s, PAULI["I"]) for s in w.sites])
        total += term.coeff * normalized_trace(w.matrix @ emb)
    return total


def eval_bruteforce(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """Normalized trace of the depth-(n+1) weight against the embedded observable."""
    _check_support(obs, n, ctx.params.k)
    return _trace_weight(weight_matrix(ctx, n), obs)


def contract_vertex(ctx: EvalContext, a_root: np.ndarray, b_left: np.ndarray, b_right: np.ndarray) -> np.ndarray:
    """One vertex of the conditional expectation: Tr_parent(A (a x b1 x b2) A*)."""
    return vertex_channel(ctx.vertex, a_root, b_left, b_right)


def eval_recursive(ctx: EvalContext, obs: Observable) -> complex:
    """Evaluate by contracting the tree level by level toward the root.

    Per term, vertices at the deepest support level m absorb the solved
    boundary pair (h, h) of their children; inner levels contract the plain
    conditional expectation; untouched subtrees contribute h through the
    fixed point and never get built.
    """
    total = 0j
    for term in obs.terms:
        total += term.coeff * _eval_term(ctx, term)
    return total


def _eval_term(ctx: EvalContext, term: ObservableTerm) -> complex:
    fmap = term.factor_map
    for site in fmap:
        if any(d > ctx.params.k for d in site.digits):
            raise DomainError(f"site {site} is not a vertex of the order-{ctx.params.k} tree")
    m = term.depth
    active: list[set[TreeCoord]] = [set() for _ in range(m + 1)]
    for site in fmap:
        cur = site
        while True:
            active[cur.level].add(cur)
            if cur.is_root():
                break
            cur = cur.parent()
    active[0].add(ROOT)
    eye = PAULI["I"]
    values: dict[TreeCoord, np.ndarray] = {}
    for x in active[m]:
        values[x] = contract_vertex(ctx, fmap.get(x, eye), ctx.h, ctx.h)
    for level in range(m - 1, -1, -1):
        for x in active[level]:
            left, right = successors(x, ctx.params.k)
            values[x] = contract_vertex(
                ctx, fmap.get(x, eye), values.get(left, ctx.h), values.get(right, ctx.h)
            )
    return normalized_trace(ctx.omega0 @ values[ROOT])


def _sparse_embed(matrix: np.ndarray, slots: Sequence[int], nsites: int) -> sparse.csr_matrix:
    """Sparse embedding of a small operator at the given register slots."""
    import scipy.sparse as sparse

    mat = np.asarray(matrix, dtype=complex)
    m = mat.shape[0].bit_length() - 1
    rr, cc = np.nonzero(mat)
    vals = mat[rr, cc]
    bitpos = [nsites - 1 - s for s in slots]

    def scatter(idx: np.ndarray) -> np.ndarray:
        out = np.zeros_like(idx, dtype=np.int64)
        for t in range(m):
            out |= ((idx >> (m - 1 - t)) & 1) << bitpos[t]
        return out

    rest = [b for b in range(nsites) if b not in bitpos]
    combos = np.arange(2 ** len(rest), dtype=np.int64)
    base = np.zeros_like(combos)
    for t, b in enumerate(rest):
        base |= ((combos >> t) & 1) << b
    rows = (base[:, None] | scatter(rr.astype(np.int64))[None, :]).ravel()
    cols = (base[:, None] | scatter(cc.astype(np.int64))[None, :]).ravel()
    data = np.tile(vals, combos.size)
    dim = 2**nsites
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def _sparse_diag_chain(per_site: Sequence[np.ndarray]) -> sparse.csr_matrix:
    import scipy.sparse as sparse

    diag = np.array([1.0 + 0j])
    for m in per_site:
        diag = np.kron(diag, np.diagonal(m))
    return sparse.diags(diag).tocsr()


def _sparse_kn(ctx: EvalContext, n: int) -> tuple[sparse.csr_matrix, tuple[TreeCoord, ...]]:
    key = ("sparse_k", n)
    if key in ctx._cache:
        return ctx._cache[key]
    sites = ball_vertices(n + 1, ctx.params.k)
    if len(sites) > MAX_SPARSE_SITES:
        raise ResourceLimitError(f"sparse weight on {len(sites)} sites exceeds the {MAX_SPARSE_SITES}-site guard")
    nsites = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    k_op = _sparse_diag_chain([ctx.omega0_sqrt if s.is_root() else PAULI["I"] for s in sites])
    for m in range(n + 1):
        for x in level_vertices(m, ctx.params.k):
            slots = [pos[x]] + [pos[c] for c in successors(x, ctx.params.k)]
            k_op = (k_op @ _sparse_embed(ctx.vertex, slots, nsites)).tocsr()
    k_op = (k_op @ _sparse_diag_chain([ctx.h_sqrt if s.level == n + 1 else PAULI["I"] for s in sites])).tocsr()
    out = (k_op, tuple(sites))
    ctx._cache[key] = out
    return out


def reduced_weight(ctx: EvalContext, n: int) -> SiteOperator:
    """The sparse weight K*K of the (n+1)-ball, reduced to the inner n-ball.

    K is built literally, as in weight_matrix, and its boundary level n+1 is
    traced out with the normalized partial trace.  A column index of K holds
    the inner bits high and the boundary bits low.  Grouping K's nonzeros by
    (row, boundary bits) gives a sparse S with one column per inner basis
    state, and Tr_boundary(K*K) = S*S.  Only S*S is ever dense: 128x128 at
    n = 2.
    """
    import scipy.sparse as sparse

    key = ("sparse_rho", n)
    if key in ctx._cache:
        return ctx._cache[key]
    k_op, sites = _sparse_kn(ctx, n)
    inner = tuple(s for s in sites if s.level <= n)
    n_in, n_bound = len(inner), len(sites) - len(inner)
    # Swap the column bits to (boundary, inner): sorted within a row, each
    # boundary state is then one contiguous run, i.e. one row of S.
    swapped = (k_op.indices & (2**n_bound - 1)) << n_in | k_op.indices >> n_bound
    k_swap = sparse.csr_matrix((k_op.data, swapped, k_op.indptr), shape=k_op.shape, copy=True)
    k_swap.sort_indices()
    rows = np.repeat(np.arange(k_op.shape[0], dtype=np.int64), np.diff(k_op.indptr))
    groups = rows << n_bound | k_swap.indices >> n_in
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    s_op = sparse.csr_matrix(
        (k_swap.data, k_swap.indices & (2**n_in - 1), np.append(starts, groups.size)),
        shape=(starts.size, 2**n_in),
    )
    w = SiteOperator(inner, (s_op.conj().T @ s_op).toarray() / 2**n_bound)
    ctx._cache[key] = w
    return w


def eval_sparse(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """The brute-force functional on the (n+1)-ball via sparse algebra; reaches n = 2.

    Reduce, then trace: the observable lives on the n-ball, so its value is
    the normalized trace against the reduced weight (reduced_weight, cached
    per context and depth), a 128x128 product at n = 2.  Identical in value
    to eval_bruteforce where both are defined; used for the level-1
    compatibility check whose deep side needs the 15-site volume.
    """
    _check_support(obs, n, ctx.params.k)
    return _trace_weight(reduced_weight(ctx, n), obs)


def random_product_observable(rng: np.random.Generator, sites: Iterable[TreeCoord]) -> Observable:
    """A product observable with O(1) random complex factors on the given sites."""
    factors = {}
    for site in sites:
        factors[site] = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
    return Observable.product(factors)


def compatibility_residual(ctx: EvalContext, n: int, trials: int, seed: int = 0) -> float:
    """Worst |phi^(n+1)(a) - phi^(n)(a)| over random product observables on the n-ball.

    n = 0 compares the two dense volumes; n = 1 evaluates the deep side on the
    sparse route (the 15-site volume exceeds the dense guard).
    """
    if n not in (0, 1):
        raise ResourceLimitError(f"compatibility check supports n in {{0, 1}}, got {n}")
    rng = np.random.default_rng(seed)
    sites = ball_vertices(n, ctx.params.k)
    worst = 0.0
    for _ in range(trials):
        obs = random_product_observable(rng, sites)
        shallow = eval_bruteforce(ctx, obs, n)
        deep = eval_sparse(ctx, obs, n + 1) if n + 1 > 1 else eval_bruteforce(ctx, obs, n + 1)
        worst = max(worst, abs(deep - shallow))
    return worst


def correlation(ctx: EvalContext, a: Observable, f: Observable, g: TreeCoord) -> complex:
    """The two-point functional phi(a * tau_g(f)) via the recursive route."""
    return eval_recursive(ctx, multiply_observables(a, translate_observable(f, g)))
