"""Finite-volume and limit evaluation of the boundary-driven tree states.

Three routes coexist on purpose:

* the literal dense reference, which builds the weight matrix K*K of the
  volume as written (guarded at 7 sites, i.e. the two-level ball);
* the outward reduced oracle, which builds the same weight already reduced
  to the inner ball, Tr_{level n+1}(K*K), by conjugating outward from the
  root and tracing out each boundary pair as soon as no later factor acts on
  it; it reaches the three-level ball (15 sites) with nothing larger than
  128x128;
* a recursive level-by-level contraction through the per-vertex conditional
  expectation, valid at any depth.

Both finite-volume routes end in the same step, the normalized trace of a
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
from typing import Iterable, Mapping, Sequence

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

MAX_DENSE_SITES = 7  # dims beyond 2^7 = 128 are refused on the dense route
MAX_REDUCED_DEPTH = 2  # the 15-site ball, reduced to its 7 inner sites


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
        total += term.coeff * np.einsum("ij,ji->", w.matrix, emb) / emb.shape[0]
    return complex(total)


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


def reduced_weight(ctx: EvalContext, n: int) -> SiteOperator:
    """The weight K*K of the (n+1)-ball, reduced to the inner n-ball; reaches n = 2.

    Built outward from the root instead of from K: starting at omega0, every
    vertex x in K's order conjugates the weight, X -> A_x* (X x 1 x 1) A_x on
    (x, x1, x2), its children joining at the end of the ball order.  At level
    n the factor is A_x (1 x h^{1/2} x h^{1/2}) and x's two boundary children
    are traced out (normalized) right away, which is exact because no later
    factor acts on them; nothing uses the fixed point.  Each step is a small
    superoperator on x's slot, and the largest object is the 128x128 result
    at n = 2.  Refuses n >= 3.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    if n > MAX_REDUCED_DEPTH:
        raise ResourceLimitError(
            f"reduced weight of the {2 ** (n + 2) - 1}-site ball exceeds the "
            f"{2 ** (MAX_REDUCED_DEPTH + 2) - 1}-site guard"
        )
    key = ("reduced_weight", n)
    if key in ctx._cache:
        return ctx._cache[key]
    a = ctx.vertex.reshape(2, 4, 8)
    step = np.einsum("aip,biq->abpq", a.conj(), a).reshape((2,) * 8)
    a_h = (ctx.vertex @ kron_chain([PAULI["I"], ctx.h_sqrt, ctx.h_sqrt])).reshape(2, 4, 2, 4)
    last = np.einsum("aipc,biqc->abpq", a_h.conj(), a_h) / 4
    x, m = ctx.omega0, 1  # the weight as a tensor on its m sites, rows then columns
    for p in range(2**n - 1):  # the vertices above level n, in ball order
        x = np.tensordot(x, step, axes=([p, m + p], [0, 1]))
        x = np.moveaxis(x, range(-6, 0), [p, m, m + 1, m + 2 + p, 2 * m + 2, 2 * m + 3])
        m += 2
    for p in range(2**n - 1, m):  # level n
        x = np.tensordot(x, last, axes=([p, m + p], [0, 1]))
        x = np.moveaxis(x, [-2, -1], [p, m + p])
    w = SiteOperator(tuple(ball_vertices(n, ctx.params.k)), x.reshape(2**m, 2**m))
    ctx._cache[key] = w
    return w


def eval_sparse(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """The brute-force functional on the (n+1)-ball, traced against the reduced weight.

    The observable lives on the n-ball, so its value is the normalized trace
    against reduced_weight (cached per context and depth).  Identical in
    value to eval_bruteforce where both are defined; reaches the 15-site
    volume (n = 2) that the level-1 compatibility check needs.
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

    n = 0 compares the two dense volumes; n = 1 evaluates the deep side against
    the reduced weight (the 15-site volume exceeds the dense guard).
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
