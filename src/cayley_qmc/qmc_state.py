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
bare 2^m x 2^m weight in ball order (the vertex at position x has its
children at 2x+1 and 2x+2) against the observable embedded in that order;
they differ only in how the weight is built.

The recursive route evaluates the same functional as the brute force: an
observable whose deepest factors sit at level m is contracted from level m
down, each vertex below which the observable acts on nothing absorbing the
boundary pair (h, h) of its children; for diagonal factors this coincides
with sandwiching h^{1/2} directly at level m.  The vertex operator A is
block-diagonal in its vertex's own sz, so the per-vertex channel keeps each
entry of the vertex's factor where it is: it is the 4x4x4 tensor M of the
children's inputs per output entry, built once per context
(channel_tensor), with its leaf vector g (both children h) and its spine
map S (the channel of a factor-free vertex with exactly one child in the
support, a chain vertex), which acts on the two diagonal entries alone.
Each product term is evaluated in two parts:

* a plan, which depends only on the term and is built on its first
  evaluation and kept on the (immutable) term: it visits only the levels
  where something happens (a factor, or two touched subtrees meeting),
  carries every chain vertex in between as a count of spine maps, and
  interns equal subtrees (e.g. a ball projector's), so a level-uniform
  observable costs O(depth) and a product with nothing shared costs one row
  per active vertex;
* a replay per context, which does only the numeric work: one product for
  all leaves, k scalar 2x2 steps per chain, one einsum per level for the
  inner vertices, and the scalar trace against the diagonal omega0 at the
  root.

Evaluating one observable on several states, as the phase-transition
witnesses do, therefore repeats only the replay.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .boundary import Branch, BoundarySolution, solve_branch
from .errors import DomainError, ResourceLimitError
from .linalg import dagger, kron_chain
from .model_ops import PAULI, ModelParams, pauli, vertex_operator
from .tree import ROOT, TreeCoord, ball_vertices, concat

MAX_DENSE_SITES = 7  # dims beyond 2^7 = 128 are refused on the dense route
MAX_REDUCED_DEPTH = 2  # the 15-site ball, reduced to its 7 inner sites


@dataclass(frozen=True)
class ObservableTerm:
    """One site-factorized term: coeff times a finite product of 2x2 factors.

    A term never changes once built: each factor is stored as a read-only
    complex copy, made once per distinct input array (a projector's sites
    share one), so writing to the caller's array afterwards changes nothing
    and writing to a stored factor raises ValueError.  That is what lets the
    term carry its contraction plan (`_plan`, built on first evaluation).
    Two terms are equal when their coefficients are and, in order, their sites
    and their factors' bytes.
    """

    coeff: complex
    factors: tuple[tuple[TreeCoord, np.ndarray], ...]

    def __post_init__(self) -> None:
        sites = [s for s, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise DomainError("term factors must sit on distinct sites")
        copies: dict[int, np.ndarray] = {}  # id of an input array -> its read-only copy
        factors = []
        for site, m in self.factors:
            a = copies.get(id(m))
            if a is None:
                a = copies[id(m)] = np.array(m, dtype=complex)
                if a.shape != (2, 2):
                    raise DomainError(f"factors must be 2x2, got shape {a.shape}")
                a.setflags(write=False)
            factors.append((site, a))
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "factors", tuple(factors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservableTerm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.coeff, tuple((s, m.tobytes()) for s, m in self.factors)

    @property
    def factor_map(self) -> dict[TreeCoord, np.ndarray]:
        return dict(self.factors)

    @cached_property
    def _plan(self) -> "_Plan":
        """The term's contraction plan, which depends on no context: built once, replayed per context."""
        return _compile(self)


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

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Observable":
        """Parse the observable file format; any other shape is a DomainError."""
        if not isinstance(doc, Mapping) or not isinstance(doc.get("terms"), list):
            raise DomainError("observable JSON needs an object with a 'terms' list")
        return cls(tuple(_term_from_json(raw) for raw in doc["terms"]))


def is_real_number(x) -> bool:
    """True for an int or a float, as JSON writes a real number; bool is refused."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def complex_from_pair(pair, what: str) -> complex:
    """The complex number of an [re, im] pair of real numbers, as the JSON interfaces write one."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(is_real_number, pair)):
        raise DomainError(f"{what} must be an [re, im] pair of real numbers, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError as exc:  # an integer literal beyond the largest double
        raise DomainError(f"{what} does not fit a float ({exc})") from None


def matrix_from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    """A 2x2 matrix from its four entries as a row-major list of [re, im] pairs."""
    if not isinstance(pairs, (list, tuple)):
        raise DomainError(f"a matrix must be a list of [re, im] pairs, got {pairs!r}")
    if len(pairs) != 4:
        raise DomainError(f"a 2x2 matrix needs four [re, im] pairs, got {len(pairs)}")
    return np.array([complex_from_pair(p, "a matrix entry") for p in pairs], dtype=complex).reshape(2, 2)


def _term_from_json(raw) -> ObservableTerm:
    factors = raw.get("factors", []) if isinstance(raw, Mapping) else None
    if not isinstance(factors, list):
        raise DomainError(f"a term must be an object with a 'factors' list, got {raw!r}")
    coeff = raw.get("coeff", 1.0)
    coeff = complex_from_pair([coeff, 0] if is_real_number(coeff) else coeff, "coeff")
    return ObservableTerm(coeff, tuple(_factor_from_json(f) for f in factors))


def _factor_from_json(f) -> tuple[TreeCoord, np.ndarray]:
    if not isinstance(f, Mapping) or "site" not in f:
        raise DomainError(f"a factor must be an object with a 'site', got {f!r}")
    site = f["site"]
    if not isinstance(site, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in site):
        raise DomainError(f"a site must be a list of integer digits, got {site!r}")
    if "pauli" in f:
        if not isinstance(f["pauli"], str):
            raise DomainError(f"a pauli factor must be a string, got {f['pauli']!r}")
        mat = pauli(f["pauli"])
    elif "matrix" in f:
        mat = matrix_from_pairs(f["matrix"])
    else:
        raise DomainError("factor needs either 'pauli' or 'matrix'")
    return TreeCoord(tuple(site)), mat


def relocate_observable(f: Observable, g: TreeCoord) -> Observable:
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


def _diagonal_boundary(a: np.ndarray, name: str) -> np.ndarray:
    """The boundary matrix as complex, refused unless 2x2 diagonal with real nonnegative entries."""
    a = np.asarray(a, dtype=complex)
    # scalar tests: a nan entry fails every comparison, so it is refused
    if a.shape != (2, 2) or not (
        a[0, 1] == 0 and a[1, 0] == 0 and a[0, 0].imag == 0 and a[1, 1].imag == 0
        and a[0, 0].real >= 0 and a[1, 1].real >= 0
    ):
        raise DomainError(f"boundary {name} must be diagonal with real nonnegative entries, got {a.tolist()}")
    return a


@dataclass(frozen=True)
class EvalContext:
    """Immutable evaluation state: parameters, solved boundary, cached operators.

    Every boundary solution is diagonal (alpha*1, or xi0*1 +- xi3*sz on the
    ordered pair), so h and omega0 are accepted only as 2x2 diagonal matrices
    with real nonnegative entries, a DomainError otherwise, and their square
    roots are entrywise.  `create` takes the branch's solution from
    boundary.solve_branch: it is per-process and shared with every other
    caller that solves the same (params, branch), so its h and omega0 (and
    this context's) are read-only; a refusal is not cached and raises on every
    call.
    """

    params: ModelParams
    solution: BoundarySolution
    vertex: np.ndarray = field(repr=False, compare=False, default=None)
    h: np.ndarray = field(repr=False, compare=False, default=None)
    omega0: np.ndarray = field(repr=False, compare=False, default=None)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex", vertex_operator(self.params))
        object.__setattr__(self, "h", _diagonal_boundary(self.solution.h, "h"))
        object.__setattr__(self, "omega0", _diagonal_boundary(self.solution.omega0, "omega0"))

    @cached_property
    def h_sqrt(self) -> np.ndarray:
        """h^{1/2}, entrywise, which only the finite-volume oracles use; computed on first use."""
        return np.sqrt(self.h)

    @cached_property
    def omega0_sqrt(self) -> np.ndarray:
        """omega0^{1/2}, entrywise, which only the finite-volume oracles use; computed on first use."""
        return np.sqrt(self.omega0)

    @classmethod
    def create(cls, params: ModelParams, branch: Branch) -> "EvalContext":
        return cls(params=params, solution=solve_branch(params, branch))


def _check_support(obs: Observable, n: int) -> None:
    for site in obs.support:
        if site.level > n:
            raise DomainError(f"observable site {site} lies outside the level-{n} ball")


def weight_matrix(ctx: EvalContext, n: int) -> np.ndarray:
    """The dense positive weight K*K of the (n+1)-ball, built literally, in ball order.

    K is omega0^{1/2} on the root, then the vertex operator A_x on
    (x, 2x+1, 2x+2) for every vertex x of levels 0..n in ball order, then
    h^{1/2} on every boundary site; each factor multiplies K on its own site
    axes.  Refuses volumes beyond 7 sites.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    m = 2 ** (n + 2) - 1  # sites of the (n+1)-ball
    if m > MAX_DENSE_SITES:
        raise ResourceLimitError(f"dense weight on {m} sites (dim 2^{m}) exceeds the {MAX_DENSE_SITES}-site guard")
    key = ("weight", n)
    if key in ctx._cache:
        return ctx._cache[key]
    inner = 2 ** (n + 1) - 1  # sites of the n-ball: the vertices that carry an A
    factors = [(ctx.omega0_sqrt, (0,))]
    factors += [(ctx.vertex, (x, 2 * x + 1, 2 * x + 2)) for x in range(inner)]
    factors += [(ctx.h_sqrt, (x,)) for x in range(inner, m)]
    k = np.eye(2**m, dtype=complex).reshape((2,) * (2 * m))  # rows then columns, one axis per site
    for op, sites in factors:
        cols = [m + x for x in sites]
        k = np.tensordot(k, op.reshape((2,) * (2 * len(sites))), axes=(cols, range(len(sites))))
        k = np.moveaxis(k, range(-len(sites), 0), cols)
    k = k.reshape(2**m, 2**m)
    w = dagger(k) @ k
    ctx._cache[key] = w
    return w


def _trace_weight(w: np.ndarray, n: int, obs: Observable) -> complex:
    """Normalized trace of the n-ball's weight against the observable embedded in ball order."""
    sites = ball_vertices(n)
    total = 0j
    for term in obs.terms:
        fmap = term.factor_map
        emb = kron_chain([fmap.get(s, PAULI["I"]) for s in sites])
        total += term.coeff * np.einsum("ij,ji->", w, emb) / emb.shape[0]
    return complex(total)


def eval_bruteforce(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """Normalized trace of the depth-(n+1) weight against the embedded observable."""
    _check_support(obs, n)
    return _trace_weight(weight_matrix(ctx, n), n + 1, obs)


def channel_tensor(ctx: EvalContext) -> tuple[np.ndarray, np.ndarray, tuple[complex, complex, complex, complex]]:
    """The one-vertex channel on the vertex's own spin sector, and its contractions with h.

    A = K K L is block-diagonal in its vertex's own sz: the Ising bonds are
    diagonal and the XY bond acts only between the children, so A's entries
    with output spin p != input spin a are exactly 0.  The channel
    Tr_children(A (root x b1 x b2) A*) / 4, as model_ops.vertex_channel
    normalizes it, therefore keeps the root's entry (p,q) where it is:

      M[(p,q),(b,b'),(c,c')] = 1/4 sum_ij A[p,i,j,p,b,c] conj(A[q,i,j,q,b',c'])

    is the output entry (p,q) per unit of that root entry, given the flattened
    2x2 inputs of child 1 and child 2.  g[o] = sum_bc M[o,b,c] h[b] h[c] is
    the vertex whose subtrees the observable does not touch (its leaf
    vector).  The spine map, M with the identity on the root and h on child
    2, maps the value of the one touched child to the value of a factor-free
    vertex.  Only its rows and columns 0 and 3 (the diagonal entries) are
    nonzero: the identity has no off-diagonal entry, and M conserves sz
    charge, (b - b') + (c - c') = 0, so with a diagonal h on child 2 only
    the touched child's diagonal reaches the output.  S holds those four
    entries as Python complexes (s00, s03, s30, s33).  The tests check each
    of these zeros exactly.  A is exactly symmetric under exchanging the
    children, so S serves a touched child 2 as well.  Built on first use and
    cached on the context.
    """
    if "channel" not in ctx._cache:
        # A as (parent p, children ij, root input a, children's inputs bc); its
        # two diagonal blocks a = p, then (p, q, b, c, b', c') reordered to (p, q, b, b', c, c')
        v = ctx.vertex.reshape(2, 4, 2, 4)
        ad = np.stack((v[0, :, 0, :], v[1, :, 1, :]))
        pq = np.einsum("pib,qic->pqbc", ad, ad.conj()).reshape((2,) * 6)
        m = pq.transpose(0, 1, 2, 4, 3, 5).reshape(4, 4, 4) / 4
        eye, h = PAULI["I"].reshape(4), ctx.h.reshape(4)
        spine = np.einsum("obc,o,c->ob", m, eye, h)
        s = spine[[0, 0, 3, 3], [0, 3, 0, 3]].tolist()  # rows and columns 1 and 2 are exactly 0
        ctx._cache["channel"] = m, np.einsum("obc,b,c->o", m, h, h), tuple(s)
    return ctx._cache["channel"]


def eval_recursive(ctx: EvalContext, obs: Observable) -> complex:
    """Evaluate by contracting the tree level by level toward the root.

    Per term, only the ancestors of the support are built.  A vertex whose
    children lie outside the support absorbs the solved boundary pair (h, h)
    of its children; a factor-free vertex with one child in the support maps
    that child's value through the spine map; the others contract their factor
    with their children's values; untouched subtrees contribute h through the
    fixed point and never get built.  Each term's structure is worked out once
    (ObservableTerm._plan), so evaluating one observable on several contexts
    repeats only the numeric work.
    """
    total = 0j
    for term in obs.terms:
        total += term.coeff * _eval_term(ctx, term)
    if not cmath.isfinite(total):
        raise DomainError(f"the value {total} is not finite: a factor or the state's weights overflow a float")
    return total


_EYE_BYTES = PAULI["I"].tobytes()
_UNTOUCHED = 0  # the subtree id of a child outside the support: its value is h


class _Step(NamedTuple):
    """The subtrees one event level adds, in id order: chain tops, then inner vertices."""

    tops: tuple[tuple[int, int], ...]  # (bottom id, k): the spine map applied k times to the bottom's value
    inner: np.ndarray | None  # the inner vertices' factors, one flattened row each
    children: np.ndarray | None  # their left and right child ids, shape (2, rows)


class _Plan(NamedTuple):
    size: int  # rows of the value table: h, the steps' subtrees in order, then the leaves
    leaves: np.ndarray  # the leaves' factors, one flattened row each, last leaf first (a term has one at least)
    steps: tuple[_Step, ...]
    root: int


def _eval_term(ctx: EvalContext, term: ObservableTerm) -> complex:
    """One product term: its plan, built once per term, replayed on this context.

    The replay does only numeric work on a table of subtree values: row 0 is
    h, the untouched subtree; every leaf of the term is its factor times the
    leaf vector g, all in one product, into the table's last rows (leaf ids
    are negative, counted from the end); each step then adds its chain tops
    (k spine maps each, on the value's two diagonal entries in Python complex
    arithmetic) and its inner vertices (M contracted with the factor's entry
    at the output and with both children, one einsum); the root's value is
    traced against the diagonal omega0.  Each kernel leaves out only terms
    that are exactly 0 (the channel's terms that would move the factor's
    entry, S's rows and columns 1 and 2, omega0's off-diagonal), and _compile
    refuses a factor that is not finite, so no 0 * inf is left out either.
    Every vertex kind has one kernel wherever it occurs, and einsum gives each
    row the bits it would give that row alone, so a subtree's value depends
    only on the subtree: a shared subtree carries the very value an unshared,
    vertex-by-vertex evaluation computes.
    """
    m, g, (s00, s03, s30, s33) = channel_tensor(ctx)
    plan = term._plan
    values = np.empty((plan.size, 4), dtype=complex)
    values[_UNTOUCHED] = ctx.h.reshape(4)
    values[-len(plan.leaves) :] = plan.leaves * g
    n = 1
    for tops, inner, children in plan.steps:
        for bottom, k in tops:
            u, _, _, v = values[bottom].tolist()
            for _ in range(k):
                u, v = s00 * u + s03 * v, s30 * u + s33 * v
            values[n] = u, 0, 0, v
            n += 1
        if inner is not None:
            left, right = values[children]
            values[n : n + len(inner)] = np.einsum("obc,no,nb,nc->no", m, inner, left, right)
            n += len(inner)
    r0, _, _, r3 = values[plan.root].tolist()
    w0, _, _, w3 = ctx.omega0.ravel().tolist()
    return (w0 * r0 + w3 * r3) / 2


def _compile(term: ObservableTerm) -> _Plan:
    """The context-free plan of one term: which subtrees to contract, in which order.

    Levels are visited deepest first, but only event levels: a level that
    holds a factor, a level where two touched subtrees meet, and the root's.
    Every touched vertex in between is a chain vertex (no factor, or exactly
    the identity's bytes, and one touched child), so it is carried up as
    (bottom subtree id, k spine maps still to apply), its index shifted by
    i >> s, and the levels in between are never visited.  Of the sorted
    touched indices at level L, adjacent ones a < b meet at level
    L - (a ^ b).bit_length().  At an event level, a carried chain that
    reaches a factor or a second touched child is materialized as a chain
    top, interned by (bottom id, k); leaves and inner vertices are interned by
    (factor bytes, left id, right id), so equal subtrees, such as those of a
    ball projector, are contracted once.  A leaf needs no other subtree, so
    the leaves of all levels are contracted together, first.
    """
    # One site, or none: its leaf, then one chain up to the root.  The walk
    # below builds the same plan; fresh one-site markers are frequent enough
    # (each solved point checks several) that skipping the walk pays.
    if len(term.factors) <= 1:
        site, mat = term.factors[0] if term.factors else (ROOT, PAULI["I"])
        leaf = _finite(mat.reshape(1, 4))
        if site.level == 0:
            return _Plan(2, leaf, (), -1)
        return _Plan(3, leaf, (_Step(((-1, site.level),), None, None),), 1)
    by_level: dict[int, dict[int, bytes]] = {0: {0: _EYE_BYTES}}  # the root is always an event
    raw: dict[int, bytes] = {}  # id of a stored factor -> its bytes, once per distinct array
    for site, mat in term.factors:
        if id(mat) not in raw:
            raw[id(mat)] = mat.tobytes()
        by_level.setdefault(site.level, {})[site.index] = raw[id(mat)]
    factor_levels = sorted(by_level)
    ids: dict[tuple, int] = {}  # interned subtree -> its row: steps' subtrees from 1 up, leaves from -1 down
    leaves: list[tuple] = []
    inner: list[tuple] = []  # all steps' inner vertices, in id order
    steps: list[tuple[tuple[tuple[int, int], ...], int, int]] = []  # (chain tops, inner[start:stop])
    made = 0  # rows the steps fill
    # the touched vertices at level `below`: index -> subtree id, and for a carried
    # chain index -> the spine maps still to apply to that subtree (only where > 0)
    below, front, lift = factor_levels[-1] + 1, {}, {}

    def top(v: int, k: int) -> int:
        """The id of the chain top k spine maps above subtree v, interned."""
        nonlocal made
        if (v, k) not in ids:
            made += 1
            ids[v, k] = made
            tops.append((v, k))
        return ids[v, k]

    while below > 0:
        level = factor_levels[-1]
        if level < below - 1 and len(front) > 1:  # two touched subtrees may meet first
            touched = sorted(front)
            level = max(level, below - min(map(int.__xor__, touched, touched[1:])).bit_length())
        if level == factor_levels[-1]:
            factor_levels.pop()
        shift = below - level - 1
        if shift:
            lift = {i >> shift: lift.get(i, 0) + shift for i in front}
            front = {i >> shift: v for i, v in front.items()}
        here = by_level.get(level, {})
        carried = {}  # the chain vertices of this level: index -> (subtree id, spine maps)
        for j in [j for j in front if j ^ 1 not in front]:
            if here.get(j >> 1, _EYE_BYTES) == _EYE_BYTES:
                carried[j >> 1] = front.pop(j), lift.pop(j, 0) + 1
        tops: list[tuple[int, int]] = []
        for j, k in lift.items():
            front[j] = top(front[j], k)
        vertices = here.keys() | {j >> 1 for j in front}
        keys = {
            i: (here.get(i, _EYE_BYTES), front.get(2 * i, _UNTOUCHED), front.get(2 * i + 1, _UNTOUCHED))
            for i in (vertices - carried.keys() if carried else vertices)
        }
        start = len(inner)
        for key in dict.fromkeys(keys.values()):
            if key in ids:
                continue
            if key[1] == key[2] == _UNTOUCHED:
                leaves.append(key)
                ids[key] = -len(leaves)
            else:
                inner.append(key)
                made += 1
                ids[key] = made
        if tops or len(inner) > start:
            steps.append((tuple(tops), start, len(inner)))
        below, front, lift = level, {i: ids[key] for i, key in keys.items()}, {}
        for i, (v, k) in carried.items():
            front[i], lift[i] = v, k
    tops = []  # the root's chain top, if the root is a chain vertex
    root = top(front[0], lift[0]) if lift else front[0]
    if tops:
        steps.append((tuple(tops), len(inner), len(inner)))
    # every factor that is not the identity sits in a leaf or an inner row, so one test covers the term
    table = _finite(_stack(key[0] for key in [*reversed(leaves), *inner]))
    rows = table[len(leaves) :]
    if inner:
        children = np.array([[key[1] for key in inner], [key[2] for key in inner]], dtype=np.intp)
    return _Plan(
        1 + made + len(leaves),
        table[: len(leaves)],
        tuple(_Step(t, rows[a:b], children[:, a:b]) if b > a else _Step(t, None, None) for t, a, b in steps),
        root,
    )


def _stack(factors: Iterable[bytes]) -> np.ndarray:
    """Flattened 2x2 factors, one row each, from their bytes."""
    return np.frombuffer(b"".join(factors), dtype=complex).reshape(-1, 4)


def _finite(rows: np.ndarray) -> np.ndarray:
    """A plan's factor rows, refused unless every entry is finite: no kernel may see an inf or a nan."""
    if not np.isfinite(rows).all():
        raise DomainError("an observable factor has an entry that is not finite")
    return rows


def reduced_weight(ctx: EvalContext, n: int) -> np.ndarray:
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
    w = x.reshape(2**m, 2**m)
    ctx._cache[key] = w
    return w


def eval_sparse(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """The brute-force functional on the (n+1)-ball, traced against the reduced weight.

    The observable lives on the n-ball, so its value is the normalized trace
    against reduced_weight (cached per context and depth).  Identical in
    value to eval_bruteforce where both are defined; reaches the 15-site
    volume (n = 2) that the level-1 compatibility check needs.
    """
    _check_support(obs, n)
    return _trace_weight(reduced_weight(ctx, n), n, obs)


def random_product_observable(rng: np.random.Generator, sites: Iterable[TreeCoord]) -> Observable:
    """A product observable with O(1) random complex factors on the given sites."""
    factors = {}
    for site in sites:
        factors[site] = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
    return Observable.product(factors)


def compatibility_residual(ctx: EvalContext, n: int, trials: int, seed: int = 0) -> float:
    """Worst |phi^(n+1)(a) - phi^(n)(a)| over random product observables on the n-ball.

    The shallow side is the dense weight and the deep side, on the (n+2)-ball,
    the reduced weight (the 15-site volume of n = 1 exceeds the dense guard).
    """
    if n not in (0, 1):
        raise ResourceLimitError(f"compatibility check supports n in {{0, 1}}, got {n}")
    rng = np.random.default_rng(seed)
    sites = ball_vertices(n)
    worst = 0.0
    for _ in range(trials):
        obs = random_product_observable(rng, sites)
        shallow = eval_bruteforce(ctx, obs, n)
        deep = eval_sparse(ctx, obs, n + 1)
        worst = max(worst, abs(deep - shallow))
    return worst


def correlation(ctx: EvalContext, a: Observable, f: Observable, g: TreeCoord) -> complex:
    """The two-point functional phi(a * tau_g(f)) via the recursive route."""
    return eval_recursive(ctx, multiply_observables(a, relocate_observable(f, g)))
