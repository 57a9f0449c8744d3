"""Finite-volume and limit evaluation of the boundary-driven tree states.

Two routes coexist on purpose:

* the finite-volume oracles, which trace the observable against the weight
  K*K of the (n+1)-ball.  One builder forms that weight outward from the
  root: it starts at omega0 and each vertex conjugates it on the vertex's
  own slot, so K itself is never formed.  eval_bruteforce keeps the
  boundary level (weight_matrix, up to 7 sites, the two-level ball).
  eval_sparse traces each boundary pair out as soon as no later factor
  acts on it (reduced_weight, Tr_{level n+1}(K*K)), so it reaches the
  three-level ball (15 sites) with nothing larger than 128x128.  Where low
  temperature overflows the conjugations but not the weight, the builder
  runs again with exact power-of-two scaling.  The literal K, built factor
  by factor, is the tests' reference;
* a recursive level-by-level contraction through the per-vertex conditional
  expectation, valid at any depth.

Both finite-volume oracles end in the same step, the normalized trace of a
bare 2^m x 2^m weight in ball order (the vertex at position x has its
children at 2x+1 and 2x+2) against the observable, taken site by site
without embedding it: one einsum sums each identity site's diagonal and
keeps each factor site's entries, and the factors are contracted in one
at a time; they differ only in whether the weight keeps its boundary level.

The recursive route evaluates the same functional as the brute force: an
observable whose deepest factors sit at level m is contracted from level m
down, each vertex below which the observable acts on nothing absorbing the
boundary pair (h, h) of its children; for diagonal factors this coincides
with sandwiching h^{1/2} directly at level m.  The vertex operator A is
block-diagonal in its vertex's own sz, so the per-vertex channel keeps each
entry of the vertex's factor where it is: it is the 4x4x4 tensor M of the
children's inputs per output entry, nonzero at six child pairs each.  Those
24 entries depend on the parameters alone and are built once per point,
shared by every context of it; its leaf vector g (both children h) and its
spine map S (the channel of a factor-free vertex with one child in the
support, a chain vertex, on the two diagonal entries alone) are built once
per context from h's two diagonal entries, all as Python complex numbers
(channel_tensor).  A product term is then evaluated in two parts:

* a plan, which depends only on the term and is built on its first
  evaluation and kept on the (immutable) term: one flat tuple of ops in
  dependency order, compiled in one depth-first pass that stops only at the
  branch points (the root, the sites, and the vertices where two sites'
  paths part).  Every chain vertex in between is carried as a count of
  spine maps, and equal subtrees (e.g. a ball projector's) are interned, so
  a level-uniform observable costs O(depth) and a product with nothing
  shared costs one op per branch point;
* a replay per context, which does only the numeric work, in Python
  complex arithmetic: per op one value (a leaf's factor times g, a chain
  top's k scalar 2x2 steps, an inner vertex's six child pairs per entry),
  then the scalar trace of the last op, the root, against omega0.

Evaluating one observable on several states, as the phase-transition
witnesses do, therefore repeats only the replay.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .boundary import Branch, BoundarySolution, solve_branch
from .errors import DomainError, ResourceLimitError
from .linalg import kron
from .model_ops import PAULI, ModelParams, pauli, vertex_operator
from .tree import ROOT, TreeCoord, ball_vertices, concat

MAX_WEIGHT_SITES = 7  # a finite-volume weight beyond 2^7 x 2^7 = 128x128 is refused


@dataclass(frozen=True)
class ObservableTerm:
    """One site-factorized term: coeff times a finite product of 2x2 factors.

    A term never changes once built: each factor is stored as a read-only
    complex copy, made once per distinct input array (a projector's sites
    share one), so writing to the caller's array afterwards changes nothing
    and writing to a stored factor raises ValueError.  That is what lets the
    term carry its contraction plan (`_plan`, built on first evaluation).  A
    factor with an entry that is not finite is a DomainError.
    Two terms are equal when their coefficients are and, in order, their sites
    and their factors' bytes.
    """

    coeff: complex
    factors: tuple[tuple[TreeCoord, np.ndarray], ...]

    def __post_init__(self) -> None:
        single = len(self.factors) == 1  # one site cannot repeat, and one copy has four entries to test
        if not single:
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
        # one test per term: no kernel and no oracle may see an inf or a nan
        finite = all(map(cmath.isfinite, a.ravel().tolist())) if single else np.isfinite(tuple(copies.values())).all()
        if not finite:
            raise DomainError("an observable factor has an entry that is not finite")
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
    def _plan(self) -> tuple[tuple, ...]:
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
    ok = a.shape == (2, 2)
    if ok:  # scalar tests on the entries as Python complexes: a nan entry fails every comparison, so it is refused
        (d0, off01), (off10, d1) = a.tolist()
        ok = off01 == 0 and off10 == 0 and d0.imag == 0 and d1.imag == 0 and d0.real >= 0 and d1.real >= 0
    if not ok:
        raise DomainError(f"boundary {name} must be diagonal with real nonnegative entries, got {a.tolist()}")
    return a


@dataclass(frozen=True)
class EvalContext:
    """Immutable evaluation state: parameters, solved boundary, cached operators.

    Every boundary solution is diagonal (alpha*1, or xi0*1 +- xi3*sz on the
    ordered pair), so h and omega0 are accepted only as 2x2 diagonal matrices
    with real nonnegative entries, a DomainError otherwise, and the weight
    builder takes h's square root entrywise.  `create` takes the branch's
    solution from boundary.solve_branch: it is per-process and shared with
    every other caller that solves the same (params, branch), so its h and
    omega0 (and this context's) are read-only; a refusal is not cached and
    raises on every call.
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

    @classmethod
    def create(cls, params: ModelParams, branch: Branch) -> "EvalContext":
        return cls(params=params, solution=solve_branch(params, branch))


def _check_support(obs: Observable, n: int) -> None:
    for site in obs.support:
        if site.level > n:
            raise DomainError(f"observable site {site} lies outside the level-{n} ball")


def _outward_weight(ctx: EvalContext, n: int, reduce: bool) -> np.ndarray:
    """The weight K*K of the (n+1)-ball, built outward from the root; reduced to the n-ball if reduce.

    K is omega0^{1/2} on the root, then the vertex operator A_x on
    (x, 2x+1, 2x+2) for every vertex x of levels 0..n in ball order, then
    h^{1/2} on every boundary site.  Instead of forming K, the weight starts
    at omega0 and every vertex x, in K's order, conjugates it on x's slot,
    X -> B* (X x 1 x 1) B, x's two children joining at the end of the ball
    order.  B is A_x above level n and A_x (1 x h^{1/2} x h^{1/2}) at level
    n: the boundary sites' h^{1/2}, entrywise, commute with every later A.
    With reduce, each level-n vertex's two boundary children are traced out
    (normalized) right away, which is exact because no later factor acts on
    them; nothing uses the fixed point.  Each step is a small superoperator
    on x's slot (_conjugate_outward).  At low temperature omega0 and A are
    huge and h tiny, so the steps can overflow a float although the weight
    they end in does not: where the plain build is not finite, it runs again
    with power-of-two scaling, and only a finished weight that overflows is
    refused, with a DomainError.  Refuses a result beyond 7 sites (128x128)
    with a ResourceLimitError.  Cached on the context per depth and form.
    """
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    sites = 2 ** (n + 1 if reduce else n + 2) - 1
    if sites > MAX_WEIGHT_SITES:
        raise ResourceLimitError(f"a weight on {sites} sites (dim 2^{sites}) exceeds the {MAX_WEIGHT_SITES}-site guard")
    key = ("reduced_weight" if reduce else "weight", n)
    if key in ctx._cache:
        return ctx._cache[key]
    with np.errstate(over="ignore", invalid="ignore"):  # a weight beyond a float is refused below
        w = _conjugate_outward(ctx, n, reduce, rescale=False)
        if not np.isfinite(w).all():
            w = _conjugate_outward(ctx, n, reduce, rescale=True)
    if not np.isfinite(w).all():
        raise DomainError(
            f"the weight of the {2 ** (n + 2) - 1}-site ball overflows a float on the "
            f"{ctx.solution.branch.value} branch at j0={ctx.params.j0}, j={ctx.params.j}, beta={ctx.params.beta}"
        )
    ctx._cache[key] = w
    return w


def _conjugate_outward(ctx: EvalContext, n: int, reduce: bool, rescale: bool) -> np.ndarray:
    """_outward_weight's conjugations, from omega0 through every vertex of the n-ball.

    With rescale, A, A (1 x h^{1/2} x h^{1/2}) and omega0 enter divided by
    powers of two that bring their largest entries into [1/2, 1), and so
    does the running tensor after every vertex; the powers, summed,
    multiply the finished weight.  Scaling by a power of two is exact
    barring underflow, so the weight is the one a float with an unbounded
    exponent would give the plain build.  Without rescale it is the plain
    build, whose bits every finite weight keeps.
    """
    h_sqrt = np.sqrt(ctx.h)
    a, x, exponent = ctx.vertex, ctx.omega0, 0  # the weight is x 2^exponent
    if rescale:
        (a, a_exponent), (x, exponent) = _normalized(a), _normalized(x)
    a_h = a @ kron(PAULI["I"], kron(h_sqrt, h_sqrt))
    if rescale:
        a_h, h_exponent = _normalized(a_h)
        # each vertex multiplies in its B* and B: 2^n - 1 inner vertices A, 2^n level-n ones A (1 x h^1/2 x h^1/2)
        exponent += 2 * a_exponent * (2 ** (n + 1) - 1) + 2 * h_exponent * 2**n
    a, a_h = a.reshape(2, 4, 8), a_h.reshape(2, 4, 8)
    step = np.einsum("aip,biq->abpq", a.conj(), a).reshape((2,) * 8)
    if reduce:  # x's slot (a, b) -> (p, q), its two children traced out
        b = a_h.reshape(2, 4, 2, 4)
        last = np.einsum("aipc,biqc->abpq", b.conj(), b) / 4
    else:
        last = np.einsum("aip,biq->abpq", a_h.conj(), a_h).reshape((2,) * 8)
    m = 1  # the weight as a tensor on its m sites, rows then columns
    for p in range(2 ** (n + 1) - 1):  # every vertex of the n-ball, in ball order
        t = step if p < 2**n - 1 else last
        x = np.tensordot(x, t, axes=([p, m + p], [0, 1]))
        if t.ndim == 4:  # a reduced level-n vertex: its children are traced out
            x = np.moveaxis(x, [-2, -1], [p, m + p])
        else:
            x = np.moveaxis(x, range(-6, 0), [p, m, m + 1, m + 2 + p, 2 * m + 2, 2 * m + 3])
            m += 2
        if rescale:
            x, e = _normalized(x)
            exponent += e
    w = x.reshape(2**m, 2**m)
    return _ldexp(w, exponent) if rescale else w


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """x times 2^e, on the real and imaginary parts alike: exact barring overflow and underflow."""
    return np.ldexp(np.ascontiguousarray(x).view(np.float64), e).view(complex)


def _normalized(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x 2^-e, e), the power of two e bringing x's largest entry into [1/2, 1)."""
    e = int(np.frexp(np.abs(x).max())[1])
    return _ldexp(x, -e), e


def weight_matrix(ctx: EvalContext, n: int) -> np.ndarray:
    """The positive weight K*K of the (n+1)-ball, in ball order (_outward_weight); reaches n = 1."""
    return _outward_weight(ctx, n, reduce=False)


def reduced_weight(ctx: EvalContext, n: int) -> np.ndarray:
    """The weight K*K of the (n+1)-ball, its level n+1 traced out (_outward_weight); reaches n = 2."""
    return _outward_weight(ctx, n, reduce=True)


def _trace_weight(w: np.ndarray, n: int, obs: Observable) -> complex:
    """Normalized trace of the n-ball's weight against the observable, site by site.

    w is a bare 2^m x 2^m matrix in ball order, m the sites of the n-ball.
    Per term, the observable is never embedded: one single-operand einsum on
    w as a (2,)*(2m) tensor sums the row and column of every identity site
    on the diagonal (one label twice) and keeps the (column, row) pair of
    every factor site, leaving 4^k entries for k factors.  The factors are
    then contracted in one site at a time, f00 x[0] + f01 x[1] + f10 x[2] +
    f11 x[3] on x.reshape(4, -1): elementwise arithmetic, no BLAS call.
    """
    m = 2 ** (n + 1) - 1
    t = w.reshape((2,) * (2 * m))
    total = 0j
    for term in obs.terms:
        labels = [*range(m), *range(m)]  # rows, then columns; an identity site's row and column share a label
        kept = []
        for site, _ in term.factors:
            pos = 0
            for d in site.digits:  # the children of position pos sit at 2 pos + 1 and 2 pos + 2
                pos = 2 * pos + d
            labels[m + pos] = m + pos
            kept += [m + pos, pos]  # the factor's (column, row)
        x = np.einsum(t, labels, kept)
        for _, f in term.factors:
            f00, f01, f10, f11 = f.ravel().tolist()
            x = x.reshape(4, -1)
            x = f00 * x[0] + f01 * x[1] + f10 * x[2] + f11 * x[3]
        total += term.coeff * x.item() / 2**m
    return total


def _finite_trace(ctx: EvalContext, w: np.ndarray, ball: int, obs: Observable, n: int) -> complex:
    """_trace_weight(w, ball, obs), refused with a DomainError where it is not finite; n is the caller's depth.

    A finite weight and finite factors can still overflow in the trace; the
    oracles refuse that value, as eval_recursive does, and never warn.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond a float is refused below
        value = _trace_weight(w, ball, obs)
    if not cmath.isfinite(value):
        p = ctx.params
        raise DomainError(
            f"the oracle value {value} at n = {n} is not finite on the {ctx.solution.branch.value} branch at "
            f"j0={p.j0}, j={p.j}, beta={p.beta}: its trace of the weight against the observable overflows a float"
        )
    return value


def eval_bruteforce(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """Normalized trace of the (n+1)-ball's weight_matrix against the observable, site by site (_trace_weight).

    A value that is not finite is refused with a DomainError.
    """
    _check_support(obs, n)
    return _finite_trace(ctx, weight_matrix(ctx, n), n + 1, obs, n)


def eval_sparse(ctx: EvalContext, obs: Observable, n: int) -> complex:
    """The brute-force functional on the (n+1)-ball, traced against the reduced weight.

    The observable lives on the n-ball, so its value is the normalized trace
    against reduced_weight (cached per context and depth), taken site by site
    as eval_bruteforce takes it (_trace_weight).  Identical in value to
    eval_bruteforce where both are defined; reaches the 15-site volume
    (n = 2) that the level-1 compatibility check needs.  A value that is not
    finite is refused with a DomainError.
    """
    _check_support(obs, n)
    return _finite_trace(ctx, reduced_weight(ctx, n), n, obs, n)


_PAIRS = ((0, 0), (0, 3), (1, 2), (2, 1), (3, 0), (3, 3))  # M's charge-conserving child pairs (b, c), in einsum's order
# the block columns of each pair: child 1's (b, b') and child 2's (c, c') as the inputs bc and b'c'
_PAIR_COLUMNS = tuple((2 * (b >> 1) + (c >> 1), 2 * (b & 1) + (c & 1)) for b, c in _PAIRS)


@lru_cache(maxsize=256)
def _channel_table(p: ModelParams) -> tuple[tuple[complex, ...], ...]:
    """M's 24 entries, one row of six per output entry (channel_tensor), as Python complexes.

    M is A's alone, so it is built once per (frozen) parameter set, with the
    same bound as vertex_operator's memo, and every context of the point
    shares the one table.  Each entry sums its four products over the
    children's outputs onto 0j and divides by 4, in Python complex
    arithmetic, with the order and rounding of the einsum "pib,qic->pqbc"
    over A's blocks (the tests compare it with the six-index einsum bit for
    bit).  A refusal (an A that overflows) is not cached.
    """
    # A's two diagonal blocks A[p, ij, p, bc], as rows ij of the children's
    # outputs by columns bc of their inputs, and each block's conjugate
    v = vertex_operator(p).reshape(2, 4, 2, 4)
    blocks = v[0, :, 0, :].tolist(), v[1, :, 1, :].tolist()
    conj = [[[z.conjugate() for z in row] for row in block] for block in blocks]
    table = []
    for a, b in itertools.product(blocks, conj):  # the output entries (p, q) in row-major order
        table.append(tuple(
            (0j + a[0][x] * b[0][y] + a[1][x] * b[1][y] + a[2][x] * b[2][y] + a[3][x] * b[3][y]) / 4
            for x, y in _PAIR_COLUMNS
        ))
    return tuple(table)


def channel_tensor(ctx: EvalContext) -> tuple[tuple, ...]:
    """The one-vertex channel on the vertex's own spin sector, as the replay reads it.

    A = K K L is block-diagonal in its vertex's own sz: the Ising bonds are
    diagonal and the XY bond acts only between the children, so A's entries
    with output spin p != input spin a are exactly 0.  The channel
    Tr_children(A (root x b1 x b2) A*) / 4, as model_ops.vertex_channel
    normalizes it, therefore keeps the root's entry (p,q) where it is:

      M[(p,q),(b,b'),(c,c')] = 1/4 sum_ij A[p,i,j,p,b,c] conj(A[q,i,j,q,b',c'])

    is the output entry (p,q) per unit of that root entry, given the flattened
    2x2 inputs of child 1 and child 2.  M conserves sz charge,
    (b - b') + (c - c') = 0, so it is nonzero only at the six child pairs
    _PAIRS, where the table keeps it, one row per output entry.  The table
    depends on the parameters alone: it is built once per point
    (_channel_table) and every context of the point shares it.
    g[o] = sum_bc M[o,b,c] h[b] h[c] is the vertex whose subtrees the
    observable does not touch (its leaf vector).  The spine map, M with the
    identity on the root and h on child 2, maps the value of the one touched
    child to the value of a factor-free vertex; by charge conservation only
    its rows and columns 0 and 3 are nonzero, and S holds those four entries
    (s00, s03, s30, s33).  The tests check each of these zeros exactly.  A is
    exactly symmetric under exchanging the children, so S serves a touched
    child 2 as well.  h is diagonal, so g and S are sums over h's two
    diagonal entries h0 and h3, taken in Python complex arithmetic in the
    order and with the rounding of the einsums "obc,b,c->o" and
    "obc,o,c->ob" (the identity's entry multiplies in as they multiply it);
    each term they add beyond these is an exact 0.  Returns (M's table, g,
    S, h, omega0's diagonal), all Python complexes; built on first use and
    cached on the context.
    """
    if "channel" not in ctx._cache:
        m = _channel_table(ctx.params)
        (h0, _), (_, h3) = h = ctx.h.tolist()
        one = 1 + 0j
        r0, r3 = m[0], m[3]  # S's rows: the output entries 0 and 3, at the pairs (0|3, 0|3)
        ctx._cache["channel"] = (
            m,
            tuple(0j + r[0] * h0 * h0 + r[1] * h0 * h3 + r[4] * h3 * h0 + r[5] * h3 * h3 for r in m),
            tuple(0j + r[i] * one * h0 + r[i + 1] * one * h3 for r in (r0, r3) for i in (0, 4)),
            (*h[0], *h[1]),
            tuple(ctx.omega0.diagonal().tolist()),
        )
    return ctx._cache["channel"]


def eval_recursive(ctx: EvalContext, obs: Observable) -> complex:
    """Evaluate by contracting the tree from the support up toward the root.

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
_BARE = (_UNTOUCHED, 0)  # an untouched child slot: (subtree id, spine maps)
_BITS = bytes.maketrans(b"\x01\x02", b"01")  # a site's digits as the binary digits of its index


def _eval_term(ctx: EvalContext, term: ObservableTerm) -> complex:
    """One product term: its plan, built once per term, replayed on this context.

    The replay does only numeric work, in Python complex arithmetic, on a
    list of subtree values (four entries each): row 0 is h, the untouched
    subtree, and each op appends the next row.  A leaf is its factor times g,
    entry by entry; a chain top applies k spine maps to its bottom's two
    diagonal entries; an inner vertex sums, per output entry o, the six terms
    ((M[o,b,c] f[o]) l[b]) r[c] at _PAIRS onto 0j, in the order and with the
    rounding of the einsum "obc,no,nb,nc->no".  The last op, the root, is
    traced against the diagonal omega0.  Each kernel leaves out only terms
    that are exactly 0 (M's entries off _PAIRS or off the factor's entry, S's
    rows and columns 1 and 2, omega0's off-diagonal), and a term refuses a
    factor that is not finite, so no 0 * inf is left out either.  Every vertex
    kind has one kernel wherever it occurs, so a shared subtree carries the
    very value an unshared, vertex-by-vertex evaluation computes.
    """
    m, g, (s00, s03, s30, s33), h, (w0, w3) = channel_tensor(ctx)
    values = [h]
    for op in term._plan:
        if len(op) == 1:  # a leaf (factor,)
            values.append([f * x for f, x in zip(op[0], g)])
        elif len(op) == 2:  # a chain top (bottom id, k)
            u, _, _, v = values[op[0]]
            for _ in range(op[1]):
                u, v = s00 * u + s03 * v, s30 * u + s33 * v
            values.append((u, 0j, 0j, v))
        else:  # an inner vertex
            factor, left, right = op
            l0, l1, l2, l3 = values[left]
            r0, r1, r2, r3 = values[right]
            values.append([
                0j + w00 * f * l0 * r0 + w03 * f * l0 * r3 + w12 * f * l1 * r2
                + w21 * f * l2 * r1 + w30 * f * l3 * r0 + w33 * f * l3 * r3
                for (w00, w03, w12, w21, w30, w33), f in zip(m, factor)
            ])
    r0, _, _, r3 = values[-1]
    return (w0 * r0 + w3 * r3) / 2


def _compile(term: ObservableTerm) -> tuple[tuple, ...]:
    """The context-free plan of one term: which subtrees to contract, in which order.

    One pass over the sites in depth-first order (sorted by digits), each
    labelled v = 2^level + index, keeps a stack of the open branch points on
    the current path: the root, every site, and every vertex where two sites'
    paths part.  A site off the stack's path parts from the stack's top at
    level l - (a ^ b).bit_length(), with a and b the two labels brought to the
    shallower level l; the branch points below that are finished.  Every
    touched vertex that is not a branch point is a chain vertex (no factor and
    one touched child), so it is never visited: a finished branch point
    reaches its parent's child slot as (subtree id, k spine maps still to
    apply), k counting the levels in between.  A branch point with no factor,
    or exactly the identity's bytes, and one touched child joins the chain;
    any other is interned by (factor bytes, left id, right id), after each
    touched child's chain is interned as a chain top (bottom id, k).  Equal
    subtrees, such as those of a ball projector (one leaf and one inner op
    per level), are therefore contracted once.  The plan is the ops in
    dependency order, op i filling row i: a leaf (factor,), a chain top or an
    inner vertex (factor, left id, right id), a factor as its four entries.
    The root contains every other subtree, so it is interned last.
    """
    # One site, or none: its leaf, then one chain up to the root.  The pass
    # below builds the same plan; fresh one-site markers are frequent enough
    # (each solved point checks several) that skipping it pays.
    if len(term.factors) <= 1:
        site, mat = term.factors[0] if term.factors else (ROOT, PAULI["I"])
        leaf = (tuple(mat.ravel().tolist()),)
        return (leaf, (1, site.level)) if site.level else (leaf,)
    ids: dict[tuple, int] = {}  # interned subtree -> its row of the value table
    ops: list[tuple] = []

    def intern(key: tuple) -> int:
        """The id of a chain top (bottom id, k) or a vertex (factor bytes, left id, right id)."""
        if key not in ids:
            op = key if len(key) == 2 else (entries[key[0]], *key[1:])
            ops.append(op if any(op[1:]) else op[:1])  # a leaf (both children untouched) keeps its factor alone
            ids[key] = len(ops)
        return ids[key]

    def settle(v: int, k: int) -> int:
        """The id of subtree v under k spine maps: v itself, or its chain top."""
        return intern((v, k)) if k else v

    def finish() -> None:
        """Hand the stack's top branch point to its parent's child slot, interned or as a chain."""
        level, label, factor, kids = stack.pop()
        up = level - stack[-1][0] - 1  # the chain vertices between it and its parent
        side = label >> up & 1
        if factor == _EYE_BYTES and len(kids) == 1:  # a chain vertex itself
            ((v, k),) = kids.values()
            stack[-1][3][side] = v, k + 1 + up
        else:
            stack[-1][3][side] = intern((factor, settle(*kids.get(0, _BARE)), settle(*kids.get(1, _BARE)))), up

    distinct = {id(m): m for _, m in term.factors}  # a projector's sites share one stored factor
    raw = {i: m.tobytes() for i, m in distinct.items()}
    entries = {b: tuple(np.frombuffer(b, dtype=complex).tolist()) for b in {*raw.values(), _EYE_BYTES}}
    sites = sorted((bytes(s.digits).translate(_BITS), raw[id(m)]) for s, m in term.factors)
    # the open branch points as (level, label, factor bytes, child slots), under
    # an entry above the root whose one slot receives the root's value
    stack = [(-1, 0, None, {}), (0, 1, _EYE_BYTES, {})]
    if not sites[0][0]:  # a factor on the root
        stack[1] = (0, 1, sites.pop(0)[1], {})
    for path, factor in sites:
        level, label = len(path), int(b"1" + path, 2)
        top, top_label = stack[-1][:2]
        shallow = level if level < top else top
        part = shallow - ((label >> level - shallow) ^ (top_label >> top - shallow)).bit_length()
        while stack[-1][0] > part:
            if stack[-2][0] < part:  # the paths part between two branch points: a new one
                stack.insert(-1, (part, label >> level - part, _EYE_BYTES, {}))
            finish()
        stack.append((level, label, factor, {}))
    while len(stack) > 1:
        finish()
    ((v, k),) = stack[0][3].values()
    settle(v, k)  # the root: the last op
    return tuple(ops)


def random_product_observable(rng: np.random.Generator, sites: Iterable[TreeCoord]) -> Observable:
    """A product observable with O(1) random complex factors on the given sites."""
    factors = {}
    for site in sites:
        factors[site] = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
    return Observable.product(factors)


def compatibility_residual(ctx: EvalContext, n: int, trials: int, seed: int = 0) -> float:
    """Worst |phi^(n+1)(a) - phi^(n)(a)| over random product observables on the n-ball.

    One weight builder at two depths: the shallow side traces against
    weight_matrix(ctx, n) and the deep side, on the (n+2)-ball, against
    reduced_weight(ctx, n + 1), whose 15 sites at n = 1 are traced down to 7.
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
