"""The three workloads: set-up, seeded op streams and the checks on every result.

Op ``i`` of a run draws its inputs from its own generator (``rng_for``),
so a seed fixes every input.  Which kind of op comes at index ``i``, and its
size, follows a fixed cycle of ``cycle`` ops that is the same for every seed,
and a run is a fixed number of whole cycles (``worker.run_length``, from
``--seconds`` and the workload's ``nominal_rate``): the cost of a run then
depends on the program, not on how many heavy ops a seed happened to draw,
and the same seed always runs, and fails, the same ops.

Each op reports into a ``Checker``.  A result outside its tolerance, or an
exception that is not a package refusal, makes the op wrong; a package refusal
(``CayleyQmcError``) where the closed forms say an answer exists makes it
refused.  Both count as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

import numpy as np

from cayley_qmc import acceptance, analysis, boundary, cli, model_ops, qmc_state
from cayley_qmc.boundary import Branch, BoundarySolution
from cayley_qmc.errors import CayleyQmcError, DomainError
from cayley_qmc.model_ops import ModelParams
from cayley_qmc.qmc_state import EvalContext, Observable
from cayley_qmc.tree import TreeCoord

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
ROOT = TreeCoord(())
TOL = 1e-10  # the acceptance suite's tolerance for every evaluated value

# The acceptance suite's parameter points, restated so that the benchmark's
# inputs stay fixed if the suite's ever change.
ORDERED_POINT = (1.0, 0.5, 0.8)
GAP_POINTS = ((1.0, 0.0, 1.0), (1.0, 0.3, 1.2), (1.5, -0.5, 0.8))
XY_POINT = (0.0, 1.0, 0.7)
ORDERED = (Branch.ORDERED_PLUS, Branch.ORDERED_MINUS)

# Criterion 4's corrupted boundary; the checker's self-test swaps it in for the
# disordered context at ORDERED_POINT and expects the ops there to fail.
CORRUPTED = BoundarySolution(
    branch=Branch.DISORDERED, h=2 * np.eye(2, dtype=complex), omega0=0.5 * np.eye(2, dtype=complex),
    residual=float("nan"),
)


# --- the benchmark's own closed forms, independent of the package's -----------

def ref_coeffs(j0: float, j: float, beta: float) -> tuple[float, float, float]:
    """(C1, C2, C3) of the diagonal boundary recursion."""
    e4 = math.exp(4 * j0 * beta)
    f = math.exp(2 * j0 * beta) * math.cosh(2 * j * beta)
    return (e4 + 1) / 4 + f / 2, (e4 + 1) / 4 - f / 2, (e4 - 1) / 2


def ref_delta(j0: float, j: float, beta: float) -> float:
    """Delta(theta) = (D - 4) / D with D = (e^{2 J0 b} - e^{2 J b})(e^{2 J0 b} - e^{-2 J b})."""
    den = math.exp(4 * j0 * beta) - 2 * math.exp(2 * j0 * beta) * math.cosh(2 * j * beta) + 1
    return (den - 4) / den


def ref_classification(j0: float, j: float, beta: float) -> str:
    """Criterion 11's rule: |J| > J0 is always ordered, otherwise J0 against the threshold."""
    if j * j > j0 * j0:
        return "PhaseTransition"
    c = math.cosh(2 * j * beta)
    threshold = math.log(c + math.sqrt(c * c + 3)) / (2 * beta)
    return "PhaseTransition" if j0 > threshold else "Unique"


def ref_lambda(j0: float, j: float, beta: float) -> float:
    c1, _, c3 = ref_coeffs(j0, j, beta)
    return abs(c1 / c3 - 0.5)


# --- checks ------------------------------------------------------------------

class Checker:
    """Problems of the current op, and the worst tolerance margin of the run."""

    MARGIN_CAP = 16.0  # an error below tol * 1e-16 counts as a margin of 16

    def __init__(self) -> None:
        self.worst_margin = math.inf
        self.wrong: list[str] = []
        self.refused: list[str] = []

    def start_op(self) -> None:
        self.wrong, self.refused = [], []

    def close(self, what: str, err: float, tol: float) -> None:
        """``err`` is already scaled to the quantity ``tol`` bounds."""
        if math.isfinite(err):
            self.worst_margin = min(self.worst_margin, math.log10(tol / max(err, tol * 10 ** -self.MARGIN_CAP)))
        if not err <= tol:
            self.wrong.append(f"{what}: error {err:.3e} > tol {tol:g}")

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.wrong.append(what)

    def refusal(self, what: str, exc: Exception) -> None:
        self.refused.append(f"{what}: {type(exc).__name__}: {exc}")


def active_vertices(obs: Observable) -> int:
    """Vertices the recursive route contracts: the ancestor closure of each term's support."""
    return sum(
        len({s.digits[:k] for s, _ in term.factors for k in range(s.level + 1)} | {()}) for term in obs.terms
    )


def recursive(tr, ctx: EvalContext, obs: Observable, family: str) -> complex:
    """eval_recursive; a traced call carries its active-vertex count and its sharing family."""
    meta = {"vertices": active_vertices(obs), "family": family} if tr.enabled else None
    return tr.call("qmc_state.eval_recursive", qmc_state.eval_recursive, ctx, obs, meta=meta)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one input stream: 0 for ops (then the op index), 1 for set-up, 2 for the probe."""
    return np.random.default_rng([seed % 2**64, *stream])


def random_factors(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) / 2


def random_sites(rng: np.random.Generator, n: int, max_depth: int) -> list[tuple[int, ...]]:
    sites: set[tuple[int, ...]] = set()
    while len(sites) < n:
        depth = int(rng.integers(0, max_depth + 1))
        sites.add(tuple(int(d) for d in rng.integers(1, 3, size=depth)))
    return sorted(sites, key=lambda d: (len(d), d))


def ball_projector(n: int, which: str) -> Observable:
    """e11 (P) or e22 (Q) at every site of the n-ball."""
    mat = E11 if which == "P" else E22
    return Observable.product({TreeCoord(d): mat for m in range(n + 1) for d in itertools.product((1, 2), repeat=m)})


class Ctx:
    """One evaluation context with the labels and references its ops need."""

    def __init__(self, point: tuple[float, float, float], branch: Branch, ctx: EvalContext) -> None:
        self.point, self.branch, self.ctx = point, branch, ctx
        self.params = ctx.params
        self.label = f"{point[0]:g},{point[1]:g},{point[2]:g}/{branch.value}"


def build_contexts(tr, points, branches, corrupt: bool) -> list[Ctx]:
    out = []
    for point in points:
        params = ModelParams(*point)
        for branch in branches:
            if corrupt and point == ORDERED_POINT and branch is Branch.DISORDERED:
                out.append(Ctx(point, branch, EvalContext(params=params, solution=CORRUPTED)))
                out[-1].label += "/corrupted"
                continue
            out.append(Ctx(point, branch, tr.call("qmc_state.ctx_create", EvalContext.create, params, branch)))
    return out


def marker_reference(tr, c: Ctx, n: int) -> float:
    """The closed marker value on an ordered branch; exactly 1/2 on a spin-flip-symmetric one."""
    if c.branch in ORDERED:
        return tr.call("analysis.closed_form", analysis.marker_expectation_closed, c.params, n, c.branch)
    return 0.5


# --- deep-eval -----------------------------------------------------------------

class DeepEval:
    """Recursive contraction at depth; the oracle never runs and boundary only in set-up.

    Ops rotate over four families.  Projectors share one factor across each
    whole level and random products share nothing, so a subtree memo would be
    exercised by the first and bypassed by the second.  At the seed, projectors
    take about half the time and random products about a third; the 9-ball
    projectors are the top 1.8% of ops, so p99 is theirs.
    """

    name = "deep-eval"
    rescaled = True  # by the host-speed kernel (hostspeed.py)
    count_ops = 1000  # p99 needs 1000 ops to have 10 beyond it
    tail_percentile = 99
    nominal_rate = 90.0  # ops/s as timed on the 2-core reference host, so a run lasts about --seconds there
    ROTATION = ("projector", "marker", "random", "marker", "correlation", "random", "marker", "random")
    PROJECTOR_SIZES = (3, 9, 5, 7, 4, 8, 6)
    MARKER_DEPTHS = tuple(range(1, 25))
    CORRELATION_STARTS = tuple(range(3, 22))  # four rows each, so the deepest row is level 24
    CORRELATION_ROWS = 4
    RESOLVED = 1e-11  # a correlation deviation below this is rounding, not decay
    RANDOM_FACTORS = (2, 5, 3, 8, 4, 7, 6)
    RANDOM_MAX_DEPTH = 16
    LIMIT_DEPTH = 24
    cycle = len(ROTATION) * len(PROJECTOR_SIZES)  # the heavy projectors repeat every 56 ops

    def __init__(self, seed: int, tr, corrupt: bool = False) -> None:
        self.seed = seed
        self.contexts = build_contexts(
            tr, (ORDERED_POINT, *GAP_POINTS), (*ORDERED, Branch.DISORDERED), corrupt
        )
        self.ordered = [c for c in self.contexts if c.branch in ORDERED]
        self.a = Observable.single(ROOT, E11)
        far = Observable.single(TreeCoord((1,) * self.LIMIT_DEPTH), E11)
        for c in self.ordered:
            c.phi_a = recursive(tr, c.ctx, self.a, "shared")
            c.phi_f = recursive(tr, c.ctx, far, "shared")
            c.lam = ref_lambda(*c.point)
        self.projectors = {(n, w): ball_projector(n, w) for n in self.PROJECTOR_SIZES for w in "PQ"}

    def op(self, i: int, tr, ck: Checker, meta: dict) -> None:
        rng = rng_for(self.seed, 0, i)
        family = self.ROTATION[i % len(self.ROTATION)]
        # k counts this family's earlier ops and walks its size cycle.
        k = (i // len(self.ROTATION)) * self.ROTATION.count(family) + self.ROTATION[: i % len(self.ROTATION)].count(family)
        getattr(self, "_" + family)(k, rng, tr, ck, meta)

    def _projector(self, k, rng, tr, ck, meta):
        # Size, P or Q, and context all follow the cycle: a 9-ball projector
        # takes 110 ms to 147 ms by context and P or Q, so a seed's draws would
        # move p99.  Each size alternates P and Q and walks the contexts.
        sizes = len(self.PROJECTOR_SIZES)
        n = self.PROJECTOR_SIZES[k % sizes]
        which = "PQ"[k // sizes % 2]
        c = self.ordered[k % len(self.ordered)]
        meta.update(kind=f"projector-{n}", ctx=c.label)
        value = recursive(tr, c.ctx, self.projectors[n, which], "shared")
        ref = tr.call("analysis.closed_form", analysis.projector_expectation_closed, c.params, n, c.branch, which)
        ck.close(f"{which}_{n} vs closed form (relative)", abs(value - ref) / max(abs(ref), 1e-290), TOL)

    def _marker(self, k, rng, tr, ck, meta):
        n = self.MARKER_DEPTHS[k % len(self.MARKER_DEPTHS)]
        c = self.contexts[int(rng.integers(len(self.contexts)))]
        site = TreeCoord(tuple(int(d) for d in rng.integers(1, 3, size=n)))
        meta.update(kind=f"marker-{n}", ctx=c.label)
        value = recursive(tr, c.ctx, Observable.single(site, E11), "shared")
        ck.close(f"marker at level {n}", abs(value - marker_reference(tr, c, n)), TOL)

    def _correlation(self, k, rng, tr, ck, meta):
        start = self.CORRELATION_STARTS[k % len(self.CORRELATION_STARTS)]
        c = self.ordered[int(rng.integers(len(self.ordered)))]
        meta.update(kind=f"correlation-{start}", ctx=c.label)
        product = c.phi_a * c.phi_f
        devs = [
            abs(tr.call("analysis.correlation", analysis.correlation, c.ctx, self.a, self.a, TreeCoord((1,) * level)) - product)
            for level in range(start, start + self.CORRELATION_ROWS)
        ]
        # Criterion 10's rule on the rows above rounding: they decay at |lambda|
        # within 10%; once a row drops to rounding, deeper rows stay there.
        resolved = list(itertools.takewhile(lambda d: d > self.RESOLVED, devs))
        if len(resolved) >= 2:
            fitted = (resolved[-1] / resolved[0]) ** (1 / (len(resolved) - 1))
            ck.close(f"decay ratio from level {start}", abs(fitted - c.lam) / c.lam, 0.10)
        ck.expect(
            f"correlation rows from level {start} rise again after decaying to rounding: {devs}",
            all(d <= self.RESOLVED for d in devs[len(resolved):]),
        )

    def _random(self, k, rng, tr, ck, meta):
        n = self.RANDOM_FACTORS[k % len(self.RANDOM_FACTORS)]
        c = self.contexts[int(rng.integers(len(self.contexts)))]
        sites = random_sites(rng, n, self.RANDOM_MAX_DEPTH)
        mats = random_factors(rng, n)
        meta.update(kind=f"random-{n}", ctx=c.label)
        obs = Observable.product({TreeCoord(d): m for d, m in zip(sites, mats)})
        mirror = Observable.product({TreeCoord(tuple(3 - x for x in d)): m for d, m in zip(sites, mats)})
        # The vertex operator is symmetric under exchanging its two children,
        # so every state is invariant under the digit swap 1 <-> 2.
        value = recursive(tr, c.ctx, obs, "unshared")
        mirrored = recursive(tr, c.ctx, mirror, "unshared")
        ck.close(f"{n}-factor product vs its mirror", abs(value - mirrored) / max(1.0, abs(value)), TOL)


# --- oracle-crosscheck ---------------------------------------------------------

class OracleCrosscheck:
    """Criteria 4/5 traffic: random products on the 7-site ball against the brute-force oracle."""

    name = "oracle-crosscheck"
    rescaled = False  # the oracle does not follow the host-speed kernel (hostspeed.py)
    count_ops = 40  # p75 needs 40 ops to have 10 beyond it
    tail_percentile = 75
    nominal_rate = 3.5
    # Factor counts per op.  The sparse route's cost doubles with each factor,
    # so latencies fall into one mode per count.  The cycle leans on small
    # counts, and puts p50 inside the 2-factor mode (ranks 25% to 58% of the
    # cycle) and p75 inside the 4-factor mode (67% to 88%), 8 points from the
    # nearest edge, so neither sits on a gap between modes.
    FACTOR_CYCLE = (1, 4, 2, 2, 1, 5, 2, 4, 1, 2, 3, 4, 1, 2, 6, 2, 4, 1, 2, 3, 1, 4, 2, 7)
    cycle = len(FACTOR_CYCLE)
    BALL1 = ((), (1,), (2,))
    BALL2 = BALL1 + ((1, 1), (1, 2), (2, 1), (2, 2))

    def __init__(self, seed: int, tr, corrupt: bool = False) -> None:
        self.seed = seed
        self.contexts = build_contexts(
            tr, (ORDERED_POINT,), (Branch.DISORDERED, *ORDERED), corrupt
        ) + build_contexts(tr, (XY_POINT,), (Branch.XY_ONLY,), corrupt)
        # The support of each cycle position is part of the cycle too, drawn
        # once from a generator no seed changes.  A support sets most of an
        # op's cost: 4 factors take about 250 ms on the four leaves and 350 ms
        # with the root.  Half the supports of up to three factors sit inside
        # the 3-site ball, where the dense routes and the compatibility pair
        # apply too.
        shapes = np.random.default_rng(0)
        self.supports = []
        for n in self.FACTOR_CYCLE:
            pool = self.BALL1 if n <= 3 and shapes.random() < 0.5 else self.BALL2
            self.supports.append([pool[j] for j in sorted(shapes.choice(len(pool), size=n, replace=False))])
        rng = rng_for(seed, 1)
        for c in self.contexts:
            # One call per volume fills the dense weight and sparse K caches.
            for n in (0, 1):
                tr.call("qmc_state.weight_matrix", qmc_state.weight_matrix, c.ctx, n)
            qmc_state.eval_bruteforce(c.ctx, self._product([()], rng), 0)
            qmc_state.eval_bruteforce(c.ctx, self._product(self.BALL1, rng), 1)
            tr.call("qmc_state.sparse_first", qmc_state.eval_sparse, c.ctx, self._product([()], rng), 2)

    @staticmethod
    def _product(sites, rng) -> Observable:
        return Observable.product({TreeCoord(d): m for d, m in zip(sites, random_factors(rng, len(sites)))})

    def op(self, i: int, tr, ck: Checker, meta: dict) -> None:
        rng = rng_for(self.seed, 0, i)
        sites = self.supports[i % self.cycle]
        n = len(sites)
        c = self.contexts[int(rng.integers(len(self.contexts)))]
        obs = self._product(sites, rng)
        meta.update(kind=f"factors-{n}", ctx=c.label)
        value = recursive(tr, c.ctx, obs, "unshared")
        sparse = tr.call("qmc_state.eval_sparse", qmc_state.eval_sparse, c.ctx, obs, 2)
        ck.close(f"{n}-factor recursive vs sparse 15-site", abs(value - sparse), TOL)
        if all(len(d) <= 1 for d in sites):
            dense7 = tr.call("qmc_state.eval_bruteforce", qmc_state.eval_bruteforce, c.ctx, obs, 1)
            ck.close(f"{n}-factor recursive vs dense 7-site", abs(value - dense7), TOL)
            ck.close(f"{n}-factor compatibility phi(2) vs phi(1)", abs(sparse - dense7), TOL)
            if sites == [()]:
                dense3 = tr.call("qmc_state.eval_bruteforce", qmc_state.eval_bruteforce, c.ctx, obs, 0)
                ck.close("root factor recursive vs dense 3-site", abs(value - dense3), TOL)


# --- param-sweep ---------------------------------------------------------------

class ParamSweep:
    """A fresh (J0, J, beta) point per op: CLI, boundary, context build, phase scan."""

    name = "param-sweep"
    rescaled = True
    count_ops = 400  # p95 needs 200; 400 hold 20 low-temperature ops
    tail_percentile = 95
    nominal_rate = 52.0
    # Two scans per 20 ops; one exact J = +-J0 point, one pure-XY point, one
    # |J| > J0 point and one low-temperature point; the other 14 inside
    # |J| < J0 with J0 * beta <= 3, below where the seed's square root starts
    # refusing.  Of those, 11 are drawn in the ordered region (three branches
    # to build) and 3 in the unique one (one branch), so the median op is an
    # ordered point for every seed.  Scans are the slowest 10% of ops, so p95
    # is the median scan.
    CYCLE = (
        "scan", "ordered", "unique", "edge", "ordered", "ordered", "xy", "ordered", "ordered", "outer",
        "scan", "ordered", "low-t", "ordered", "unique", "ordered", "ordered", "unique", "ordered", "ordered",
    )
    cycle = len(CYCLE)
    SCAN = (-2.4, 2.4, 0.03, 2.43)
    SCAN_RESOLUTION = 50
    DELTA_GUARD = 1e-9  # closer to the region boundary than this, either class is accepted

    contexts: list[Ctx] = []

    def __init__(self, seed: int, tr, corrupt: bool = False) -> None:
        self.seed = seed

    def op(self, i: int, tr, ck: Checker, meta: dict) -> None:
        rng = rng_for(self.seed, 0, i)
        kind = self.CYCLE[i % len(self.CYCLE)]
        meta["kind"] = kind
        if kind == "scan":
            self._scan(float(rng.uniform(0.2, 2.0)), tr, ck, meta)
            return
        sign = 1.0 if rng.random() < 0.5 else -1.0
        beta = float(rng.uniform(0.2, 1.5))
        if kind in ("ordered", "unique"):
            while True:
                j0 = float(rng.uniform(0.1, 2.0))
                j = j0 * float(rng.uniform(-0.95, 0.95))
                beta = float(rng.uniform(0.2, 1.5))
                delta = ref_delta(j0, j, beta)
                if abs(delta) > 1e-6 and (delta > 0) == (kind == "ordered"):
                    break
        elif kind == "edge":
            j0 = float(rng.uniform(0.2, 2.0))
            j = sign * j0
        elif kind == "xy":
            j0, j = 0.0, sign * float(rng.uniform(0.1, 2.0))
        elif kind == "outer":
            j0 = float(rng.uniform(0.2, 1.5))
            j = sign * j0 * float(rng.uniform(1.2, 2.0))
        else:  # low-t: the seed's psd_sqrt starts refusing from about J0 * beta = 4
            j0 = float(rng.uniform(0.5, 2.0))
            j = j0 * float(rng.uniform(-0.9, 0.9))
            beta = float(rng.uniform(2.0, 10.0))
        meta["ctx"] = f"{j0:.6g},{j:.6g},{beta:.6g}"
        self._point(kind, j0, j, beta, tr, ck)

    def _scan(self, beta, tr, ck, meta):
        meta["ctx"] = f"scan beta={beta:.6g}"
        rows = tr.call(
            "analysis.phase_scan", analysis.phase_diagram_scan, *self.SCAN, beta, self.SCAN_RESOLUTION,
            meta={"points": self.SCAN_RESOLUTION**2} if tr.enabled else None,
        )
        ck.expect(f"scan returned {len(rows)} rows", len(rows) == self.SCAN_RESOLUTION**2)
        bad = sum(
            r.classification != ref_classification(r.j0, r.j, beta)
            for r in rows
            if r.classification != "Singular" and abs(r.delta) > self.DELTA_GUARD
        )
        ck.expect(f"scan at beta={beta}: {bad} rows disagree with the threshold rule", bad == 0)

    def _point(self, kind, j0, j, beta, tr, ck):
        out, err = io.StringIO(), io.StringIO()
        argv = ["solve", "--j0", repr(j0), "--j", repr(j), "--beta", repr(beta)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli.main", cli.main, argv)
        p = ModelParams(j0, j, beta)
        refused = []
        for name, fn in (("boundary.phase_region", boundary.phase_region), ("boundary.solve", boundary.solve_ordered)):
            try:
                tr.call(name, fn, p)
            except DomainError as exc:
                refused.append((name, exc))
        vertex = tr.call("model_ops.vertex_operator", model_ops.vertex_operator, p)
        closed = tr.call("model_ops.vertex_operator_closed", model_ops.vertex_operator_closed, p)
        ck.close("vertex operator vs six-term form", float(np.max(np.abs(vertex - closed)) / np.max(np.abs(closed))), 1e-12)
        try:
            numeric = tr.call("model_ops.transfer_numeric", model_ops.transfer_coeffs_numeric, p)
        except CayleyQmcError as exc:
            ck.refusal("transfer_coeffs_numeric", exc)
        else:
            ref = ref_coeffs(j0, j, beta)
            got = (numeric.c1, numeric.c2, numeric.c3)
            ck.close("C1..C3 vs closed form", max(abs(a - b) for a, b in zip(got, ref)) / max(1.0, sum(map(abs, ref))), 1e-12)

        if kind == "edge":
            ck.expect(f"J = +-J0 exits {code}, not 2", code == cli.DOMAIN_EXIT)
            ck.expect("phase_region accepts J = +-J0", any(n == "boundary.phase_region" for n, _ in refused))
            return
        ck.expect(f"solve exits {code}: {err.getvalue().strip()}", code == 0)
        if code != 0:
            return
        doc = json.loads(out.getvalue())
        branches = [Branch(b["branch"]) for b in doc["branches"]]
        if j0 == 0:
            ck.expect(f"pure-XY point reports {branches}", branches == [Branch.XY_ONLY])
            ck.expect("pure-XY point classified " + doc["classification"], doc["classification"] == "Unique")
        else:
            delta = ref_delta(j0, j, beta)
            ck.close("Delta vs closed form", abs(doc["delta"] - delta) / max(1.0, abs(delta)), 1e-9)
            if abs(delta) > self.DELTA_GUARD:
                expected = ref_classification(j0, j, beta)
                ck.expect(f"classified {doc['classification']}, rule says {expected}", doc["classification"] == expected)
                # Ordered branches exist iff 0 < Delta and |J| < J0; for |J| > J0
                # the formal pair is indefinite and the CLI says so in a note.
                ordered = delta > 0 and j * j < j0 * j0
                ck.expect(f"ordered branches {branches} at Delta={delta:.3e}", (Branch.ORDERED_PLUS in branches) == ordered)
                ck.expect("missing ordered_note for |J| > J0", (j * j > j0 * j0) == ("ordered_note" in doc))
        if kind != "xy":
            ck.expect(f"unexpected boundary refusal {refused}", all(n == "boundary.solve" for n, _ in refused))
        for branch in branches:
            try:
                ctx = tr.call("qmc_state.ctx_create", EvalContext.create, p, branch)
            except CayleyQmcError as exc:
                ck.refusal(f"EvalContext.create({branch.value})", exc)
                continue
            c = Ctx((j0, j, beta), branch, ctx)
            for n in (1, 2):
                value = recursive(tr, ctx, Observable.single(TreeCoord((1,) * n), E11), "shared")
                ck.close(f"{branch.value} marker at level {n}", abs(value - marker_reference(tr, c, n)), TOL)


WORKLOADS = {w.name: w for w in (DeepEval, OracleCrosscheck, ParamSweep)}


# --- probe: per-layer figures a workload's own ops do not produce -------------

def probe(tr, seed: int) -> None:
    """A short fixed set of direct calls into every layer, run after the timed phases.

    Per-layer metrics come from the workload's own ops where it makes those
    calls; the probe's spans fill in the rest, so every traced run reports
    every metric.
    """
    rng = rng_for(seed, 2)
    p = ModelParams(*ORDERED_POINT)
    sweep = ParamSweep(seed, tr)
    for _ in range(5):
        sweep._point("ordered", p.j0, p.j, p.beta, tr, Checker())
    ctx = tr.call("qmc_state.ctx_create", EvalContext.create, p, Branch.ORDERED_PLUS)
    for n in (6, 7):
        recursive(tr, ctx, ball_projector(n, "P"), "shared")
    for _ in range(5):
        recursive(tr, ctx, Observable.product(
            {TreeCoord(d): m for d, m in zip(random_sites(rng, 6, 16), random_factors(rng, 6))}), "unshared")
        tr.call("analysis.correlation", analysis.correlation, ctx, Observable.single(ROOT, E11),
                Observable.single(ROOT, E11), TreeCoord((1,) * 12))
    tr.call("analysis.phase_scan", analysis.phase_diagram_scan, *ParamSweep.SCAN, 1.0, ParamSweep.SCAN_RESOLUTION,
            meta={"points": ParamSweep.SCAN_RESOLUTION**2})
    for _ in range(2):
        fresh = EvalContext.create(p, Branch.ORDERED_PLUS)
        obs = OracleCrosscheck._product([()], rng)
        for n in (0, 1):
            tr.call("qmc_state.weight_matrix", qmc_state.weight_matrix, fresh, n)
        tr.call("qmc_state.sparse_first", qmc_state.eval_sparse, fresh, obs, 2)
    for _ in range(3):
        obs = OracleCrosscheck._product(OracleCrosscheck.BALL1, rng)
        tr.call("qmc_state.eval_bruteforce", qmc_state.eval_bruteforce, fresh, obs, 1)
        tr.call("qmc_state.eval_sparse", qmc_state.eval_sparse, fresh, obs, 2)


def vertex_channel_batch(tr, contexts: list[Ctx], calls: int = 200) -> None:
    """A fixed batch of one-vertex channels on each context's (1, h, h)."""
    for c in contexts:
        ctx = c.ctx
        tr.call(
            "model_ops.vertex_channel",
            lambda: [model_ops.vertex_channel(ctx.vertex, I2, ctx.h, ctx.h) for _ in range(calls)],
            meta={"calls": calls},
        )


def time_acceptance(tr) -> list:
    """One acceptance.run_all(), with a span around each criterion it runs."""
    original = acceptance.CRITERIA

    def timed(number, fn):
        def wrapper():
            return tr.call(f"acceptance.criterion_{number:02d}", fn)
        wrapper.__name__, wrapper.__doc__ = fn.__name__, fn.__doc__
        return wrapper

    acceptance.CRITERIA = tuple(timed(k + 1, fn) for k, fn in enumerate(original))
    try:
        return tr.call("acceptance.run_all", acceptance.run_all)
    finally:
        acceptance.CRITERIA = original
