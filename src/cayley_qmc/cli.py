"""Command-line interface.

Every run is a pure function of its flags; numeric output is rendered with 17
significant digits so repeated invocations are byte-identical.  Exit codes:
0 success, 2 domain error (singular or invalid parameters), 3 resource-guard
refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from . import acceptance, analysis
from .boundary import (
    Branch,
    BoundarySolution,
    SingularParameterError,
    SolutionNotPositiveError,
    delta_theta,
    phase_region,
    solve_branch,
    solve_ordered,
    xy_alpha_report,
)
from .errors import DomainError, ResourceLimitError
from .model_ops import ModelParams, operator_coeffs, transfer_coeffs, xy_only_coeffs
from .qmc_state import EvalContext, Observable, eval_recursive
from .tree import ROOT

USAGE_EXIT = 64
DOMAIN_EXIT = 2
RESOURCE_EXIT = 3


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (non-finite floats become null)."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(k)}: {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, complex):
        return render_json([obj.real, obj.imag], indent)
    return json.dumps(obj)


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes only plain decimals such as -0.3 for negative values;
        # -1e-05 or -inf would otherwise read as an unknown option.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str) -> None:  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--j0", type=float, required=True, help="Ising coupling")
    sub.add_argument("--j", type=float, required=True, help="XY coupling")
    sub.add_argument("--beta", type=float, required=True, help="inverse temperature (> 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building the seven subparsers costs more than most commands; parsing does
    not change the parser (each call gets a new namespace, and usage errors
    write to the sys.stderr of the moment), so main reuses one.
    """
    parser = _Parser(prog="cayley-qmc", description="Boundary fixed points and state evaluation on the order-2 tree")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("coeffs", help="bond / vertex / transfer coefficients as JSON")
    _add_params(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve the boundary equations and classify the region")
    _add_params(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evaluate", help="evaluate an observable file on a solved branch")
    _add_params(p)
    p.add_argument("--observable", required=True, help="observable JSON path")
    p.add_argument("--branch", required=True, choices=[b.value for b in Branch])
    p.add_argument("--out", default=None)

    p = sub.add_parser("phase-diagram", help="Delta sign over a (J, J0) grid")
    p.add_argument("--j-min", type=float, required=True)
    p.add_argument("--j-max", type=float, required=True)
    p.add_argument("--j0-min", type=float, required=True)
    p.add_argument("--j0-max", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("projector", help="aligned projector expectation along a beta grid")
    p.add_argument("--j0", type=float, required=True)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="ball depth of the projector")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("cluster", help="correlation decay toward the product value")
    _add_params(p)
    p.add_argument("--branch", choices=[Branch.ORDERED_PLUS.value, Branch.ORDERED_MINUS.value], default="plus")
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    p.add_argument("--out", default=None)
    return parser


def _branch_doc(sol: BoundarySolution) -> dict:
    return {
        "branch": sol.branch.value,
        "h": [float(sol.h[0, 0].real), float(sol.h[1, 1].real)],
        "omega0": [float(sol.omega0[0, 0].real), float(sol.omega0[1, 1].real)],
        "xi0": sol.xi0,
        "xi3": sol.xi3,
        "alpha": sol.alpha,
        "residual": sol.residual,
    }


def _cmd_coeffs(args) -> str:
    params = ModelParams(args.j0, args.j, args.beta)
    c = operator_coeffs(params)
    t = transfer_coeffs(params)
    doc = {
        "j0": args.j0,
        "j": args.j,
        "beta": args.beta,
        "k0": c.k0,
        "k3": c.k3,
        "gamma1": c.gamma1,
        "gamma2": c.gamma2,
        "gamma3": c.gamma3,
        "delta1": c.delta1,
        "c1": t.c1,
        "c2": t.c2,
        "c3": t.c3,
    }
    if args.j0 == 0:
        r = xy_only_coeffs(params)
        doc.update({"r1": r.r1, "r2": r.r2, "r3": r.r3})
    return render_json(doc) + "\n"


def _cmd_solve(args) -> str:
    params = ModelParams(args.j0, args.j, args.beta)
    if params.j0 == 0:
        # Delta > 0 does not signal a transition here: with no Ising part the
        # only translation-invariant diagonal solution is the uniform one.
        try:
            delta = delta_theta(params)
        except SingularParameterError:
            delta = None
        sol = solve_branch(params, Branch.XY_ONLY)
        rep = xy_alpha_report(params)
        return render_json(
            {
                "delta": delta,
                "classification": "Unique",
                "branches": [_branch_doc(sol)],
                "alpha_check": {
                    "oracle_inverse_alpha": rep.oracle_inverse_alpha,
                    "displayed_inverse_alpha": rep.displayed_inverse_alpha,
                    "abs_gap": rep.abs_gap,
                    "matches": rep.matches,
                },
            }
        ) + "\n"
    region = phase_region(params)
    branches = [_branch_doc(solve_branch(params, Branch.DISORDERED))]
    note = None
    try:
        pair = solve_ordered(params)
    except SolutionNotPositiveError as exc:
        pair, note = None, str(exc)
    if pair is not None:
        branches.extend(_branch_doc(s) for s in pair)
    doc = {"delta": region.delta, "classification": region.classification.value, "branches": branches}
    if note is not None:
        doc["ordered_note"] = note
    return render_json(doc) + "\n"


def _cmd_evaluate(args) -> str:
    params = ModelParams(args.j0, args.j, args.beta)
    with open(args.observable, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"observable file {args.observable} is not JSON: {exc}") from None
    obs = Observable.from_json_dict(doc)
    ctx = EvalContext.create(params, Branch(args.branch))
    value = eval_recursive(ctx, obs)
    return render_json(
        {"j0": args.j0, "j": args.j, "beta": args.beta, "branch": args.branch, "value": value}
    ) + "\n"


def _cmd_phase_diagram(args) -> str:
    rows = analysis.phase_diagram_scan(
        args.j_min, args.j_max, args.j0_min, args.j0_max, args.beta, args.resolution
    )
    if args.format == "json":
        return render_json(
            {
                "beta": args.beta,
                "rows": [
                    {
                        "j": r.j,
                        "j0": r.j0,
                        "delta": r.delta,
                        "classification": r.classification,
                        "threshold": r.threshold,
                    }
                    for r in rows
                ],
            }
        ) + "\n"
    return render_csv(
        ["j", "j0", "delta", "classification", "threshold"],
        [(r.j, r.j0, r.delta, r.classification, r.threshold) for r in rows],
    )


def _cmd_projector(args) -> str:
    if args.steps < 1:
        raise DomainError(f"steps must be >= 1, got {args.steps}")
    if args.steps > analysis.MAX_SCAN_POINTS:
        raise ResourceLimitError(f"{args.steps} steps exceed the {analysis.MAX_SCAN_POINTS}-point guard")
    betas = [float(b) for b in np.linspace(args.beta_min, args.beta_max, args.steps)]
    rows = analysis.projector_limit_scan(args.j0, args.j, args.n, betas)
    if args.format == "json":
        return render_json({"j0": args.j0, "j": args.j, "n": args.n, "rows": rows}) + "\n"
    return render_csv(
        ["beta", "phi1_pn", "phi1_qn", "dev_from_one"],
        [(r["beta"], r["phi1_pn"], r["phi1_qn"], r["dev_from_one"]) for r in rows],
    )


def _cmd_cluster(args) -> str:
    if args.max_level < 4:
        raise DomainError(f"--max-level must be >= 4 to fit a ratio, got {args.max_level}")
    params = ModelParams(args.j0, args.j, args.beta)
    branch = Branch(args.branch)
    ctx = EvalContext.create(params, branch)
    obs = Observable.single(ROOT, analysis.E11)
    rows = analysis.clustering_deviations(ctx, obs, obs, list(range(3, args.max_level + 1)))
    fitted = analysis.fitted_decay_ratio(rows)
    lam_abs = abs(analysis.lam(params))
    if args.format == "json":
        rep = analysis.clustering_limit_report(ctx, analysis.E11)
        return render_json(
            {
                "branch": args.branch,
                "lambda_abs": lam_abs,
                "fitted_ratio": fitted,
                "limit_check": {
                    "numeric": rep.numeric,
                    "structural": rep.structural,
                    "displayed": rep.displayed,
                    "structural_dev": rep.structural_dev,
                    "displayed_dev": rep.displayed_dev,
                },
                "rows": rows,
            }
        ) + "\n"
    return render_csv(
        ["level", "deviation", "ratio"],
        [(r["level"], r["deviation"], r["ratio"]) for r in rows],
    )


def _cmd_verify(args) -> tuple[str, int]:
    results = acceptance.run_all()
    width = max(len(r.name) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)} criteria")
    return "\n".join(lines) + "\n", 0 if passed == len(results) else 1


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "phase-diagram": _cmd_phase_diagram,
    "projector": _cmd_projector,
    "cluster": _cmd_cluster,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "verify":
            text, status = _cmd_verify(args)
        else:
            text, status = _COMMANDS[args.command](args), 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except FileNotFoundError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except OverflowError as exc:
        print(f"domain error: couplings times beta overflow a float ({exc})", file=sys.stderr)
        return DOMAIN_EXIT
    _emit(text, args.out)
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
