"""Command-line interface.

Every run is a pure function of its flags; numeric output is rendered with 17
significant digits so repeated invocations are byte-identical.  Exit codes:
0 success, 2 domain error (singular or invalid parameters, such as finite
j0, j and beta whose product 4*j0*beta or 2*j*beta overflows a float),
3 resource-guard refusal, 64 usage error.  Every subcommand returns one
document, which main writes to stdout or --out.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

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
MAX_CLUSTER_LEVEL = 1000  # cluster --max-level beyond this is refused: its cost grows with the square of the level


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_float(x) -> str:
    return fmt(x) if math.isfinite(x) else "null"


# The exact types of most nodes, rendered without the isinstance chain of _render
_LEAVES = {
    float: _json_float,
    str: encode_basestring_ascii,  # what json.dumps returns for a str
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (non-finite floats become null), two spaces per level.

    One pass over the document: every node appends its text to one list,
    which is joined once.  Dicts and lists open a line per item; an empty
    one is {} or []; a tuple is a list and a complex number the list
    [real, imag]; ints (numpy's too) print as ints, bools and None as
    true, false and null, and strings and keys as json.dumps writes them.
    """
    out: list[str] = []
    _render(obj, "\n" + "  " * indent, out)
    return "".join(out)


def _render(obj, pad: str, out: list[str]) -> None:
    """Append obj's text to out; pad is a newline and the indent of obj's own line."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        keys = [(encode_basestring_ascii(k) if isinstance(k, str) else json.dumps(k)) + ": " for k in obj]
        _render_items(keys, obj.values(), "{}", pad, out)
    elif isinstance(obj, (list, tuple)):
        _render_items(itertools.repeat(""), obj, "[]", pad, out)
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_json_float(obj))
    elif isinstance(obj, complex):
        _render([obj.real, obj.imag], pad, out)
    else:
        out.append(json.dumps(obj))


def _render_items(keys, values, brackets: str, pad: str, out: list[str]) -> None:
    """A dict's or a list's items, one line each; a key is its text and ": ", a list item's is ""."""
    if not values:
        out.append(brackets)
        return
    inner = pad + "  "
    sep = brackets[0] + inner
    for key, v in zip(keys, values):
        out.append(sep + key)
        leaf = _LEAVES.get(type(v))
        if leaf is None:
            _render(v, inner, out)
        else:
            out.append(leaf(v))
        sep = "," + inner
    out.append(pad + brackets[1])


def render_csv(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The header line, then one line per row of the columns, which have one length.

    A cell prints as fmt if it is a float (numpy's too) and as str
    otherwise.  Each column is formatted at once (see _column_texts), and
    each row's line is joined from the formatted columns.
    """
    lines = map(",".join, zip(*(_column_texts(_csv_texts, column) for column in columns)))
    return "\n".join([",".join(header), *lines]) + "\n"


def _csv_texts(cells: Sequence) -> Iterable[str]:
    """render_csv's text of each cell."""
    if _one_type(cells) is float:
        return map(format, cells, itertools.repeat(".17g"))  # fmt's text, without a call per cell
    return [fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in cells]


def _json_texts(cells: Sequence) -> Iterable[str]:
    """render_json's text of each cell, at the indent of a table row's keys."""
    leaf = _LEAVES.get(_one_type(cells))
    return map(leaf, cells) if leaf is not None else [render_json(v, 3) for v in cells]


def _one_type(cells: Sequence) -> type | None:
    """The exact type of every cell, or None where their types differ (or there are none)."""
    kinds = set(map(type, cells))
    return kinds.pop() if len(kinds) == 1 else None


def _column_texts(render, column: Sequence) -> Iterable[str]:
    """The text of each cell, rendering each distinct cell object once.

    render maps a sequence of cells to their texts.  A grid's line values
    repeat along its table as the same objects (a J line's J on each of its
    rows, the J0 values on every line), so they are formatted once a line.
    """
    keys = list(map(id, column))
    distinct = dict(zip(keys, column))  # the column holds each object while its id is a key
    if len(distinct) == len(keys):
        return render(column)
    text = dict(zip(distinct, render(list(distinct.values()))))
    return map(text.__getitem__, keys)


# A table row in render_json's layout of a table document: an item of its
# "rows" list, two levels in, with its keys one level further in.
_ROW_PAD = "\n" + "  " * 2
_KEY_PAD = _ROW_PAD + "  "


def _render_json_table(columns: Mapping[str, Sequence], doc: Mapping) -> str:
    """render_json of doc with the columns' rows appended under "rows", each row an object keyed by column.

    Each column is rendered at once (see _column_texts), and the rows are
    one join of the fixed key lines and the cells' texts.
    """
    pieces, opening = [], "{"
    for key, column in columns.items():
        pieces += (itertools.repeat(opening + _KEY_PAD + encode_basestring_ascii(key) + ": "),
                   _column_texts(_json_texts, column))
        opening = ","
    separator = "," + _ROW_PAD
    pieces.append(itertools.repeat(_ROW_PAD + "}" + separator))
    rows = "".join(itertools.chain.from_iterable(zip(*pieces))).removesuffix(separator) if columns else ""
    table = "[" + _ROW_PAD + rows + "\n  ]" if rows else "[]"
    return render_json({**doc, "rows": None}).removesuffix("null\n}") + table + "\n}"


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


def _required(flag: str, help: str | None = None, type=float) -> tuple[str, dict]:
    return flag, {"type": type, "required": True, "help": help}


_PARAMS = (_required("--j0", "Ising coupling"), _required("--j", "XY coupling"),
           _required("--beta", "inverse temperature (> 0)"))
_FORMAT = ("--format", {"choices": ["csv", "json"], "default": "csv"})  # the three tables only
# Each subcommand's help and its arguments in --help order; every subcommand takes --out last.
_SUBCOMMANDS = {
    "coeffs": ("bond / vertex / transfer coefficients as JSON", _PARAMS),
    "solve": ("solve the boundary equations and classify the region", _PARAMS),
    "evaluate": ("evaluate an observable file on a solved branch", (
        *_PARAMS,
        ("--observable", {"required": True, "help": "observable JSON path"}),
        ("--branch", {"required": True, "choices": [b.value for b in Branch]}),
    )),
    "phase-diagram": ("Delta sign over a (J, J0) grid", (
        *map(_required, ("--j-min", "--j-max", "--j0-min", "--j0-max", "--beta")),
        _required("--resolution", type=int),
        _FORMAT,
    )),
    "projector": ("aligned projector expectation along a beta grid", (
        _required("--j0"),
        _required("--j"),
        _required("--n", "ball depth of the projector", int),
        *map(_required, ("--beta-min", "--beta-max")),
        _required("--steps", type=int),
        _FORMAT,
    )),
    "cluster": ("correlation decay toward the product value", (
        *_PARAMS,
        ("--branch", {"choices": [Branch.ORDERED_PLUS.value, Branch.ORDERED_MINUS.value], "default": "plus"}),
        ("--max-level", {"type": int, "default": 8}),
        _FORMAT,
    )),
    "verify": ("run the acceptance-criteria suite", ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Building the seven subparsers costs more than most commands; parsing does
    not change the parser (each call gets a new namespace, and usage errors
    write to the sys.stderr of the moment), so main reuses one.
    """
    parser = _Parser(prog="cayley-qmc", description="Boundary fixed points and state evaluation on the order-2 tree")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--out", default=None)
    parser.commands = sub.choices  # each subcommand's parser by name, for _parse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser's parse of argv, through the named subcommand's own parser where it can be.

    The full parser hands every argument after the command to that
    subcommand's parser and adds the command's name; it adds its own error
    only where arguments are left over.  So where argv[0] names a
    subcommand whose parser leaves nothing over, that parser's namespace,
    with the command set, is the full parse; everywhere else (no argument,
    -h, an unknown command, leftover arguments) the full parser runs, so
    every help, usage and error text is what it prints.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, leftover = command.parse_known_args(argv[1:])
        if not leftover:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _table(args, columns: Mapping[str, Sequence], **doc) -> str:
    """A table given as columns of one length: their keys name the CSV columns and, in order, each JSON row's keys.

    The JSON document is `doc` with the rows appended under "rows", as
    render_json lays it out.
    """
    if args.format == "csv":
        return render_csv(list(columns), list(columns.values()))
    return _render_json_table(columns, doc) + "\n"


def _columns(header: Sequence[str], rows: Sequence[Mapping]) -> dict[str, list]:
    return {key: [row[key] for row in rows] for key in header}


def _branch_doc(sol: BoundarySolution) -> dict:
    (h0, _), (_, h1) = sol.h.tolist()
    (w0, _), (_, w1) = sol.omega0.tolist()
    return {
        "branch": sol.branch.value,
        "h": [h0.real, h1.real],
        "omega0": [w0.real, w1.real],
        "xi0": sol.xi0,
        "xi3": sol.xi3,
        "alpha": sol.alpha,
        "residual": sol.residual,
    }


def _cmd_coeffs(args) -> tuple[dict, int]:
    params = ModelParams(args.j0, args.j, args.beta)
    doc = {"j0": args.j0, "j": args.j, "beta": args.beta,
           **asdict(operator_coeffs(params)), **asdict(transfer_coeffs(params))}
    if args.j0 == 0:
        doc.update(asdict(xy_only_coeffs(params)))
    return doc, 0


def _cmd_solve(args) -> tuple[dict, int]:
    params = ModelParams(args.j0, args.j, args.beta)
    if params.j0 == 0:
        # Delta > 0 does not signal a transition here: with no Ising part the
        # only translation-invariant diagonal solution is the uniform one.
        try:
            delta = delta_theta(params)
        except SingularParameterError:
            delta = None
        sol = solve_branch(params, Branch.XY_ONLY)
        return {"delta": delta, "classification": "Unique", "branches": [_branch_doc(sol)],
                "alpha_check": asdict(xy_alpha_report(params))}, 0
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
    return doc, 0


def _cmd_evaluate(args) -> tuple[dict, int]:
    params = ModelParams(args.j0, args.j, args.beta)
    with open(args.observable, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"observable file {args.observable} is not JSON: {exc}") from None
    obs = Observable.from_json_dict(doc)
    value = eval_recursive(EvalContext.create(params, Branch(args.branch)), obs)
    return {"j0": args.j0, "j": args.j, "beta": args.beta, "branch": args.branch, "value": value}, 0


def _cmd_phase_diagram(args) -> tuple[str, int]:
    columns = analysis._phase_columns(args.j_min, args.j_max, args.j0_min, args.j0_max, args.beta, args.resolution)
    return _table(args, dict(zip(analysis.PhasePoint._fields, map(list, columns))), beta=args.beta), 0


def _cmd_projector(args) -> tuple[str, int]:
    if args.steps < 1:
        raise DomainError(f"steps must be >= 1, got {args.steps}")
    if args.steps > analysis.MAX_SCAN_POINTS:
        raise ResourceLimitError(f"{args.steps} steps exceed the {analysis.MAX_SCAN_POINTS}-point guard")
    betas = [float(b) for b in np.linspace(args.beta_min, args.beta_max, args.steps)]
    rows = analysis.projector_limit_scan(args.j0, args.j, args.n, betas)
    header = ("beta", "phi1_pn", "phi1_qn", "dev_from_one")
    return _table(args, _columns(header, rows), j0=args.j0, j=args.j, n=args.n), 0


def _cmd_cluster(args) -> tuple[str, int]:
    if args.max_level < 4:
        raise DomainError(f"--max-level must be >= 4 to fit a ratio, got {args.max_level}")
    if args.max_level > MAX_CLUSTER_LEVEL:
        raise ResourceLimitError(f"--max-level {args.max_level} exceeds the {MAX_CLUSTER_LEVEL}-level guard")
    params = ModelParams(args.j0, args.j, args.beta)
    ctx = EvalContext.create(params, Branch(args.branch))
    obs = Observable.single(ROOT, analysis.E11)
    rows = analysis.clustering_deviations(ctx, obs, obs, list(range(3, args.max_level + 1)))
    fitted = analysis.fitted_decay_ratio(rows)
    # the limit check evaluates one more deep marker, so only the JSON document, which prints it, pays for it
    limit_check = asdict(analysis.clustering_limit_report(ctx, analysis.E11)) if args.format == "json" else None
    return _table(args, _columns(("level", "deviation", "ratio"), rows), branch=args.branch,
                  lambda_abs=abs(analysis.lam(params)), fitted_ratio=fitted, limit_check=limit_check), 0


def _cmd_verify(args) -> tuple[str, int]:
    results = acceptance.run_all()
    width = max(len(r.name) for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)} criteria")
    return "\n".join(lines) + "\n", 0 if passed == len(results) else 1


# Each returns its document (a JSON object, or text as printed) and the exit status.
_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "phase-diagram": _cmd_phase_diagram,
    "projector": _cmd_projector,
    "cluster": _cmd_cluster,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        doc, status = _COMMANDS[args.command](args)
        text = doc if isinstance(doc, str) else render_json(doc) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except (DomainError, OSError) as exc:  # OSError: an observable or --out path that cannot be read or written
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except OverflowError as exc:  # math's wording; the threshold's own error is a DomainError, caught above
        print(f"domain error: couplings times beta overflow a float ({exc})", file=sys.stderr)
        return DOMAIN_EXIT
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
