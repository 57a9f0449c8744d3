import argparse
import contextlib
import io
import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_qmc import acceptance, analysis, cli
from cayley_qmc.analysis import marker_expectation_closed
from cayley_qmc.boundary import Branch
from cayley_qmc.model_ops import ModelParams


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json(capsys):
    code, out, _ = run_cli(capsys, ["coeffs", "--j0", "1", "--j", "0.5", "--beta", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["k0"] == pytest.approx((math.exp(0.5) + 1) / 2)
    assert doc["k3"] == pytest.approx((math.exp(0.5) - 1) / 2)
    assert doc["c3"] == pytest.approx((math.exp(2) - 1) / 2)
    assert "r1" not in doc


def test_coeffs_includes_xy_trio_at_j0_zero(capsys):
    code, out, _ = run_cli(capsys, ["coeffs", "--j0", "0", "--j", "1", "--beta", str(math.log(2))])
    assert code == 0
    doc = json.loads(out)
    assert doc["r1"] == pytest.approx(9 / 16)
    assert doc["r2"] == pytest.approx(3 / 8)


GOLDEN = Path(__file__).parent / "data" / "cli"
GOLDEN_POINTS = {
    "ordered": ("1", "0.3", "1.2"),
    "unique": ("0.1", "0", "0.1"),
    "outer": ("1", "2", "0.5"),  # |J| > J0: an ordered_note, no ordered branches
    "xy": ("0", "1", "0.7"),
}


@pytest.mark.parametrize("command", ["coeffs", "solve"])
@pytest.mark.parametrize("point", GOLDEN_POINTS)
def test_stdout_is_the_recorded_bytes(capsys, command, point):
    # the files hold an earlier release's output: any drift in a digit or a key shows here
    j0, j, beta = GOLDEN_POINTS[point]
    code, out, _ = run_cli(capsys, [command, "--j0", j0, "--j", j, "--beta", beta])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{command}-{point}.json").read_bytes()


ENGINE_GOLDEN = {
    # the recursive engine's output: a moved digit in a vertex value shows here
    "cluster-plus": ["cluster", "--j0", "1", "--j", "0.3", "--beta", "1.2", "--branch", "plus",
                     "--max-level", "16", "--format", "json"],
    "cluster-minus": ["cluster", "--j0", "1", "--j", "0.3", "--beta", "1.2", "--branch", "minus",
                      "--max-level", "16", "--format", "json"],
    "evaluate-readme": ["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "plus",
                        "--j0", "1", "--j", "0.5", "--beta", "0.8"],
}


@pytest.mark.parametrize("name", ENGINE_GOLDEN)
def test_engine_stdout_is_the_recorded_bytes(capsys, name):
    code, out, _ = run_cli(capsys, ENGINE_GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


SCAN_7 = ["phase-diagram", "--j-min", "-1.5", "--j-max", "1.5", "--j0-min", "-1.5", "--j0-max", "1.5",
          "--beta", "0.8", "--resolution", "7"]  # 13 of its 49 rows are Singular
PROJECTOR_README = ["projector", "--j0", "1", "--j", "0.3", "--n", "3", "--beta-min", "1", "--beta-max", "5",
                    "--steps", "5"]
TABLE_GOLDEN = {
    # each table's header, column order, row keys and cell rendering, in both formats
    "phase-diagram.csv": SCAN_7,
    "phase-diagram.json": SCAN_7 + ["--format", "json"],
    "projector-readme.csv": PROJECTOR_README,
    "projector-readme.json": PROJECTOR_README + ["--format", "json"],
    "cluster-plus.csv": ["cluster", "--j0", "1", "--j", "0.3", "--beta", "1.2", "--max-level", "16"],
}


@pytest.mark.parametrize("name", TABLE_GOLDEN)
def test_table_stdout_is_the_recorded_bytes(capsys, name):
    code, out, _ = run_cli(capsys, TABLE_GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_solve_ordered_point(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--j0", "1", "--j", "0.5", "--beta", "0.8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "PhaseTransition"
    assert [b["branch"] for b in doc["branches"]] == ["disordered", "plus", "minus"]
    for b in doc["branches"]:
        assert b["residual"] < 1e-10


def test_solve_unique_point(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--j0", "0.1", "--j", "0", "--beta", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Unique"
    assert [b["branch"] for b in doc["branches"]] == ["disordered"]


def test_solve_xy_point_reports_alpha_check(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--j0", "0", "--j", "1", "--beta", "0.7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Unique"
    assert doc["branches"][0]["branch"] == "xy"
    assert doc["alpha_check"]["matches"] is False


def test_solve_singular_exits_2(capsys):
    code, _, err = run_cli(capsys, ["solve", "--j0", "1", "--j", "1", "--beta", "0.5"])
    assert code == 2
    assert "domain error" in err


def test_solve_within_rounding_of_the_diagonal_is_singular(capsys):
    code, out, err = run_cli(capsys, ["solve", "--j0", "0.8999999999999999", "--j", "-0.9", "--beta", "2.5"])
    assert (code, out) == (2, "")
    assert err == "domain error: singular parameters: denominator 9.095e-13 vanishes near J = +-J0\n"


def test_usage_error_exits_64(capsys):
    code, _, _ = run_cli(capsys, ["bogus"])
    assert code == 64
    code, _, _ = run_cli(capsys, ["solve", "--j0", "1"])
    assert code == 64


def test_resource_error_maps_to_3(capsys, monkeypatch):
    from cayley_qmc.errors import ResourceLimitError

    def boom(args):
        raise ResourceLimitError("too big")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", boom)
    code, _, err = run_cli(capsys, ["coeffs", "--j0", "1", "--j", "0", "--beta", "1"])
    assert code == 3
    assert "resource limit" in err


def test_evaluate_identity(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "factors": []}]}))
    code, out, _ = run_cli(
        capsys,
        ["evaluate", "--observable", str(path), "--branch", "plus", "--j0", "1", "--j", "0.5", "--beta", "0.8"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"][0] == pytest.approx(1.0, abs=1e-12)
    assert doc["value"][1] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_pauli_factor(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text(
        json.dumps({"terms": [{"coeff": [1.0, 0.0], "factors": [{"site": [1, 1], "pauli": "Z"}]}]})
    )
    code, out, _ = run_cli(
        capsys,
        ["evaluate", "--observable", str(path), "--branch", "minus", "--j0", "1", "--j", "0", "--beta", "1"],
    )
    assert code == 0
    assert json.loads(out)["value"][0] < 0  # minus branch favours spin down


def test_evaluate_missing_file_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, ["evaluate", "--observable", "/no/such.json", "--branch", "plus", "--j0", "1", "--j", "0", "--beta", "1"]
    )
    assert code == 2


EVALUATE_PLUS = ["evaluate", "--j0", "1", "--j", "0.5", "--beta", "0.8", "--branch", "plus"]


def _one_domain_error(code, out, err):
    return code == 2 and out == "" and err.startswith("domain error:") and err.count("\n") == 1


def test_evaluate_directory_as_observable_exits_2(tmp_path, capsys):
    assert _one_domain_error(*run_cli(capsys, EVALUATE_PLUS + ["--observable", str(tmp_path)]))


def test_evaluate_non_utf8_observable_exits_2(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_bytes(b"\xff\xfe\x7b")
    code, out, err = run_cli(capsys, EVALUATE_PLUS + ["--observable", str(path)])
    assert _one_domain_error(code, out, err) and "is not JSON" in err


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    code, out, err = run_cli(capsys, ["coeffs", "--j0", "1", "--j", "0", "--beta", "1", "--out", str(target)])
    assert _one_domain_error(code, out, err) and not target.parent.exists()


def test_phase_diagram_csv(capsys):
    argv = [
        "phase-diagram",
        "--j-min", "-1", "--j-max", "1",
        "--j0-min", "0.2", "--j0-max", "1.2",
        "--beta", "1", "--resolution", "4",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,j0,delta,classification,threshold"
    assert len(lines) == 17


def test_phase_diagram_deterministic(capsys):
    argv = [
        "phase-diagram",
        "--j-min", "-1", "--j-max", "1",
        "--j0-min", "0.2", "--j0-max", "1.2",
        "--beta", "1", "--resolution", "4",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_projector_csv(capsys):
    argv = ["projector", "--j0", "1", "--j", "0.3", "--n", "3", "--beta-min", "1", "--beta-max", "3", "--steps", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,phi1_pn,phi1_qn,dev_from_one"
    assert len(lines) == 4


@pytest.mark.parametrize("n", ["1100", "1024", "1023"])
def test_projector_beyond_double_depth_names_n(capsys, n):
    # 2**n overflows a double from n = 1024; just below, the log-space value is inf - inf
    argv = ["projector", "--j0", "1", "--j", "0.3", "--n", n, "--beta-min", "1", "--beta-max", "2", "--steps", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and f"n = {n}" in err
    assert "couplings times beta" not in err


@pytest.mark.parametrize("steps", [analysis.MAX_SCAN_POINTS + 1, 10**12])
def test_projector_steps_guard_exits_3_before_allocating(capsys, monkeypatch, steps):
    def no_grid(*args, **kwargs):
        raise AssertionError("the beta grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    argv = ["projector", "--j0", "1", "--j", "0.3", "--n", "3", "--beta-min", "1", "--beta-max", "2", "--steps", str(steps)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


@pytest.mark.parametrize("level", [cli.MAX_CLUSTER_LEVEL + 1, 10**12])
def test_cluster_level_guard_exits_3_before_evaluating(capsys, monkeypatch, level):
    def no_levels(*args, **kwargs):
        raise AssertionError("the levels were evaluated")

    monkeypatch.setattr(analysis, "clustering_deviations", no_levels)
    argv = ["cluster", "--j0", "1", "--j", "0.3", "--beta", "1.2", "--max-level", str(level)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:") and f"{cli.MAX_CLUSTER_LEVEL}-level guard" in err


def test_cluster_json(capsys):
    argv = ["cluster", "--j0", "1", "--j", "0", "--beta", "1", "--branch", "plus", "--max-level", "5", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fitted_ratio"] - doc["lambda_abs"]) / doc["lambda_abs"] < 0.1
    assert [r["level"] for r in doc["rows"]] == [3, 4, 5]


def test_cluster_fits_only_resolved_levels(capsys):
    # levels 11..16 sit at 1e-13 and below; fitting them too gave 0.199
    argv = ["cluster", "--j0", "1", "--j", "0.3", "--beta", "1.2", "--max-level", "16", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fitted_ratio"] - doc["lambda_abs"]) / doc["lambda_abs"] < 0.01
    assert [r["level"] for r in doc["rows"]] == list(range(3, 17))


@pytest.mark.parametrize("beta,branch", [("60", "minus"), ("150", "plus")])
def test_cluster_refuses_when_nothing_is_resolved(capsys, beta, branch):
    # lambda = 0 here: every deviation is rounding, and a fitted ratio would be noise
    code, out, err = run_cli(capsys, ["cluster", "--j0", "1", "--j", "0.3", "--beta", beta, "--branch", branch])
    assert (code, out) == (2, "")
    assert "two leading deviations above 1e-11" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    code, out, _ = run_cli(capsys, ["coeffs", "--j0", "1", "--j", "0", "--beta", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["c1"] > 0


def test_verify_table_and_exit(capsys, monkeypatch):
    canned = [
        acceptance.CriterionResult(name="1 demo", passed=True, detail="ok"),
        acceptance.CriterionResult(name="2 demo", passed=True, detail="ok"),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: canned)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    assert "PASS  1 demo" in out and "passed 2/2 criteria" in out

    canned[1] = acceptance.CriterionResult(name="2 demo", passed=False, detail="bad")
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 1
    assert "FAIL  2 demo" in out


def reference_render_json(obj, indent: int = 0) -> str:
    """The renderer as it was before its one-pass form, verbatim: the reference for render_json's bytes."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(k)}: {reference_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return cli.fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, complex):
        return reference_render_json([obj.real, obj.imag], indent)
    return json.dumps(obj)


# the leaves a document may hold: every type the renderer tells apart, with the floats and strings that
# print in a form of their own (signed zero, non-finite, subnormal; escapes, non-ASCII, lone surrogates)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),  # beyond 2^64 both ways
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "\ud800", "é", "ключ", "\U0001f600"]),
)
json_keys = st.one_of(st.text(), st.sampled_from(["é", "ключ", "\U0001f600", '"q"', "a\\b", "\n"]), st.integers())
json_documents = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(json_documents, st.sampled_from([0, 1]))
def test_render_json_is_the_reference_byte_for_byte(doc, indent):
    assert cli.render_json(doc, indent).encode() == reference_render_json(doc, indent).encode()


# The table path as it was before the columnar one, verbatim (bar the names): the reference for the bytes of
# every phase-diagram, projector and cluster table.  main renders the dict that reference_table returns.
def reference_render_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = [cli.fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_table(args, header, rows, **doc):
    rows = [[row[key] for key in header] for row in rows]
    if args.format == "csv":
        return reference_render_csv(header, rows)
    return {**doc, "rows": [dict(zip(header, row)) for row in rows]}


def reference_cmd_phase_diagram(args):
    rows = analysis.phase_diagram_scan(
        args.j_min, args.j_max, args.j0_min, args.j0_max, args.beta, args.resolution
    )
    return reference_table(args, analysis.PhasePoint._fields, map(analysis.PhasePoint._asdict, rows), beta=args.beta), 0


def reference_cmd_projector(args):
    if args.steps < 1:
        raise cli.DomainError(f"steps must be >= 1, got {args.steps}")
    if args.steps > analysis.MAX_SCAN_POINTS:
        raise cli.ResourceLimitError(f"{args.steps} steps exceed the {analysis.MAX_SCAN_POINTS}-point guard")
    betas = [float(b) for b in np.linspace(args.beta_min, args.beta_max, args.steps)]
    rows = analysis.projector_limit_scan(args.j0, args.j, args.n, betas)
    header = ("beta", "phi1_pn", "phi1_qn", "dev_from_one")
    return reference_table(args, header, rows, j0=args.j0, j=args.j, n=args.n), 0


def reference_cmd_cluster(args):
    if args.max_level < 4:
        raise cli.DomainError(f"--max-level must be >= 4 to fit a ratio, got {args.max_level}")
    if args.max_level > cli.MAX_CLUSTER_LEVEL:
        raise cli.ResourceLimitError(f"--max-level {args.max_level} exceeds the {cli.MAX_CLUSTER_LEVEL}-level guard")
    params = ModelParams(args.j0, args.j, args.beta)
    ctx = cli.EvalContext.create(params, Branch(args.branch))
    obs = cli.Observable.single(cli.ROOT, analysis.E11)
    rows = analysis.clustering_deviations(ctx, obs, obs, list(range(3, args.max_level + 1)))
    fitted = analysis.fitted_decay_ratio(rows)
    limit_check = asdict(analysis.clustering_limit_report(ctx, analysis.E11)) if args.format == "json" else None
    return reference_table(args, ("level", "deviation", "ratio"), rows, branch=args.branch,
                           lambda_abs=abs(analysis.lam(params)), fitted_ratio=fitted, limit_check=limit_check), 0


REFERENCE_TABLE_COMMANDS = {
    "phase-diagram": reference_cmd_phase_diagram,
    "projector": reference_cmd_projector,
    "cluster": reference_cmd_cluster,
}


def _main_result(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def _assert_table_is_the_reference(argv):
    """main gives the reference table path's exit code, stdout bytes and stderr."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(cli._COMMANDS, argv[0], REFERENCE_TABLE_COMMANDS[argv[0]])
        want = _main_result(argv)
    assert _main_result(argv) == want, argv


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.one_of(st.floats(0.05, 5.0), st.sampled_from([100.0, 400.0])),  # overflowing lines at low temperature
    st.integers(2, 12), st.sampled_from(["mirror", "boundary", "free"]), st.sampled_from(["csv", "json"]),
)
def test_phase_diagram_table_is_the_reference(a, b, c, beta, resolution, lines, table_format):
    j_min, j_max = sorted((a, b))
    if lines == "mirror":  # the J0 grid on the J grid: the diagonal rows are J = +-J0, flagged Singular
        j0_min, j0_max = j_min, j_max
    elif lines == "boundary":  # a J = 0 line crossing J0 = log(3) / (2 beta), where Delta = 0: a Boundary row
        j_min, j_max, resolution = -abs(a), abs(a), max(3, resolution - 1 | 1)  # odd: J = 0 in the middle, mostly
        j0_min, j0_max = math.log(3) / (2 * beta), abs(c) + 0.1
    else:
        j0_min, j0_max = sorted((b, c))
    _assert_table_is_the_reference(
        ["phase-diagram", "--j-min", repr(j_min), "--j-max", repr(j_max), "--j0-min", repr(j0_min),
         "--j0-max", repr(j0_max), "--beta", repr(beta), "--resolution", str(resolution), "--format", table_format]
    )


def test_the_drawn_grids_reach_boundary_rows_and_overflowing_lines():
    # what the property's "boundary" and low-temperature draws are for: a Boundary row, and a grid that fails
    rows = analysis.phase_diagram_scan(-1.0, 1.0, math.log(3) / 2, 2.0, 1.0, 5)
    assert "Boundary" in {r.classification for r in rows}
    with pytest.raises(OverflowError):
        analysis.phase_diagram_scan(-3.0, 3.0, 0.0, 3.0, 400.0, 3)


@settings(max_examples=40, deadline=None)
@given(
    # mostly ordered points, up to temperatures where the projector's constants overflow
    st.floats(0.6, 2.0), st.floats(-0.9, 0.9), st.integers(0, 12), st.floats(1.0, 120.0), st.floats(1.0, 120.0),
    st.integers(1, 8), st.sampled_from(["csv", "json"]),
)
def test_projector_table_is_the_reference(j0, ratio, n, beta_min, beta_max, steps, table_format):
    _assert_table_is_the_reference(
        ["projector", "--j0", repr(j0), "--j", repr(j0 * ratio), "--n", str(n), "--beta-min", repr(beta_min),
         "--beta-max", repr(beta_max), "--steps", str(steps), "--format", table_format]
    )


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.6, 2.0), st.floats(-0.9, 0.9), st.floats(1.0, 3.0), st.sampled_from(["plus", "minus"]),  # ordered
    st.integers(4, 12), st.sampled_from(["csv", "json"]),
)
def test_cluster_table_is_the_reference(j0, ratio, beta, branch, max_level, table_format):
    _assert_table_is_the_reference(
        ["cluster", "--j0", repr(j0), "--j", repr(j0 * ratio), "--beta", repr(beta), "--branch", branch,
         "--max-level", str(max_level), "--format", table_format]
    )


# table cells: every type the table renderers tell apart, with the floats and strings that print in a form of
# their own, and a list for the JSON renderer's nested path
table_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(['"', "\\", "\n", ",", "{}", "{0}", "\x00", "\u2028", "\ud800", "é", "ключ", "\U0001f600"]),
    st.lists(st.floats(), max_size=2),
)


@st.composite
def tables(draw):
    """(header, rows as dicts, doc): the columns draw their cells from a pool, so that objects repeat in them."""
    header = draw(st.lists(st.one_of(st.text(), st.sampled_from(["j", "{x}", '"q"', "é", "a}b{"])),
                           min_size=1, max_size=4, unique=True))
    pools = [draw(st.lists(table_cells, min_size=1, max_size=4)) for _ in header]
    length = draw(st.integers(0, 6))
    columns = [[pool[draw(st.integers(0, len(pool) - 1))] for _ in range(length)] for pool in pools]
    rows = [dict(zip(header, row)) for row in zip(*columns)] if length else []
    doc = draw(st.dictionaries(st.sampled_from(["beta", "j0", "branch", "limit_check"]), table_cells, max_size=3))
    return header, rows, doc


@settings(max_examples=120, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_a_columnar_table_is_the_reference_byte_for_byte(table, table_format):
    header, rows, doc = table
    args = argparse.Namespace(format=table_format)
    want = reference_table(args, header, rows, **doc)
    want = want if isinstance(want, str) else cli.render_json(want) + "\n"
    columns = {key: [row[key] for row in rows] for key in header}
    assert cli._table(args, columns, **doc) == want  # str equality: a CSV cell may hold a lone surrogate


def test_json_rendering_17g():
    text = cli.render_json({"x": 1 / 3, "nested": [1.0, 2]})
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3
    assert cli.render_json(float("nan")) == "null"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--j0", "nan", "--j", "0.5", "--beta", "0.8"],
        ["solve", "--j0", "1", "--j", "inf", "--beta", "0.8"],
        ["coeffs", "--j0", "1", "--j", "0.5", "--beta", "inf"],
        ["solve", "--j0", "1", "--j", "-inf", "--beta", "0.8"],
    ],
)
def test_non_finite_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:")


OVERFLOWING = ["--j0", "1e300", "--j", "1e-300", "--beta", "1e300"]  # 4*j0*beta = inf, each factor finite


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["coeffs", *OVERFLOWING], "4*j0*beta = inf"),
        (["coeffs", "--j0", "-1e300", "--j", "1e-300", "--beta", "1e300"], "4*j0*beta = -inf"),
        (["solve", *OVERFLOWING], "4*j0*beta = inf"),
        (["cluster", *OVERFLOWING], "4*j0*beta = inf"),
        (["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "plus", *OVERFLOWING],
         "4*j0*beta = inf"),
        (["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "disordered", *OVERFLOWING],
         "4*j0*beta = inf"),
        (["solve", "--j0", "-1e300", "--j", "-2.2250738585072014e-308", "--beta", "1e300"],
         "4*j0*beta = -inf"),
        (["coeffs", "--j0", "1", "--j", "1e308", "--beta", "10"], "2*j*beta = inf"),
        # every scan bound is finite, but 2*j*beta is not at the J corners
        (["phase-diagram", "--j-min", "-1e300", "--j-max", "1e300", "--j0-min", "0", "--j0-max", "0",
          "--beta", "1e10", "--resolution", "3"], "2*j*beta = -inf"),
    ],
)
def test_an_overflowing_coupling_product_exits_2(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert _one_domain_error(code, out, err) and named in err


@pytest.mark.parametrize(
    "argv",
    [
        # each of 4*j0*beta and 2*j*beta is finite; a product of their exponentials is not
        ["solve", "--j0", "0.4", "--j", "0.8", "--beta", "400"],
        ["coeffs", "--j0", "0.4", "--j", "0.8", "--beta", "400"],
        ["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "disordered",
         "--j0", "0.4", "--j", "0.8", "--beta", "400"],
        # the xy branch's numeric Phi(1) overflows a little before the closed-form C1 does
        ["solve", "--j0", "0", "--j", "2", "--beta", "177.5"],
        ["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "xy",
         "--j0", "0", "--j", "2", "--beta", "177.5"],
        ["evaluate", "--observable", str(GOLDEN / "readme-obs.json"), "--branch", "xy",
         "--j0", "0", "--j", "1e300", "--beta", "1"],  # exp(j beta) itself overflows
        # the threshold log(3) / (2 beta) overflows
        ["phase-diagram", "--j-min", "-1", "--j-max", "1", "--j0-min", "0.5", "--j0-max", "2",
         "--beta", "5e-324", "--resolution", "3", "--format", "json"],
    ],
)
def test_an_overflowing_exponential_exits_2_without_a_warning(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert _one_domain_error(code, out, err) and "overflow" in err and not caught


def test_a_threshold_overflow_names_the_threshold_not_the_couplings(capsys):
    argv = ["phase-diagram", "--j-min", "-1", "--j-max", "1", "--j0-min", "0.5", "--j0-max", "2",
            "--beta", "5e-324", "--resolution", "3"]
    code, out, err = run_cli(capsys, argv)
    assert _one_domain_error(code, out, err) and "region threshold" in err and "beta = 5e-324" in err
    assert "couplings times beta" not in err


NAN_FACTOR = '{"terms": [{"factors": [{"site": [1], "matrix": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}]}]}'


def _one_term(coeff=(1.0, 0.0), **factor):
    return json.dumps({"terms": [{"coeff": coeff, "factors": [{"site": [1], "pauli": "Z", **factor}]}]})


MALFORMED = {
    "terms-not-a-list": json.dumps({"terms": 5}),
    "term-not-an-object": json.dumps({"terms": [1]}),
    "coeff-string": _one_term(coeff="abc"),
    "coeff-short-pair": _one_term(coeff=[1]),
    "pauli-number": _one_term(pauli=5),
    "site-number": _one_term(site=5),
    "matrix-flat": json.dumps({"terms": [{"factors": [{"site": [1], "matrix": [1, 2, 3, 4]}]}]}),
    "matrix-short-pair": json.dumps({"terms": [{"factors": [{"site": [1], "matrix": [[1, 0], [0]]}]}]}),
    "matrix-1x1": json.dumps({"terms": [{"factors": [{"site": [1], "matrix": [[1, 0]]}]}]}),
    "matrix-3x3": json.dumps({"terms": [{"factors": [{"site": [1], "matrix": [[1, 0]] * 9}]}]}),
    "site-fraction": _one_term(site=[1.5]),
    "site-fraction-above": _one_term(site=[2.9]),
    "site-string": _one_term(site="12"),
    "site-bool": _one_term(site=[True]),
    "site-digit-3": _one_term(site=[1, 3]),
}


@pytest.mark.parametrize(
    "text",
    ["{not json", json.dumps({"factors": []}), json.dumps([1, 2]), pytest.param(NAN_FACTOR, id="nan-factor")]
    + [pytest.param(text, id=name) for name, text in MALFORMED.items()],
)
def test_evaluate_malformed_observable_exits_2(tmp_path, capsys, text):
    path = tmp_path / "obs.json"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, ["evaluate", "--observable", str(path), "--branch", "plus", "--j0", "1", "--j", "0", "--beta", "1"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:")


@pytest.mark.parametrize(
    ("site", "bad"),
    [([], "Infinity"), ([1], "Infinity"), ([1, 2, 1], "NaN")],
    ids=["inf-root", "inf-level-1", "nan-level-3"],
)
def test_evaluate_refuses_a_non_finite_factor_without_a_warning(tmp_path, capsys, site, bad):
    # the bad entry sits where the one-vertex channel multiplies it by zero only
    path = tmp_path / "obs.json"
    path.write_text(f'{{"terms": [{{"factors": [{{"site": {site}, "matrix": [[1, 0], [{bad}, 0], [0, 0], [1, 0]]}}]}}]}}')
    argv = ["evaluate", "--observable", str(path), "--j0", "1", "--j", "0.3", "--beta", "1.2", "--branch", "plus"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and "not finite" in err
    assert "RuntimeWarning" not in err and not caught


def test_negative_exponent_notation_is_a_value(capsys):
    base = ["solve", "--j0", "1", "--beta", "1"]
    code, spaced, err = run_cli(capsys, base + ["--j", "-1e-05"])
    assert code == 0, err
    code, joined, _ = run_cli(capsys, base + ["--j=-1e-05"])
    assert code == 0
    assert spaced == joined


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--j0", "1", "--j", "0.3", "--beta", "400"],
        ["coeffs", "--j0", "1", "--j", "0.3", "--beta", "400"],
        ["phase-diagram", "--j-min", "-1", "--j-max", "1", "--j0-min", "0.2", "--j0-max", "1.2",
         "--beta", "400", "--resolution", "4"],
    ],
)
def test_overflowing_beta_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:")


def _evaluate_z_at_1_2(tmp_path, capsys, beta):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "factors": [{"site": [1, 2], "pauli": "Z"}]}]}))
    argv = ["evaluate", "--observable", str(path), "--branch", "plus", "--j0", "1", "--j", "0.3", "--beta", beta]
    return run_cli(capsys, argv)


def _z_closed(beta):
    return 2 * marker_expectation_closed(ModelParams(1.0, 0.3, beta), 2, Branch.ORDERED_PLUS) - 1


def test_evaluate_low_temperature_marker(tmp_path, capsys):
    # omega0 grows like e^{4 J0 beta}: its square root is checked relative to its size
    code, out, err = _evaluate_z_at_1_2(tmp_path, capsys, "5")
    assert code == 0, err
    assert abs(json.loads(out)["value"][0] - _z_closed(5.0)) < 1e-10


def test_evaluate_never_prints_a_wrong_value_at_beta_150(tmp_path, capsys):
    # The closed form overflows a float at beta = 150 (C3^2 ~ e^1200); it has
    # reached its low-temperature limit 1 to double precision by beta = 40.
    assert abs(_z_closed(40.0) - 1) < 1e-12
    code, out, err = _evaluate_z_at_1_2(tmp_path, capsys, "150")
    assert code in (0, 2), err
    if code == 0:
        assert abs(json.loads(out)["value"][0] - 1) < 1e-10
    else:
        assert out == "" and err.startswith("domain error:")


HUGE = "1" + "0" * 340  # an integer literal that no double holds


@pytest.mark.parametrize(
    ("text", "named"),
    [
        pytest.param('{"terms": [{"coeff": %s, "factors": []}]}' % HUGE, "coeff", id="coeff"),
        pytest.param('{"terms": [{"coeff": [1, %s], "factors": []}]}' % HUGE, "coeff", id="coeff-pair"),
        pytest.param(
            '{"terms": [{"factors": [{"site": [1], "matrix": [[%s, 0], [0, 0], [0, 0], [1, 0]]}]}]}' % HUGE,
            "matrix entry",
            id="matrix",
        ),
    ],
)
def test_evaluate_huge_integer_names_the_entry(tmp_path, capsys, text, named):
    path = tmp_path / "obs.json"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, ["evaluate", "--observable", str(path), "--branch", "plus", "--j0", "1", "--j", "0", "--beta", "1"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and named in err
    assert "couplings times beta" not in err


SCAN = ["phase-diagram", "--j-min", "-1", "--j-max", "1", "--j0-min", "0.2", "--j0-max", "1.2"]


@pytest.mark.parametrize(
    "override",  # the last value of a repeated option wins
    [
        ["--j-max", "inf"],
        ["--j-min", "nan"],
        ["--j0-min", "-inf"],
        ["--j0-max", "nan"],
        ["--j-min", "-1.5e308", "--j-max", "1.5e308"],
        ["--beta", "inf"],
        ["--beta", "0"],
        ["--beta", "-1"],
    ],
)
def test_phase_diagram_refuses_bad_bounds_without_warning(capsys, override):
    code, out, err = run_cli(capsys, SCAN + ["--beta", "1", "--resolution", "4", *override])
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and "Warning" not in err


def test_phase_diagram_resolution_guard_exits_3_before_allocating(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    side = math.isqrt(analysis.MAX_SCAN_POINTS) + 1  # the smallest side refused
    code, out, err = run_cli(capsys, SCAN + ["--beta", "1", "--resolution", str(side)])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


def test_main_is_reentrant_on_the_cached_parser(capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["solve", "--j0", "1", "--bogus"],
        ["solve", "--j0", "1", "--j", "0.5", "--beta", "0.8"],
        SCAN + ["--beta", "1", "--resolution", "4", "--format", "json"],
    ]
    shared = [run_cli(capsys, argv) for argv in calls]
    assert [code for code, _, _ in shared] == [64, 0, 0]
    for argv, result in zip(calls, shared):
        cli.build_parser.cache_clear()  # a parser of its own, as in a separate run
        assert run_cli(capsys, argv) == result


EDGE_FLOATS = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
contract_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),  # subnormals included
    st.floats(-3.0, 3.0),
    st.floats(0.0, 400.0),  # low temperature
    st.integers(-3, 3).map(float),  # on the lines J = +-J0 and J0 = 0
)
# one float as the command line spells it: repr (exponent form when large or small), %e, or 17 digits
contract_numbers = st.builds(lambda x, spell: spell(x), contract_floats,
                             st.sampled_from([repr, lambda x: format(x, "e"), lambda x: format(x, ".17g")]))


# values that no part of an observable document may hold: bools, null, strings and unknown labels, digits
# other than 1 or 2, an integer beyond a double, non-finite numbers, empty and short containers
HOSTILE = st.sampled_from([True, None, "1", "W", "XY", "", 0, 3, 10**400, -10**400, math.nan, math.inf, -math.inf,
                           [], {}, [1.0], [0], [3], [1, True], [2, -1], [[1, 0]] * 3])


def _sites(depth):
    """A site of the given depth, its digits drawn as the bits of one integer (one draw even when deep)."""
    return st.integers(0, 2**depth - 1).map(lambda bits: [1 + (bits >> i & 1) for i in range(depth)])


def _documents(spoil):
    """Observable documents as JSON text, each part passed through spoil."""
    number = spoil(st.one_of(st.floats(-2.0, 2.0), st.integers(-3, 3)))
    pair = spoil(st.tuples(number, number).map(list))
    site = spoil(st.sampled_from([0, 1, 2, 3, 40, 300]).flatmap(_sites))  # deep sites too
    factor = st.one_of(
        st.fixed_dictionaries({"site": site, "pauli": spoil(st.sampled_from(["I", "X", "Y", "Z", "z"]))}),
        st.fixed_dictionaries({"site": site, "matrix": spoil(st.lists(pair, min_size=4, max_size=4))}),
    )
    term = st.fixed_dictionaries({"coeff": st.one_of(number, pair), "factors": spoil(st.lists(factor, max_size=3))})
    return spoil(st.fixed_dictionaries({"terms": st.lists(term, min_size=1, max_size=2)})).map(json.dumps)


# an observable file's text: well formed, or with about one part in eight replaced by a hostile value (json
# writes nan and inf as NaN and Infinity), or cut short so that it is not JSON
observable_documents = st.one_of(
    _documents(lambda good: good),
    _documents(lambda good: st.one_of(*[good] * 7, HOSTILE)).flatmap(
        lambda text: st.sampled_from([text] * 7 + [text[:-1]])),
)


OBSERVABLE_SLOT = "<observable file>"  # evaluate's --observable, replaced by the drawn document's path


@st.composite
def contract_argv(draw):
    """A command line, and for evaluate the text of its observable file (None otherwise)."""
    def number():
        return draw(contract_numbers)

    def small(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def solving_beta():
        return repr(draw(st.floats(0.2, 3.0)))

    commands = ["coeffs", "solve", "evaluate", "evaluate", "phase-diagram", "projector", "cluster"]
    command = draw(st.sampled_from(commands))  # evaluate twice: it also draws its observable document
    document = None
    # in about half of their draws, projector and cluster get a point that solves, so that they reach exit 0
    solving = command in ("projector", "cluster") and draw(st.booleans())
    if solving:
        j0 = draw(st.floats(0.2, 2.0))
        point = ["--j0", repr(j0), "--j", repr(j0 * draw(st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)))]
    if command == "phase-diagram":
        argv = [command, "--j-min", number(), "--j-max", number(), "--j0-min", number(), "--j0-max", number(),
                "--beta", number(), "--resolution", small(1, 4)]
    elif command == "projector" and solving:
        argv = [command, *point, "--n", small(0, 4), "--beta-min", solving_beta(), "--beta-max", solving_beta(),
                "--steps", small(1, 3)]
    elif command == "projector":
        argv = [command, "--j0", number(), "--j", number(), "--n", small(0, 4), "--beta-min", number(),
                "--beta-max", number(), "--steps", small(0, 3)]
    elif command == "cluster" and solving:
        argv = [command, *point, "--beta", solving_beta()]
    elif command == "evaluate" and draw(st.booleans()):  # every branch but xy solves here: the document is evaluated
        argv = [command, "--j0", "1", "--j", "0.5", "--beta", "0.8"]
    else:
        argv = [command, "--j0", number(), "--j", number(), "--beta", number()]
    if command == "evaluate":
        document = draw(observable_documents)
        argv += ["--observable", OBSERVABLE_SLOT, "--branch", draw(st.sampled_from([b.value for b in Branch]))]
    if command == "cluster":
        argv += ["--branch", draw(st.sampled_from(["plus", "minus"])), "--max-level", small(4 if solving else 3, 6)]
    if command in ("phase-diagram", "projector", "cluster"):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv, document


def _unexpected_nulls(command, doc, j0):
    """Paths of the null fields of an exit-0 document that are not null by design."""
    found = []

    def walk(node, path, row):
        if isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, path + [i], i if path[-1:] == ["rows"] else row)
        elif isinstance(node, dict):
            for key, value in node.items():
                if value is not None:
                    walk(value, path + [key], row)
                elif not (key in ("xi0", "xi3", "alpha")  # a branch leaves the other branches' constants out
                          or (key == "delta" and (node.get("classification") == "Singular"
                                                  or (command == "solve" and j0 == 0)))
                          or (key == "ratio" and row == 0)):  # the first level has no predecessor
                    found.append(path + [key])

    walk(doc, [], None)
    return found


@settings(max_examples=300, deadline=None)
@given(contract_argv())
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, drawn):
    # exit 0, 2, 3 or 64; a refusal prints nothing to stdout; nothing escapes main; no silent null
    argv, document = drawn
    if document is not None:
        path = tmp_path_factory.getbasetemp() / "contract-observable.json"
        path.write_text(document, encoding="utf-8")
        argv = [str(path) if a == OBSERVABLE_SLOT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 64), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv
        return
    if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        doc = json.loads(out.getvalue())
        assert _unexpected_nulls(argv[0], doc, float(argv[2])) == [], argv
