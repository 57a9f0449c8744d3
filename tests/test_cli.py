import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

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
