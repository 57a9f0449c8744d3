"""Runs every acceptance criterion and prints one pass/fail line per criterion."""

from pathlib import Path

import pytest

from cayley_qmc import acceptance, cli


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


def test_suite_is_complete(results):
    assert len(results) == 12


@pytest.mark.parametrize("index", range(len(acceptance.CRITERIA)))
def test_criterion(results, index):
    r = results[index]
    print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    assert r.passed, f"{r.name}: {r.detail}"


def test_verify_stdout_is_the_recorded_bytes(results, monkeypatch, capsys):
    # criteria 3, 11 and 12 run through the boundary solver: a moved digit in a detail shows here
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    assert cli.main(["verify"]) == 0
    recorded = Path(__file__).parent / "data" / "cli" / "verify.txt"
    assert capsys.readouterr().out.encode() == recorded.read_bytes()
