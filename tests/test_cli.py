import json
import math
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from helpers import dirac_covariance, dirac_variance, random_state
from nhur import (
    Example1Config,
    Example2Config,
    Formalism,
    build_example2,
    evaluate_all,
    example1_sweep,
    identity_metric,
)
from nhur.cli import csv_header, main, problem_payload

EXPECTED_HEADER = (
    "theta0,"
    "ur1_lhs,ur1_rhs,ur1_gap,ur1_holds,"
    "ur2_lhs,ur2_rhs,ur2_gap,ur2_holds,"
    "ur3_lhs,ur3_rhs,ur3_gap,ur3_holds,ur3_branch,"
    "ur4_lhs,ur4_rhs,ur4_gap,ur4_holds,ur4_branch,ur4_degenerate"
)


def test_header_layout():
    assert csv_header("theta0") == EXPECTED_HEADER


def test_example1_csv_contract(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    rc = main(["example1", "--points", "21", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 22
    assert "all inequalities hold" in capsys.readouterr().out

    # numeric cells reproduce the library values bit for bit
    pts = example1_sweep(points=21)
    for line, pt in zip(lines[1:], pts):
        cells = line.split(",")
        assert float(cells[0]) == pt.param
        e1, e2, e3, e4 = pt.evaluations
        assert [float(cells[i]) for i in (1, 2, 3)] == [e1.lhs, e1.rhs, e1.gap]
        assert cells[4] == ("true" if e1.holds else "false")
        assert [float(cells[i]) for i in (5, 6, 7)] == [e2.lhs, e2.rhs, e2.gap]
        assert [float(cells[i]) for i in (9, 10, 11)] == [e3.lhs, e3.rhs, e3.gap]
        assert cells[13] == e3.sign_branch
        assert [float(cells[i]) for i in (14, 15, 16)] == [e4.lhs, e4.rhs, e4.gap]
        assert cells[18] == e4.sign_branch
        assert cells[19] == ("true" if e4.degenerate else "false")


def test_example2_symmetric_defaults(tmp_path, capsys):
    out = tmp_path / "ex2.csv"
    rc = main(["example2", "--phase", "symmetric", "--points", "31",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="ascii")
    assert text.splitlines()[0].startswith("alpha,")
    assert len(text.splitlines()) == 32
    assert "all inequalities hold" in capsys.readouterr().out


def test_example2_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["example2", "--phase", "broken", "--points", "31",
                 "--out", str(a)]) == 0
    assert main(["example2", "--phase", "broken", "--points", "31",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["example2", "--phase", "broken", "--gamma", "0.9", "--out", "x.csv"],
        ["example2", "--phase", "symmetric", "--gamma", "1.0", "--out", "x.csv"],
        ["example1", "--points", "1", "--out", "x.csv"],
        ["check", "--input", "no-such-file.json"],
        ["metric", "--gamma", "1.0"],
        ["example2", "--phase", "symmetric", "--points", "1", "--out", "x.csv"],
    ],
)
def test_failure_paths_exit_two(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err != ""


def test_out_path_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["example1", "--points", "5", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_raises_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _write_problem(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)


def test_check_reproduces_library_evaluations(tmp_path):
    a, b, psi, g = build_example2(Example2Config.symmetric_default(alpha=1.0))
    payload = problem_payload(a, b, psi, g, "good")
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, payload)
    rc = main(["check", "--input", str(inp), "--out", str(rep)])
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["dim"] == 2
    assert report["formalism"] == "good"
    assert report["all_hold"] is True
    assert report["metric"]["provenance"] == "explicit"
    assert report["good_observable"]["A"]["is_good"] is True
    assert report["good_observable"]["B"]["is_good"] is True
    direct = evaluate_all(a, b, psi, g, Formalism.GOOD)
    assert [r["relation"] for r in report["evaluations"]] == [
        "ur1", "ur2", "ur3", "ur4"]
    for rec, ev in zip(report["evaluations"], direct):
        assert rec["lhs"] == ev.lhs
        assert rec["rhs"] == ev.rhs
        assert rec["gap"] == ev.gap
        assert rec["sign_branch"] == ev.sign_branch


def test_check_flat_and_nested_matrix_forms_agree(tmp_path):
    a, b, psi, g = build_example2(Example2Config.broken_default())
    flat = problem_payload(a, b, psi, g, "gmetric")  # flat pair lists
    nested = json.loads(json.dumps(flat))
    for key in ("A", "B", "G"):
        pairs = nested[key]
        nested[key] = [pairs[i:i + 2] for i in range(0, len(pairs), 2)]
    p_nested = tmp_path / "n.json"
    p_flat = tmp_path / "f.json"
    r_nested = tmp_path / "n_rep.json"
    r_flat = tmp_path / "f_rep.json"
    _write_problem(p_nested, nested)
    _write_problem(p_flat, flat)
    assert main(["check", "--input", str(p_nested), "--out", str(r_nested)]) == 0
    assert main(["check", "--input", str(p_flat), "--out", str(r_flat)]) == 0
    assert r_nested.read_bytes() == r_flat.read_bytes()


@pytest.mark.parametrize("drop", ["dim", "A", "B", "psi", "formalism"])
def test_check_rejects_missing_fields(tmp_path, capsys, drop):
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    payload = problem_payload(a, b, psi, g, "gmetric")
    del payload[drop]
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_infinity_token(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    inp.write_text(
        '{"dim": 2, "A": [Infinity, 0, 0, 0, 0, 0, 0, 0], '
        '"B": [0, 0, 0, 0, 0, 0, 0, 0], "psi": [1, 0, 0, 0], '
        '"formalism": "plain"}',
        encoding="ascii",
    )
    assert main(["check", "--input", str(inp)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_rejects_unknown_formalism(tmp_path, capsys):
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    payload = problem_payload(a, b, psi, g, "sideways")
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2


def test_check_flags_bad_metric_in_report(tmp_path, capsys):
    payload = {
        "dim": 2,
        "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        "psi": [[1, 0], [0, 0]],
        "G": [[[1, 0], [0, 0]], [[0, 0], [-2, 0]]],
        "formalism": "gmetric",
    }
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 2
    report = json.loads(rep.read_text())
    assert report["metric"]["positive_definite"] is False
    assert report["error"] == "metric failed validation"
    assert "evaluations" not in report


def test_check_rejects_non_orthogonal_override(tmp_path, capsys):
    r = 1.0 / math.sqrt(2.0)
    payload = {
        "dim": 2,
        "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        "psi": [[1, 0], [0, 0]],
        "psi_perp": [[r, 0], [r, 0]],
        "formalism": "plain",
    }
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2
    assert "overlap" in capsys.readouterr().err.lower()


def test_check_accepts_orthogonal_override(tmp_path):
    base = {
        "dim": 2,
        "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        "psi": [[1, 0], [0, 0]],
        "formalism": "plain",
    }
    override = dict(base, psi_perp=[[0, 0], [1, 0]])
    reports = []
    for i, payload in enumerate((base, override)):
        inp = tmp_path / f"p{i}.json"
        rep = tmp_path / f"r{i}.json"
        _write_problem(inp, payload)
        assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    # in two dimensions the default complement is the same state, so the
    # bound is unchanged
    ur3 = [r["evaluations"][2] for r in reports]
    npt.assert_allclose(ur3[0]["rhs"], ur3[1]["rhs"], atol=1e-12)


def test_check_rescales_off_normalization_state(tmp_path):
    payload = {
        "dim": 2,
        "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        "psi": [[2, 0], [0, 0]],
        "formalism": "plain",
    }
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    ur1 = report["evaluations"][0]
    npt.assert_allclose(ur1["lhs"], 2.0, atol=1e-14)
    npt.assert_allclose(ur1["rhs"], 2.0, atol=1e-14)


def test_check_hermitian_pair_matches_plain_statistics(tmp_path, rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = h + h.conj().T
    k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = k + k.conj().T
    psi = random_state(rng, identity_metric(2))
    payload = problem_payload(a, b, psi, formalism="plain")
    assert "G" not in payload
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["metric"]["provenance"] == "identity"
    lhs = dirac_variance(a, psi) + dirac_variance(b, psi)
    cov = dirac_covariance(a, b, psi)
    ur1, ur2 = report["evaluations"][:2]
    npt.assert_allclose(ur1["lhs"], lhs, atol=1e-12)
    npt.assert_allclose(ur1["rhs"], 2 * cov.imag, atol=1e-12)
    npt.assert_allclose(ur2["rhs"], 2 * cov.real, atol=1e-12)


def _good_observable_table(out: str) -> dict:
    table = {}
    for line in out.splitlines():
        if "residual=" in line and "->" in line:
            table[line.split()[0]] = line.rsplit("-> ", 1)[1].strip()
    return table


def test_metric_symmetric_diagnostics(capsys):
    rc = main(["metric", "--gamma", "0.9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hermitian: true" in out
    assert "positive definite: true" in out
    table = _good_observable_table(out)
    assert table["H(gamma)"] == "true"
    assert table["H(1/gamma)"] == "false"
    assert table["sigma_y"] == "true"
    assert table["sigma_x"] == "false"


def test_metric_broken_diagnostics(capsys):
    rc = main(["metric", "--gamma", "1.2"])
    assert rc == 0
    out = capsys.readouterr().out
    table = _good_observable_table(out)
    assert table["H(gamma)"] == "false"
    assert table["H(1/gamma)"] == "true"
    assert table["sigma_y"] == "true"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nhur.cli", "metric", "--gamma", "0.6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "positive definite: true" in proc.stdout
