import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import BENCH_COMMANDS, dirac_covariance, dirac_variance, random_state
from nhur import (
    SIGMA_X,
    Example2Config,
    Formalism,
    build_example2,
    cli,
    evaluate_all,
    example1_sweep,
    g_complement_projection,
    identity_metric,
    metric_from_matrix,
)
from nhur.cli import (ProblemParseError, build_parser, csv_header, main,
                      parse_problem, problem_payload)

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
    pts = reference.points(example1_sweep(points=21))
    assert len(pts) == 21
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


def test_a_payload_omits_g_exactly_when_it_is_the_identity():
    psi = [1.0, 0.0]
    for g, kept in ((None, False), (identity_metric(2), False),
                    (metric_from_matrix(np.eye(2)), False),
                    (metric_from_matrix(np.diag([2.0, 3.0])), True)):
        assert ("G" in problem_payload(SIGMA_X, SIGMA_X, psi, g)) is kept


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


@pytest.mark.parametrize("dim", [True, 1.9, "2", 2.0])
def test_check_rejects_non_integer_dim(tmp_path, capsys, dim):
    # the operators have the size int(dim) gives, so only dim's type is wrong
    size = int(dim)
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    payload = problem_payload(a[:size, :size], b[:size, :size],
                              [1.0] + [0.0] * (size - 1), formalism="plain")
    payload["dim"] = dim
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: 'dim' must be an integer\n"


@pytest.mark.parametrize("payload, message", [
    ([{"dim": 2}], "problem file must be a JSON object"),
    ({"dim": 0}, "'dim' must be positive, got 0"),
    ({"dim": -3}, "'dim' must be positive, got -3"),
], ids=["array", "dim-0", "dim-negative"])
def test_check_rejects_a_non_object_or_a_dim_below_one(tmp_path, capsys, payload,
                                                      message):
    # both fail before any field is read
    with pytest.raises(ProblemParseError, match=f"^{message}$"):
        parse_problem(payload)
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


# a well-formed dim-2 problem in the row form; the parse tests replace fields
PROBLEM = {
    "dim": 2,
    "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
    "psi": [[1, 0], [0, 0]],
    "formalism": "plain",
}
BIG = 10 ** 400  # 401 digits, beyond double range


@pytest.mark.parametrize("field, value, message", [
    ("A", True, "expected [re, im] pairs, got True"),
    ("A", "1", "expected [re, im] pairs, got '1'"),
    ("psi", None, "expected [re, im] pairs, got None"),
    ("psi", [[1.5, True], [0, 0]], "expected [re, im] pairs, got True"),
    ("A", [[[0, 0], [1, 0]], [[1, 0]]], "expected [re, im] pairs, got [[1, 0]]"),
    ("A", [[[1, 0]], [[0, 0], [1, 0]]], "expected [re, im] pairs, got [[1, 0]]"),
    ("A", [[1, 2], 5], "expected [re, im] pairs, got 5"),
    ("psi", [[1, 0, 0], [0, 0, 0]], "expected [re, im] pairs, got [1, 0, 0]"),
    ("psi", [], "expected [re, im] pairs, got []"),
    ("psi", [[1, 0]], "expected 2 complex entries, got 1"),
    ("psi", [[1, 0], [BIG, 0]], f"non-finite entry [{BIG}, 0]"),
    ("G", [[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]], f"non-finite entry [{BIG}, 0]"),
], ids=["true", "string", "null", "bool-in-pair", "ragged-row", "ragged-first-row",
        "pair-and-number", "3-wide", "empty", "count", "big-int-psi", "big-int-G"])
def test_check_rejects_malformed_field(tmp_path, capsys, field, value, message):
    payload = dict(PROBLEM, **{field: value})
    with pytest.raises(ProblemParseError) as caught:
        parse_problem(payload)
    assert str(caught.value) == f"{field}: {message}"
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == f"error: {field}: {message}\n"


def test_check_rejects_a_literal_beyond_double_range(tmp_path, capsys):
    # json reads 1e400 as inf, a number the parser then finds non-finite
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(PROBLEM).replace('"psi": [[1, 0]',
                                               '"psi": [[1e400, 0]'),
                   encoding="ascii")
    assert main(["check", "--input", str(inp)]) == 2
    assert capsys.readouterr().err == "error: psi: non-finite entry [inf, 0]\n"


def test_check_cannot_read_a_file_nested_too_deep(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    inp.write_text('{"dim": 1, "A": ' + "[" * 100000 + "]" * 100000 + "}",
                   encoding="ascii")
    assert main(["check", "--input", str(inp)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {inp}: ")


def test_deep_nesting_and_a_bare_pair_still_parse():
    flat = parse_problem(dict(PROBLEM, A=[[0, 0], [1, 0], [1, 0], [0, 0]]))
    deep = parse_problem(dict(PROBLEM, A=[[[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]]))
    npt.assert_array_equal(deep["a"], flat["a"])
    assert deep["a"].shape == (2, 2)
    one = parse_problem({"dim": 1, "A": [2, 0], "B": [0, 1], "psi": [1, 0],
                         "formalism": "plain"})
    npt.assert_array_equal(one["a"], [[2]])
    npt.assert_array_equal(one["b"], [[1j]])
    npt.assert_array_equal(one["psi"], [1])


# every double, the extremes and the signed zero among them, survives JSON
DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_problem_file_round_trip_is_bit_identical(dim, rows, data):
    def draw(*shape):
        size = 2 * math.prod(shape)
        parts = data.draw(st.lists(DOUBLES, min_size=size, max_size=size))
        return np.array(parts).view(complex).reshape(shape)

    a, b, g = draw(dim, dim), draw(dim, dim), draw(dim, dim)
    psi, perp = draw(dim), draw(dim)
    payload = problem_payload(a, b, psi, None, "gmetric", perp)
    # the file carries any bits for G, which need not be a metric here
    payload["G"] = g.ravel().view(float).reshape(-1, 2).tolist()
    if rows:
        for key in ("A", "B", "G"):
            pairs = payload[key]
            payload[key] = [pairs[i:i + dim] for i in range(0, dim * dim, dim)]
    parsed = parse_problem(json.loads(json.dumps(payload)))
    for key, arr in (("a", a), ("b", b), ("g", g), ("psi", psi), ("psi_perp", perp)):
        assert parsed[key].shape == arr.shape
        assert parsed[key].tobytes() == arr.tobytes()


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_check_rescales_a_tiny_state(tmp_path, scale):
    # the norm^2 of a tiny state underflows; scaled first, it evaluates
    # as the unit state does
    reports = []
    for x in (1, scale):
        inp = tmp_path / "problem.json"
        rep = tmp_path / "report.json"
        _write_problem(inp, dict(PROBLEM, psi=[[x, 0], [0, 0]]))
        assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
        reports.append(json.loads(rep.read_text())["evaluations"])
    for unit, tiny in zip(*reports):
        for key in ("lhs", "rhs", "gap"):
            npt.assert_allclose(tiny[key], unit[key], rtol=1e-15, atol=1e-15)
        assert tiny["holds"] == unit["holds"]


def test_check_rejects_unknown_formalism(tmp_path, capsys):
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    payload = problem_payload(a, b, psi, g, "sideways")
    inp = tmp_path / "problem.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp)]) == 2


# a problem whose metric G is not positive definite
BAD_METRIC = {
    "dim": 2,
    "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
    "psi": [[1, 0], [0, 0]],
    "G": [[[1, 0], [0, 0]], [[0, 0], [-2, 0]]],
    "formalism": "gmetric",
}


def test_check_flags_bad_metric_in_report(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, BAD_METRIC)
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 2
    report = json.loads(rep.read_text())
    assert report["metric"]["positive_definite"] is False
    assert report["error"] == "metric failed validation"
    assert "evaluations" not in report


def test_check_reports_evaluation_failure(tmp_path, capsys):
    # sigma_x is no good observable for this metric: the metric passes and
    # the evaluation fails
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, problem_payload(SIGMA_X, b, psi, g, "good"))
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 2
    err = capsys.readouterr().err
    report = json.loads(rep.read_text())
    assert report["metric"]["positive_definite"] is True
    assert report["good_observable"]["A"]["is_good"] is False
    assert report["good_observable"]["B"]["is_good"] is True
    assert report["error"].startswith("NotGoodObservableError: ")
    assert err == f"error: {report['error'].split(': ', 1)[1]}\n"
    assert "evaluations" not in report and "all_hold" not in report


def test_check_failure_outlives_an_unwritable_report(tmp_path, capsys):
    # the metric fails in the first file and the evaluation in the second;
    # --out names a missing directory, and stderr still opens with the cause
    a, b, psi, g = build_example2(Example2Config.symmetric_default())
    not_good = problem_payload(SIGMA_X, b, psi, g, "good")
    rep = tmp_path / "missing" / "report.json"
    causes = ["error: metric failed validation (hermitian=true, "
              "positive_definite=false)",
              "error: good-observable formalism requires both operators"]
    for payload, cause in zip([BAD_METRIC, not_good], causes):
        inp = tmp_path / "problem.json"
        _write_problem(inp, payload)
        assert main(["check", "--input", str(inp), "--out", str(rep)]) == 2
        first, second = capsys.readouterr().err.splitlines()
        assert first.startswith(cause)
        assert second.startswith("error: [Errno 2] No such file or directory")
        assert not rep.exists()


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


def test_check_rescales_a_state_whose_metric_image_overflows(tmp_path, capsys):
    # G psi overflows before the power-of-two rescale: that fails the
    # normalization check, and the rescaled state evaluates as [1, 1] does
    reports = []
    for x in (1, 1.7e308):
        inp = tmp_path / "problem.json"
        rep = tmp_path / "report.json"
        _write_problem(inp, dict(PROBLEM, psi=[[x, 0], [x, 0]], formalism="gmetric",
                                 G=[[[3, 0], [1, 0]], [[1, 0], [2, 0]]]))
        assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
        assert capsys.readouterr().err == ""
        reports.append(json.loads(rep.read_text())["evaluations"])
    for unit, huge in zip(*reports):
        for key in ("lhs", "rhs", "gap"):
            npt.assert_allclose(huge[key], unit[key], rtol=1e-14, atol=1e-15)
        assert huge["holds"] == unit["holds"]


def test_check_of_an_overflowing_dim1_problem_is_typed(tmp_path, capsys):
    # |psi| is about 1.6e50 and |G psi| about 6e-51: the rounding limit of a
    # rule once formed sqrt(<u|u>) = inf for one vector and 0 for the other,
    # inf * 0 = NaN, with a RuntimeWarning (the suite makes it an error)
    inp = tmp_path / "problem.json"
    _write_problem(inp, {
        "dim": 1, "A": [[1.2798426751285566e+147, -6.1896815745332105e+146]],
        "B": [[8.322333040231803e+157, 1.530295715967934e+158]],
        "psi": [[-1.4618357082303964e+50, 6.990489924873795e+49]],
        "formalism": "gmetric", "G": [[3.808605200420965e-101, 0.0]]})
    rep = tmp_path / "report.json"
    code = main(["check", "--input", str(inp), "--out", str(rep)])
    assert code in (0, 2)
    assert (capsys.readouterr().err == "") == (code == 0)
    report = json.loads(rep.read_text())
    assert "evaluations" in report if code == 0 else report["error"].split(":")[0] in {
        "NotNormalizedError", "NonFiniteError"}


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


@pytest.mark.parametrize("formalism", [Formalism.PLAIN, Formalism.GMETRIC])
def test_check_rescales_in_the_metric_of_the_statistics(formalism, tmp_path, rng):
    # G is the identity for plain statistics; psi and psi_perp arrive
    # scaled off 1 by 2 and 3, and both are rescaled
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    metric = metric_from_matrix(m @ m.conj().T + np.eye(3))
    stats = np.eye(3) if formalism is Formalism.PLAIN else metric.g
    stats_metric = metric_from_matrix(stats)
    psi = random_state(rng, stats_metric)
    perp = g_complement_projection(rng.normal(size=3), psi, stats_metric)
    a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in "ab")
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, problem_payload(a, b, 2.0 * psi, metric, formalism.value,
                                        3.0 * perp))
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 0
    direct = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
    for rec, ev in zip(json.loads(rep.read_text())["evaluations"], direct):
        npt.assert_allclose([rec["lhs"], rec["rhs"]], [ev.lhs, ev.rhs], rtol=1e-13)
        npt.assert_allclose(rec["gap"], ev.gap, rtol=1e-13, atol=1e-13 * ev.lhs)


@pytest.mark.parametrize("formalism", ["plain", "gmetric"])
def test_check_zero_state_fails_typed(formalism, tmp_path, capsys):
    # a well-formed file whose state has no direction to rescale
    payload = {
        "dim": 2,
        "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "B": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        "psi": [[0, 0], [0, 0]],
        "G": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]],
        "formalism": formalism,
    }
    inp = tmp_path / "problem.json"
    rep = tmp_path / "report.json"
    _write_problem(inp, payload)
    assert main(["check", "--input", str(inp), "--out", str(rep)]) == 2
    report = json.loads(rep.read_text())
    assert report["error"] == "ZeroVectorError: psi cancels to the zero vector"
    assert capsys.readouterr().err == "error: psi cancels to the zero vector\n"
    assert "evaluations" not in report


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


def test_metric_at_gamma_zero_skips_the_inverse_hamiltonian(capsys):
    # H(1/gamma) has no value at gamma = 0, and G is the identity there (to
    # rounding), so every operator left in the table is good
    rc = main(["metric", "--gamma", "0"])
    assert rc == 0
    table = _good_observable_table(capsys.readouterr().out)
    assert table == {name: "true" for name in ("H(gamma)", "sigma_x", "sigma_y", "sigma_z")}


def test_metric_skips_the_inverse_hamiltonian_where_1_over_gamma_overflows(capsys):
    # below |gamma| of about 5.6e-309, 1/gamma is inf, so H(1/gamma) has no
    # value, as at 0; every other line is printed and the command succeeds
    rc = main(["metric", "--gamma", "1e-310"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("phase: symmetric, gamma = 1e-310\nG =\n")
    assert "stationarity residual |GH - H^dag G|_F vs H(gamma): 0\n" in out
    assert "H(1/gamma)" not in out
    table = _good_observable_table(out)
    assert table == {name: "true" for name in ("H(gamma)", "sigma_x", "sigma_y", "sigma_z")}


def test_metric_takes_its_phase_from_gamma(capsys):
    # gamma alone decides the phase, so there is no --phase to disagree with it
    with pytest.raises(SystemExit) as exc:
        main(["metric", "--gamma", "0.9", "--phase", "symmetric"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --phase symmetric" in capsys.readouterr().err


def test_console_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nhur.cli", "metric", "--gamma", "0.6"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "positive definite: true" in proc.stdout


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _outcome(argv, out, capsys):
    """Exit code (or SystemExit code), stdout, stderr and output bytes."""
    out.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch,
                                            fresh_parser_cache):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    a, b, psi, g = build_example2(Example2Config.broken_default(alpha=0.5))
    inp = tmp_path / "problem.json"
    _write_problem(inp, problem_payload(a, b, psi, g, "good"))
    out = tmp_path / "out"
    commands = [argv + ["--points", "181", "--out", str(out)]
                for argv in BENCH_COMMANDS]
    commands += [
        ["check", "--input", str(inp), "--out", str(out)],
        ["metric", "--gamma", "0.9"],
        ["example2", "--phase", "sideways", "--out", str(out)],
        ["example2", "--phase", "symmetric", "--points", "1", "--out", str(out)],
    ]
    first = [_outcome(argv, out, capsys) for argv in commands]
    second = [_outcome(argv, out, capsys) for argv in commands]
    assert built == [1]
    assert second == first
    assert [code for code, *_ in first] == [0] * 7 + [("SystemExit", 2), 2]
    assert all(csv is not None for *_, csv in first[:6])
    assert "invalid choice: 'sideways'" in first[7][2]
    assert first[8][2] == "error: --points must be at least 2\n"


def test_build_parser_returns_a_new_parser(fresh_parser_cache):
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
