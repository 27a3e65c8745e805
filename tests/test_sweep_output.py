"""The columnar sweep path against the per-point reference.

Sweeps return their results as arrays (`scenarios.Sweep`), and the CLI
writes the CSV and the summary from those arrays.  `reference` keeps the
former per-point output, one `csv_row` per materialized ScenarioPoint;
the CSV bytes, stdout, stderr and exit code must match it exactly.
"""

import math

import numpy as np
import pytest

import reference
from helpers import BENCH_COMMANDS
from nhur import (
    Example1Config,
    Example2Config,
    Formalism,
    NotNormalizedError,
    ZeroVectorError,
    build_example1,
    evaluate_all,
    example2_sweep,
    sweep,
)
from nhur import cli, relations, scenarios
from nhur.relations import relation_batch
from nhur.scenarios import Sweep

PLAIN_EXAMPLE2 = ["example2", "--phase", "symmetric", "--formalism", "plain"]


def _run_cli(argv, out, capsys):
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    return out.read_bytes(), captured.out, captured.err, code


def _cli_and_reference(argv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    got = _run_cli(argv, out, capsys)
    monkeypatch.setattr(cli, "write_sweep_csv", reference.write_sweep_csv)
    monkeypatch.setattr(cli, "_summarize_sweep", reference.summarize_sweep)
    want = _run_cli(argv, out, capsys)
    return got, want


@pytest.mark.parametrize("points", ["181", "721"])
@pytest.mark.parametrize("argv", BENCH_COMMANDS,
                         ids=["example1", "symmetric-good", "broken-good",
                              "symmetric-gmetric", "near-ep"])
def test_benchmark_commands_match_per_point_output(argv, points, tmp_path,
                                                   capsys, monkeypatch):
    got, want = _cli_and_reference(argv + ["--points", points], tmp_path,
                                   capsys, monkeypatch)
    assert got == want
    csv, stdout, stderr, code = got
    assert code == 0 and stderr == ""
    assert csv.count(b"\n") == int(points) + 1


def test_plain_example2_fails_everywhere_like_per_point_output(
        tmp_path, capsys, monkeypatch):
    got, want = _cli_and_reference(PLAIN_EXAMPLE2 + ["--points", "181"],
                                   tmp_path, capsys, monkeypatch)
    assert got == want
    csv, stdout, stderr, code = got
    assert code == 2
    assert csv.decode("ascii") == cli.csv_header("alpha") + "\n"
    assert stderr.count("NotNormalizedError: ") == 181


def _write_and_summarize(writer, summarize, result, path, capsys, tol=1e-9):
    written = writer(str(path), "x", result)
    code = summarize(result, "x", tol)
    captured = capsys.readouterr()
    return written, path.read_bytes(), captured.out, captured.err, code


def _assert_matches_reference(result, tmp_path, capsys, tol=1e-9):
    path = tmp_path / "out.csv"
    got = _write_and_summarize(cli.write_sweep_csv, cli._summarize_sweep,
                               result, path, capsys, tol)
    want = _write_and_summarize(reference.write_sweep_csv,
                                reference.summarize_sweep, result, path,
                                capsys, tol)
    assert got == want
    return got


def _shaky_builder(value):
    a, b, psi, g = build_example1(Example1Config(theta0=value))
    if 0.5 < value < 1.5:
        psi = 2.0 * psi  # breaks normalization on purpose
    return a, b, psi, g


def test_generic_sweep_with_failures_matches_per_point_output(tmp_path, capsys):
    written, csv, stdout, stderr, code = _assert_matches_reference(
        sweep(_shaky_builder, (0.0, 2.0), 17), tmp_path, capsys)
    assert code == 2
    assert 0 < written < 17
    assert stderr.count("NotNormalizedError: ") == 17 - written


def _hand_built(tol, keep=slice(None)):
    """A Sweep with violations, NaN gaps (at the first point and further
    on), a tied minimum and a failed point (index 3), over the `keep`
    points of a five-point grid."""
    nan = np.nan
    param = np.linspace(-1.0, 1.0, 5)
    lhs = np.array([1.0, 2.0, 0.5, nan, 0.25])
    rhs = np.array([[nan, 2.5, 0.5, nan, 0.5],
                    [1.0, 1.0, nan, nan, 0.0],
                    [1.0, 2.0, 0.5, nan, 0.25],
                    [0.75, 2.0 + 1e-10, 0.0, nan, 0.5]])
    gap = lhs - rhs
    minus = np.array([[False, True, False, False, True],
                      [True, False, False, False, False]])
    degenerate = np.array([False, True, False, False, False])
    errors = np.array([None, None, None, NotNormalizedError("state norm^2 is 4"),
                       None], dtype=object)
    return Sweep(Formalism.GMETRIC, lhs[keep], rhs[:, keep], gap[:, keep],
                 (gap >= -tol)[:, keep], minus[:, keep], degenerate[keep],
                 tuple(errors[keep]), param=param[keep])


def test_hand_built_sweep_with_violations_matches_per_point_output(
        tmp_path, capsys):
    written, csv, stdout, stderr, code = _assert_matches_reference(
        _hand_built(1e-9), tmp_path, capsys)
    assert written == 4 and code == 2
    assert stdout.count("VIOLATION") == 5
    assert "ur1: min gap nan at x = -1" in stdout
    assert "error at x = 0.5: NotNormalizedError: state norm^2 is 4" in stderr
    # without the failed point the same violations give exit code 1
    written, csv, stdout, stderr, code = _assert_matches_reference(
        _hand_built(1e-9, [0, 1, 2, 4]), tmp_path, capsys)
    assert written == 4 and code == 1 and stderr == ""
    assert "5 inequality violations beyond tolerance 1e-09" in stdout


@pytest.mark.parametrize("seed", range(40))
def test_random_sweeps_match_per_point_output(seed, tmp_path, capsys):
    # gaps drawn from a few values, so rows hold ties (0.0 against -0.0
    # too), NaNs and infinities in every position; some points failed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-10, -1e-8, 0.5])
    gap = rng.choice(values, (4, n))
    lhs = rng.choice([0.0, 1.0, 2.5], n)
    failed = rng.random(n) < 0.25
    errors = tuple(NotNormalizedError(f"point {i}") if bad else None
                   for i, bad in enumerate(failed))
    result = Sweep(Formalism.GOOD, lhs, lhs - gap, gap, gap >= -1e-9,
                   rng.random((2, n)) < 0.5, rng.random(n) < 0.5, errors,
                   param=np.linspace(0.0, 1.0, n))
    _assert_matches_reference(result, tmp_path, capsys)


def test_cli_sweeps_build_no_per_point_records(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-point record was built")

    monkeypatch.setattr(relations, "_record", forbidden)
    for argv in BENCH_COMMANDS[:2]:
        out = tmp_path / "sweep.csv"
        assert cli.main(argv + ["--points", "181", "--out", str(out)]) == 0
        assert out.read_bytes().count(b"\n") == 182
    assert "all inequalities hold (181 points" in capsys.readouterr().out
    with pytest.raises(AssertionError):
        example2_sweep(Example2Config.symmetric_default(), points=5)[0]


def test_sweep_keeps_typed_errors():
    result = example2_sweep(Example2Config.symmetric_default(), points=9,
                            formalism=Formalism.PLAIN)
    assert all(isinstance(e, NotNormalizedError) for e in result.errors)
    for pt, exc in zip(result, result.errors):
        assert pt.error == f"NotNormalizedError: {exc}"
        assert pt.evaluations == ()
    mixed = sweep(_shaky_builder, (0.0, 2.0), 5)
    assert [type(e) for e in mixed.errors] == [
        type(None), type(None), NotNormalizedError, type(None), type(None)]
    assert mixed[2].error == f"NotNormalizedError: {mixed.errors[2]}"
    assert [pt.ok for pt in mixed] == [True, True, False, True, True]


def test_sweep_arrays_agree_with_its_points():
    result = sweep(_shaky_builder, (0.0, 2.0), 9)
    n = len(result)
    assert result.lhs.shape == (n,) and result.degenerate.shape == (n,)
    assert result.rhs.shape == result.gap.shape == result.holds.shape == (4, n)
    assert result.minus.shape == (2, n)
    for i, pt in enumerate(result):
        assert pt.param == result.param[i]
        if not pt.ok:
            assert math.isnan(result.lhs[i]) and not result.holds[:, i].any()
            continue
        assert [ev.lhs for ev in pt.evaluations] == [result.lhs[i]] * 4
        assert [ev.rhs for ev in pt.evaluations] == result.rhs[:, i].tolist()
        assert [ev.gap for ev in pt.evaluations] == result.gap[:, i].tolist()
        assert [ev.holds for ev in pt.evaluations] == result.holds[:, i].tolist()
        assert pt.evaluations[3].degenerate == result.degenerate[i]


def test_example2_sweep_with_no_usable_state(monkeypatch):
    # every superposition fails, so the kernel runs on zero points
    def failing(basis, weights, g):
        psi = weights @ basis
        return psi, [ZeroVectorError("superposition cancels")] * len(psi)

    monkeypatch.setattr(scenarios, "_superpose", failing)
    result = example2_sweep(Example2Config.symmetric_default(), points=5)
    assert all(isinstance(e, ZeroVectorError) for e in result.errors)
    assert np.isnan(result.gap).all() and not result.holds.any()
    assert [pt.error for pt in result] == ["ZeroVectorError: superposition cancels"] * 5


def test_columns_are_the_one_gap_and_holds_formula():
    # holds means gap >= -tol, the boundary included: a tol of minus each
    # computed gap holds there, and one a step past it fails there
    points = [build_example1(Example1Config(theta0=x)) for x in (0.3, 0.7, 2.0)]
    a, b, psi = (np.stack(arrays) for arrays in list(zip(*points))[:3])
    args = (a, b, psi, np.eye(2), Formalism.PLAIN)
    gap = relation_batch(*args, tol=0.0).gap
    assert (gap[2] == 0.0).all() and (gap[[0, 1, 3]] > 0.0).all()
    for x in gap.ravel().tolist():
        at = relation_batch(*args, tol=-x)
        past = relation_batch(*args, tol=-np.nextafter(x, np.inf))
        assert at.gap.tolist() == past.gap.tolist() == gap.tolist()
        assert at.holds.tolist() == (gap >= x).tolist()
        assert past.holds.tolist() == (gap > x).tolist()
    # the N = 1 records carry the same gap and holds
    for (a1, b1, psi1, g1), x in zip(points, gap[3].tolist()):
        evs = evaluate_all(a1, b1, psi1, g1, ur_tol=-x)
        at = relation_batch(a1, b1, psi1[None], np.eye(2), Formalism.PLAIN, tol=-x)
        assert [ev.gap for ev in evs] == at.gap[:, 0].tolist()
        assert [ev.holds for ev in evs] == at.holds[:, 0].tolist()
        assert evs[3].holds
