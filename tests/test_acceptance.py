"""One test per advertised guarantee, each printing a PASS/FAIL line.

These run the library end to end at the documented tolerances; the unit
suites elsewhere cover the fine-grained behavior.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    dirac_covariance,
    dirac_expect,
    dirac_variance,
    gb_closed,
    good_observable_for,
    gs_closed,
    metric_gb,
    metric_gs,
    random_operator,
    random_state,
)
from nhur import (
    DegenerateEigenstateError,
    Example2Config,
    Formalism,
    av_orthogonal_state,
    broken_eigensystem,
    evaluate_all,
    example1_sweep,
    example2_sweep,
    g_orthogonal_complement_2d,
    g_variance,
    identity_metric,
    is_good_observable,
    metric_from_right_eigenvectors,
    pt_hamiltonian,
    symmetric_eigensystem,
    ur3,
    ur4,
)

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


@pytest.fixture
def announce(capsys):
    def _announce(number, slug, problems):
        verdict = "FAIL" if problems else "PASS"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {slug}: {verdict}", flush=True)
        assert not problems, "\n".join(problems)

    return _announce


def test_criterion_1_example1_sweep(announce):
    problems = []
    start = time.perf_counter()
    result = example1_sweep(points=721)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"sweep took {elapsed:.3f}s, limit 1s")
    bad = np.count_nonzero(~result.ok)
    if bad:
        problems.append(f"{bad} points failed to evaluate")
    worst = result.gap[:, result.ok].min()
    if worst < -1e-9:
        problems.append(f"worst gap {worst:.3e} below -1e-9")
    for target in (math.pi / 4, 3 * math.pi / 4):
        nearest = np.argmin(np.abs(result.param - target))
        for relation, gap in zip(("ur1", "ur2", "ur3", "ur4"),
                                 result.gap[:, nearest].tolist()):
            if gap > 1e-6:
                problems.append(
                    f"{relation} gap {gap:.3e} at theta0={target:.6f} "
                    "exceeds 1e-6"
                )
    announce(1, "example1 sweep holds and pinches shut", problems)


def _sweep_criterion(cfg):
    problems = []
    start = time.perf_counter()
    result = example2_sweep(cfg, points=721, formalism=Formalism.GOOD)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"sweep took {elapsed:.3f}s, limit 1s")
    bad = np.count_nonzero(~result.ok)
    if bad:
        problems.append(f"{bad} points failed to evaluate")
    gap = result.gap[:, result.ok]
    worst = gap.min()
    if worst < -1e-9:
        problems.append(f"worst gap {worst:.3e} below -1e-9")
    slack = (gap[2] - gap[0]).max()
    if slack > 1e-12:
        problems.append(
            f"third bound is looser than the first by {slack:.3e} somewhere"
        )
    return problems


def test_criterion_2_symmetric_sweep(announce):
    problems = _sweep_criterion(Example2Config.symmetric_default())
    announce(2, "symmetric-phase sweep holds, third bound tightest", problems)


def test_criterion_3_broken_sweep(announce):
    problems = _sweep_criterion(Example2Config.broken_default())
    announce(3, "broken-phase sweep holds, third bound tightest", problems)


def test_criterion_4_metric_closed_forms(announce):
    problems = []
    cases = [
        (0.3, symmetric_eigensystem, gs_closed),
        (0.6, symmetric_eigensystem, gs_closed),
        (0.9, symmetric_eigensystem, gs_closed),
        (1.2, broken_eigensystem, gb_closed),
        (1.5, broken_eigensystem, gb_closed),
        (2.0, broken_eigensystem, gb_closed),
    ]
    for gamma, eigensystem, closed in cases:
        metric = metric_from_right_eigenvectors(
            eigensystem(gamma), hamiltonian=pt_hamiltonian(gamma)
        )
        dev = np.max(np.abs(metric.g - closed(gamma)))
        if dev > 1e-10:
            problems.append(f"gamma={gamma}: G deviates {dev:.3e} from closed form")
        rep = metric.validation
        if not (rep.hermitian and rep.positive_definite):
            problems.append(f"gamma={gamma}: metric failed validation")
        if gamma < 1.0 and rep.stationarity_residual > 1e-10:
            problems.append(
                f"gamma={gamma}: stationarity residual "
                f"{rep.stationarity_residual:.3e} exceeds 1e-10"
            )
    broken = metric_from_right_eigenvectors(
        broken_eigensystem(1.2), hamiltonian=pt_hamiltonian(1.2)
    )
    if broken.validation.stationarity_residual < 0.1:
        problems.append(
            "broken-phase metric unexpectedly commutes with H(1.2): residual "
            f"{broken.validation.stationarity_residual:.3e}"
        )
    announce(4, "eigenframe metric matches closed forms", problems)


def test_criterion_5_good_observable_table(announce):
    problems = []
    gs = metric_gs(0.9)
    gb = metric_gb(1.2)
    table = [
        ("H(0.9) under symmetric metric", pt_hamiltonian(0.9), gs, True),
        ("sigma_y under symmetric metric", SIGMA_Y, gs, True),
        ("H(1.2) under broken metric", pt_hamiltonian(1.2), gb, False),
        ("H(1/1.2) under broken metric", pt_hamiltonian(1.0 / 1.2), gb, True),
        ("sigma_y under broken metric", SIGMA_Y, gb, True),
    ]
    for label, op, metric, expected in table:
        check = is_good_observable(op, metric)
        if bool(check) != expected:
            problems.append(
                f"{label}: expected {expected}, got {bool(check)} "
                f"(residual {check.residual:.3e})"
            )
    announce(5, "good-observable truth table", problems)


def _randomized_metrics():
    return (identity_metric(2), metric_gs(0.9), metric_gb(1.2))


def test_criterion_6_randomized_invariants(announce, rng):
    problems = []
    metrics = _randomized_metrics()

    # (a) all four bounds hold on random problems
    worst = math.inf
    for trial in range(1000):
        metric = metrics[trial % 3]
        a, b = random_operator(rng), random_operator(rng)
        psi = random_state(rng, metric)
        for ev in evaluate_all(a, b, psi, metric, Formalism.GMETRIC):
            worst = min(worst, ev.gap)
    if worst < -1e-9:
        problems.append(f"(a) worst randomized gap {worst:.3e} below -1e-9")

    # (b) variance parallelogram identity
    dev_b = 0.0
    for trial in range(1000):
        metric = metrics[trial % 3]
        a, b = random_operator(rng), random_operator(rng)
        psi = random_state(rng, metric)
        lhs = 2 * g_variance(a, psi, metric) + 2 * g_variance(b, psi, metric)
        rhs = g_variance(a + b, psi, metric) + g_variance(a - b, psi, metric)
        dev_b = max(dev_b, abs(lhs - rhs))
    if dev_b > 1e-10:
        problems.append(f"(b) parallelogram deviation {dev_b:.3e} exceeds 1e-10")

    # (c) auxiliary-state reconstruction of X psi
    done, attempts, dev_c = 0, 0, 0.0
    while done < 1000 and attempts < 3000:
        attempts += 1
        metric = metrics[attempts % 3]
        x = random_operator(rng)
        psi = random_state(rng, metric)
        try:
            pair = av_orthogonal_state(x, psi, metric)
        except DegenerateEigenstateError:
            continue
        mean = complex(np.vdot(psi, metric.g @ (x @ psi)))
        sd = math.sqrt(g_variance(x, psi, metric))
        resid = float(np.linalg.norm(x @ psi - mean * psi - sd * pair.psi_perp))
        dev_c = max(dev_c, resid)
        done += 1
    if done < 1000:
        problems.append(f"(c) only {done} reconstruction trials completed")
    if dev_c > 1e-10:
        problems.append(f"(c) reconstruction residual {dev_c:.3e} exceeds 1e-10")

    # (d) overlap of the two auxiliary states never exceeds one
    done, attempts, worst_d = 0, 0, 0.0
    while done < 1000 and attempts < 3000:
        attempts += 1
        metric = metrics[attempts % 3]
        a, b = random_operator(rng), random_operator(rng)
        psi = random_state(rng, metric)
        try:
            pair = av_orthogonal_state(a + 1j * b, psi, metric)
        except DegenerateEigenstateError:
            continue
        perp = g_orthogonal_complement_2d(psi, metric)
        worst_d = max(
            worst_d, abs(complex(np.vdot(perp, metric.g @ pair.psi_perp)))
        )
        done += 1
    if done < 1000:
        problems.append(f"(d) only {done} overlap trials completed")
    if worst_d > 1.0 + 1e-12:
        problems.append(f"(d) overlap {worst_d:.15f} exceeds 1 + 1e-12")

    # (e) the two weighted formalisms agree on compatible pairs
    dev_e = 0.0
    for trial in range(1000):
        metric = metrics[trial % 3]
        a = good_observable_for(rng, metric)
        b = good_observable_for(rng, metric)
        psi = random_state(rng, metric)
        gm = evaluate_all(a, b, psi, metric, Formalism.GMETRIC)
        gd = evaluate_all(a, b, psi, metric, Formalism.GOOD)
        for x, y in zip(gm, gd):
            dev_e = max(dev_e, abs(x.rhs - y.rhs))
    if dev_e > 1e-9:
        problems.append(f"(e) formalism disagreement {dev_e:.3e} exceeds 1e-9")

    announce(6, "randomized invariants (1000 trials each)", problems)


def test_criterion_7_hermitian_limit(announce, rng):
    problems = []
    dev = 0.0
    robertson_slack = 0.0
    done, attempts = 0, 0
    metric = identity_metric(2)
    while done < 200 and attempts < 600:
        attempts += 1
        h1, h2 = random_operator(rng), random_operator(rng)
        a, b = h1 + h1.conj().T, h2 + h2.conj().T
        psi = random_state(rng, metric)
        va, vb = dirac_variance(a, psi), dirac_variance(b, psi)
        cov = dirac_covariance(a, b, psi)
        evs = evaluate_all(a, b, psi)
        lhs = va + vb
        dev = max(dev, abs(evs[0].lhs - lhs), abs(evs[0].rhs - 2 * cov.imag))
        dev = max(dev, abs(evs[1].rhs - 2 * cov.real))

        # third relation, both sign branches, against a direct transcription:
        # with the default auxiliary state each branch equals lhs in d = 2,
        # so the reported bound must match each one
        perp = g_orthogonal_complement_2d(psi, metric)
        direct3 = []
        for s in (1.0, -1.0):
            elem = complex(np.vdot(perp, (a + s * 1j * b) @ psi))
            direct3.append(s * 2 * cov.imag + abs(elem) ** 2)
        dev = max(dev, abs(evs[2].rhs - direct3[0]), abs(evs[2].rhs - direct3[1]))

        # fourth relation from an independently built auxiliary state
        direct4 = []
        degenerate = False
        for s in (1.0, -1.0):
            comb = a + s * b
            mean = dirac_expect(comb, psi)
            w = comb @ psi - mean * psi
            var = float(np.vdot(w, w).real)
            if var < 1e-12:
                degenerate = True
                break
            elem = complex(np.vdot(w / math.sqrt(var), comb @ psi))
            direct4.append(0.5 * abs(elem) ** 2)
        if degenerate:
            continue
        dev = max(dev, abs(evs[3].rhs - max(direct4)))

        prod = va * vb
        comm = abs(dirac_expect(a @ b - b @ a, psi)) ** 2 / 4.0
        robertson_slack = min(robertson_slack, prod - comm)
        done += 1
    if done < 200:
        problems.append(f"only {done} Hermitian-limit trials completed")
    if dev > 1e-12:
        problems.append(f"deviation {dev:.3e} from direct evaluation "
                        "exceeds 1e-12")
    if robertson_slack < -1e-12:
        problems.append(
            f"product bound violated by {-robertson_slack:.3e}"
        )
    announce(7, "plain formalism matches direct Hermitian evaluation", problems)


def test_criterion_8_eigenstate_auxiliary(announce, rng):
    problems = []
    worst_gap = 0.0
    worst_slack = math.inf
    done, attempts = 0, 0
    metric = identity_metric(2)
    while done < 100 and attempts < 300:
        attempts += 1
        # a random Hermitian B and one of its eigenstates
        h = random_operator(rng)
        vals, vecs = np.linalg.eigh(h + h.conj().T)
        b = (vecs * vals) @ vecs.conj().T
        psi = vecs[:, 0].astype(complex)
        h2 = random_operator(rng)
        a = h2 + h2.conj().T
        if g_variance(a, psi, metric) < 1e-6:
            continue
        pair = av_orthogonal_state(a, psi, metric)
        ev3 = ur3(a, b, psi, psi_perp=pair.psi_perp)
        worst_gap = max(worst_gap, abs(ev3.gap))
        ev4 = ur4(a, b, psi)
        half_var = 0.5 * g_variance(a, psi, metric)
        worst_slack = min(worst_slack, ev4.rhs - half_var)
        done += 1
    if done < 100:
        problems.append(f"only {done} eigenstate trials completed")
    if worst_gap > 1e-10:
        problems.append(f"third relation gap {worst_gap:.3e} exceeds 1e-10")
    if worst_slack < -1e-10:
        problems.append(
            f"fourth bound fell {-worst_slack:.3e} below half the variance"
        )
    announce(8, "eigenstate reduction saturates and dominates", problems)
