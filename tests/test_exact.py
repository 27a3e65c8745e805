"""The kernel against exact rational arithmetic (`exact.py`).

Each value the kernel reports is within 1e-12 S of its exact value, S =
|A psi|_G^2 + |B psi|_G^2, over seeded problems in every formalism and a
slice of the wide-range recipe, and no verdict is false: the exact
lhs - rhs is never negative (for ur3 on psi_perp's ray, the paper's bound
for its unit vector), and every verdict holds.  Every draw of the recipe
is a valid problem and evaluates.  The paper's two scenarios, at
parameters where their inputs are rational, lie within a small multiple
of eps S (example 1) or eps cond(G) S (example 2) of their exact values,
and every exact margin is >= 0; the PT model's Pythagorean frames reach
to |gamma^2 - 1| of about 1e-8.  The broken-phase metric at dyadic gamma,
where it is rational, lies within a few eps of its exact value however
large gamma is.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from exact import exact_values
from helpers import good_observable_for, random_operator, random_state, recipe_problem
from nhur import (BROKEN, SYMMETRIC, Example1Config, Example2Config, Formalism,
                  broken_eigensystem, build_example1, build_example2, evaluate_all,
                  identity_metric, metric_from_matrix, metric_from_right_eigenvectors)

EPS = np.finfo(float).eps

FORMALISMS = (Formalism.PLAIN, Formalism.GMETRIC, Formalism.GOOD)


def seeded_problems():
    """(a, b, psi, metric, formalism, psi_perp) in each formalism at d = 2..4,
    with and without an explicit psi_perp, G of cond up to about 1e3."""
    rng = np.random.default_rng(13)
    for formalism in FORMALISMS:
        for dim in (2, 3, 4):
            for with_perp in (False, True):
                for _ in range(3):
                    m = random_operator(rng, dim)
                    h = m @ m.conj().T
                    metric = metric_from_matrix(h + 1e-3 * np.linalg.norm(h, 2) * np.eye(dim))
                    if formalism is Formalism.GOOD:
                        a, b = (good_observable_for(rng, metric) for _ in "ab")
                    else:
                        a, b = (random_operator(rng, dim) for _ in "ab")
                    stats = identity_metric(dim) if formalism is Formalism.PLAIN else metric
                    psi, perp = random_state(rng, stats), None
                    if with_perp:
                        v = random_state(rng, stats)
                        v = v - complex(np.vdot(psi, stats.g @ v)) * psi
                        perp = v / math.sqrt(complex(np.vdot(v, stats.g @ v)).real)
                    yield a, b, psi, metric, formalism, perp


def recipe_slice(count):
    rng = np.random.default_rng(20)
    for _ in range(count):
        a, b, psi, g = recipe_problem(rng)
        yield a, b, psi, metric_from_matrix(g), Formalism.GMETRIC, None


CASES = {"seeded": lambda: seeded_problems(), "recipe": lambda: recipe_slice(150)}


@pytest.mark.parametrize("case", CASES)
def test_kernel_is_within_rounding_of_exact(case):
    worst = 0.0
    for a, b, psi, metric, formalism, perp in CASES[case]():
        evs = evaluate_all(a, b, psi, metric, formalism, psi_perp=perp)
        g = identity_metric(len(psi)).g if formalism is Formalism.PLAIN else metric.g
        want = exact_values(a, b, psi, g, perp)
        got = [evs[0].lhs] + [ev.rhs for ev in evs] + [ev.gap for ev in evs]
        exact = [want["lhs"], *want["rhs"], *want["gap"]]
        scale = float(want["S"])
        error = max(abs(x - float(y)) for x, y in zip(got, exact)) / scale
        worst = max(worst, error)
        # every relation holds exactly, ur3 on psi_perp's ray as the kernel
        # takes it, so a false verdict is a kernel fault
        assert all(want["lhs"] - r >= 0 for r in want["rhs"])
        assert all(ev.holds for ev in evs)
    assert worst <= 1e-12, worst


def test_exact_oracle_agrees_with_hand_values():
    # A = sigma_x, B = sigma_z, psi = e0 under the identity: Var(A) = 1,
    # Var(B) = 0, Cov = 0, Var(A +- B) = 1, Var(A + iB) = 1; with perp = e1,
    # e = <e1|(A +- iB)|e0> = 1 in both branches, so ur3's rhs is 1
    sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    e0, e1 = np.array([1, 0]), np.array([0, 1])
    got = exact_values(sx, sz, e0, np.eye(2), e1)
    assert (got["lhs"], got["rhs"], got["gap"], got["e2"], got["S"]) == (
        1, [0, 0, 1, 0.5], [1, 1, 0, 0.5], 1, 2)
    # psi_perp at twice its norm: |e|^2 grows fourfold, and the bound on
    # its ray, |e|^2 / <perp|perp>, does not
    got = exact_values(sx, sz, e0, np.eye(2), 2 * e1)
    assert (got["e2"], got["rhs"][2], got["gap"][2]) == (4, 1, 0)


def test_the_recipe_evaluates():
    # 500 draws spanning 24 decades of operator scale and cond(G) to 1e9:
    # each is a valid problem, so none may raise
    rng = np.random.default_rng(20)
    for _ in range(500):
        a, b, psi, g = recipe_problem(rng)
        evs = evaluate_all(a, b, psi, metric_from_matrix(g), Formalism.GMETRIC)
        assert all(ev.holds for ev in evs)


def _q(re, im=0):
    """re + i im as `exact.py`'s (re, im) pair of Fractions."""
    return Fraction(re), Fraction(im)


# The PT model at Pythagorean gamma, where cos theta (symmetric) or lambda
# (broken) is rational, seen in its right frame R: G = L^dag L, so R^dag G R
# is the identity, an operator X becomes L X R and a state R w has G-norm
# |w|.  (gamma, phase, L A R, L sigma_y R)
PT_FRAMES = {
    "symmetric-0.6": (0.6, SYMMETRIC,  # cos theta = 4/5, A = H(gamma)
                      [[_q("4/5"), _q(0)], [_q(0), _q("-4/5")]],
                      [[_q(0), _q(-1)], [_q(-1), _q(0)]]),
    "broken-1.25": (1.25, BROKEN,  # lambda = 3/4, A = H(1/gamma)
                    [[_q(0), _q("3/5")], [_q("3/5"), _q(0)]],
                    [[_q(0), _q(0, -1)], [_q(0, 1), _q(0)]]),
}
# p with |w| = |(1, p e^{i alpha})| rational, and s for e^{i alpha} =
# (1 - s^2 + 2is) / (1 + s^2), that is alpha = 2 atan s
P_NORMS = {Fraction(3, 4): Fraction(5, 4), Fraction(4, 3): Fraction(5, 3)}
S_GRID = tuple(Fraction(s) for s in ("0", "1/3", "1/2", "1", "2", "-3"))


def pt_frame(t, phase):
    """(gamma, L A R, L sigma_y R) of the PT model at a rational t in (0, 1):
    gamma = 2t/(1 + t^2) = sin theta (symmetric) or (1 + t^2)/(2t)
    (broken), so that r = (1 - t^2)/(1 + t^2), cos theta or lambda/gamma, is
    rational too.  L A R is diag(r, -r) for A = H(gamma), or r sigma_x for
    A = H(1/gamma), and L sigma_y R is -sigma_x or sigma_y."""
    r = (1 - t * t) / (1 + t * t)
    if phase == SYMMETRIC:
        return (2 * t / (1 + t * t), [[_q(r), _q(0)], [_q(0), _q(-r)]],
                [[_q(0), _q(-1)], [_q(-1), _q(0)]])
    return ((1 + t * t) / (2 * t), [[_q(0), _q(r)], [_q(r), _q(0)]],
            [[_q(0), _q(0, -1)], [_q(0, 1), _q(0)]])


def test_the_general_pt_frames_match_the_hand_frames():
    for t, frame in ((Fraction(1, 3), "symmetric-0.6"), (Fraction(1, 2), "broken-1.25")):
        gamma, phase, lar, lbr = PT_FRAMES[frame]
        exact_gamma, *ops = pt_frame(t, phase)
        assert float(exact_gamma) == gamma and ops == [lar, lbr]


def pt_worst(gamma, phase, lar, lbr) -> float:
    """The largest error, in units of eps cond(G) S, of the PT scenario at
    gamma over the P_NORMS x S_GRID states in the good and gmetric
    formalisms, against its exact values in the right frame; asserts that
    every exact margin is >= 0 and that every verdict holds."""
    identity = [[_q(1), _q(0)], [_q(0), _q(1)]]
    worst = 0.0
    for (p, norm), s in itertools.product(P_NORMS.items(), S_GRID):
        assert norm * norm == 1 + p * p
        turn = ((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))  # e^{i alpha}
        # psi = R w/|w| with w = (1, p e^{i alpha}), as build_example2 makes it
        unit_w = [_q(1 / norm), _q(p * turn[0] / norm, p * turn[1] / norm)]
        want = exact_values(lar, lbr, unit_w, identity)
        assert all(want["lhs"] - r >= 0 for r in want["rhs"])
        exact = [want["lhs"], *want["rhs"], *want["gap"]]
        cfg = Example2Config(float(gamma), float(p), alpha=2 * math.atan(s), phase=phase)
        for formalism in (Formalism.GOOD, Formalism.GMETRIC):
            a, b, psi, metric = build_example2(cfg, formalism)
            evs = evaluate_all(a, b, psi, metric, formalism)
            got = [evs[0].lhs] + [ev.rhs for ev in evs] + [ev.gap for ev in evs]
            scale = EPS * np.linalg.cond(metric.g) * float(want["S"])
            worst = max(worst, max(abs(x - float(y)) for x, y in zip(got, exact)) / scale)
            assert all(ev.holds for ev in evs)
    return worst


@pytest.mark.parametrize("frame", PT_FRAMES)
def test_the_pt_scenario_is_within_conditioning_of_exact(frame):
    # build_example2's eigenframe, metric and state carry an error of
    # order eps cond(G), which `test_kernel_is_within_rounding_of_exact`
    # does not see; against the scenario's exact values every value lies
    # within a small multiple of it, and the paper's four inequalities
    # hold with every exact margin >= 0
    worst = pt_worst(*PT_FRAMES[frame])
    assert worst <= 8.0, worst


@pytest.mark.parametrize("phase", [SYMMETRIC, BROKEN])
@pytest.mark.parametrize("m", [10, 100, 1000, 10000])
def test_the_pt_scenario_near_the_exceptional_point_is_within_conditioning_of_exact(
        phase, m):
    # t = 1 - 1/m puts gamma at |gamma^2 - 1| of about 1/m^2 from the
    # exceptional point, down to about 1e-8 with cond(G) about 4e8; the
    # rounding of the statistics under G, of order eps cond(G), sets the
    # error, which stays a fixed fraction of eps cond(G) S (at most 0.21
    # measured)
    gamma, lar, lbr = pt_frame(1 - Fraction(1, m), phase)
    worst = pt_worst(gamma, phase, lar, lbr)
    assert worst <= 0.4, worst


# Example 1 at its default angles, with c = cos 2 theta0 and s2 = sin 2 theta0:
# A = [[s2/2, c/2], [c, -s2]], B = [[0, 0], [c, -s2]] and psi = (c, s2)
# under G = I, rational at c = (1 - s^2)/(1 + s^2), s2 = 2s/(1 + s^2)
EXAMPLE1_S = S_GRID + tuple(Fraction(s) for s in ("3/4", "-1/7", "5/12"))


def test_example1_is_within_rounding_of_exact():
    # build_example1 forms its entries from cos and sin of theta0, so each
    # value lies within a small multiple of eps S of the exact one, and the
    # paper's four inequalities hold with every exact margin >= 0
    identity = [[_q(1), _q(0)], [_q(0), _q(1)]]
    worst = 0.0
    for s in EXAMPLE1_S:
        c, s2 = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
        a = [[_q(s2 / 2), _q(c / 2)], [_q(c), _q(-s2)]]
        b = [[_q(0), _q(0)], [_q(c), _q(-s2)]]
        want = exact_values(a, b, [_q(c), _q(s2)], identity)
        assert all(want["lhs"] - r >= 0 for r in want["rhs"])
        exact = [want["lhs"], *want["rhs"], *want["gap"]]
        theta0 = math.atan2(float(s2), float(c)) / 2
        evs = evaluate_all(*build_example1(Example1Config(theta0=theta0)))
        got = [evs[0].lhs] + [ev.rhs for ev in evs] + [ev.gap for ev in evs]
        scale = EPS * float(want["S"])
        worst = max(worst, max(abs(x - float(y)) for x, y in zip(got, exact)) / scale)
        assert all(ev.holds for ev in evs)
    assert worst <= 16.0, worst


@pytest.mark.parametrize("k", range(1, 27))
def test_the_broken_metric_is_within_rounding_of_exact(k):
    # gamma = (4^k + 1)/2^(k+1) and lambda = (4^k - 1)/2^(k+1) are both
    # doubles, so G = [[gamma, -i], [i, gamma]]/lambda is rational; the
    # closed form cancels nowhere, so no entry drifts as gamma grows
    gamma, lam = Fraction(4**k + 1, 2 ** (k + 1)), Fraction(4**k - 1, 2 ** (k + 1))
    assert float(gamma) == gamma
    exact = [[(gamma / lam, 0), (0, -1 / lam)], [(0, 1 / lam), (gamma / lam, 0)]]
    g = metric_from_right_eigenvectors(broken_eigensystem(float(gamma))).g
    limit = 3 * EPS * float(gamma / lam)
    for got, want in zip(g.ravel().tolist(), itertools.chain(*exact)):
        assert math.hypot(float(Fraction(got.real) - want[0]),
                          float(Fraction(got.imag) - want[1])) <= limit, (got, want)
