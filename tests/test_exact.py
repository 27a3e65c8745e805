"""The kernel against exact rational arithmetic (`exact.py`).

Each value the kernel reports is within 1e-12 S of its exact value, S =
|A psi|_G^2 + |B psi|_G^2, over seeded problems in every formalism and a
slice of the wide-range recipe, and no verdict is false: the exact
lhs - rhs is never negative (for ur3 with psi_perp at unit norm, as the
paper states it), and every verdict holds.  Every draw of the recipe
is a valid problem and evaluates.
"""

import math

import numpy as np
import pytest

from exact import exact_values
from helpers import good_observable_for, random_operator, random_state, recipe_problem
from nhur import Formalism, evaluate_all, identity_metric, metric_from_matrix

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
        # every relation holds exactly, so a false verdict is a kernel fault
        rhs = want["rhs"][:2] + [want["bound3"], want["rhs"][3]]
        assert all(want["lhs"] - r >= 0 for r in rhs)
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
    # psi_perp at twice its norm: |e|^2 and rhs grow fourfold, bound3 does not
    got = exact_values(sx, sz, e0, np.eye(2), 2 * e1)
    assert (got["e2"], got["rhs"][2], got["bound3"]) == (4, 4, 1)


def test_the_recipe_evaluates():
    # 500 draws spanning 24 decades of operator scale and cond(G) to 1e9:
    # each is a valid problem, so none may raise
    rng = np.random.default_rng(20)
    for _ in range(500):
        a, b, psi, g = recipe_problem(rng)
        evs = evaluate_all(a, b, psi, metric_from_matrix(g), Formalism.GMETRIC)
        assert all(ev.holds for ev in evs)
