"""One round of the random-problems workload through nhur's library API.

A round builds each group's metric once with `metric_from_matrix` (the
plain formalism passes no metric) and calls `evaluate_all` on every state
of the group, as a library user would.  The benchmark calls
`evaluate_round` in its own warm process and also runs this file as a
fresh interpreter for the cold timing:

    PYTHONPATH=src python3 benchmarks/libround.py PROBLEMS.npz RESULTS.npz
"""

import sys

import numpy as np

RELATIONS = ("ur1", "ur2", "ur3", "ur4")


def prepare(nhur, groups):
    """Per-group call arguments, built outside any timed region."""
    out = []
    for grp in groups:
        calls = [
            (grp["a"][k], grp["b"][k], grp["psi"][k],
             grp["perp"][k] if grp["has_perp"][k] else None)
            for k in range(len(grp["psi"]))
        ]
        g = None if grp["formalism"] == "plain" else grp["g"]
        out.append((g, nhur.Formalism(grp["formalism"]), calls))
    return out


def evaluate_round(nhur, prepared):
    """Evaluate every problem once; a failure is kept as its message."""
    results = []
    for g, formalism, calls in prepared:
        try:
            metric = None if g is None else nhur.metric_from_matrix(g)
        except nhur.NhurError as exc:
            results += [f"{type(exc).__name__}: {exc}"] * len(calls)
            continue
        for a, b, psi, perp in calls:
            try:
                results.append(nhur.evaluate_all(a, b, psi, metric, formalism,
                                                 psi_perp=perp))
            except nhur.NhurError as exc:
                results.append(f"{type(exc).__name__}: {exc}")
    return results


def empty_results(n):
    """Result arrays of n problems none of which produced output: lhs, rhs
    and gap as (n, 4) NaN, holds as (n, 4) False."""
    out = {key: np.full((n, 4), np.nan) for key in ("lhs", "rhs", "gap")}
    out["holds"] = np.zeros((n, 4), dtype=bool)
    return out


def to_arrays(results):
    """Result arrays (see empty_results) of evaluate_round's output, plus
    the error messages ('' where a problem did not raise)."""
    out = empty_results(len(results))
    out["error"] = np.array(["" if isinstance(r, tuple) else r for r in results])
    for i, evs in enumerate(results):
        if isinstance(evs, tuple):
            for j, ev in enumerate(evs):
                out["lhs"][i, j] = ev.lhs
                out["rhs"][i, j] = ev.rhs
                out["gap"][i, j] = ev.gap
                out["holds"][i, j] = ev.holds
    return out


def main(problems_path, results_path):
    import nhur
    from gen import load_problems

    prepared = prepare(nhur, load_problems(problems_path))
    np.savez(results_path, **to_arrays(evaluate_round(nhur, prepared)))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
