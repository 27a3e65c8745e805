"""Snapshot nhur's user-visible outputs, and compare two snapshots.

    python tests/outputs.py snapshot CHECKOUT OUT
    python tests/outputs.py compare OUT1 OUT2

`snapshot` runs one fixed set against CHECKOUT/src, each command in a
fresh interpreter with one BLAS thread, and writes what it produced under
OUT:

- the five 181-point benchmark sweeps and `example2 --phase symmetric
  --formalism plain`: CSV, stdout, stderr and exit code;
- `nhur check` on the four problem files of `benchmarks/gen.py --seed 1`:
  report, stdout, stderr and exit code;
- `nhur metric --gamma` 0.6, 0.9 and 1.2: stdout, stderr and exit code;
- the seed-1 library round (`benchmarks/libround.py`).

gen.py runs as a subprocess into a temporary directory, so nothing under
`benchmarks/` changes.  Every path a command prints, the one on a sweep's
`wrote PATH` line included, is masked, so snapshots taken into different
directories compare equal wherever the outputs do.

`compare` prints one line per output: "identical", or how many rows moved,
the largest |diff|/lhs among them (|diff|/|value| for a row with no lhs,
such as a text line of `nhur metric`), and each holds, branch or
degenerate flip.  It exits 0 when every output is identical and
1 otherwise.  No golden bytes are kept: LAPACK kernels differ from CPU to
CPU, so two snapshots are only comparable from one machine.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

SWEEP_POINTS = 181
SWEEPS = (
    ("example1", ["example1"]),
    ("example2-symmetric-good", ["example2", "--phase", "symmetric"]),
    ("example2-broken-good", ["example2", "--phase", "broken"]),
    ("example2-symmetric-gmetric",
     ["example2", "--phase", "symmetric", "--formalism", "gmetric"]),
    ("example2-near-ep", ["example2", "--phase", "symmetric", "--gamma", "0.9999999"]),
    ("example2-symmetric-plain",
     ["example2", "--phase", "symmetric", "--formalism", "plain"]),
)
CHECK_FILES = ("check-d64-gmetric", "check-d64-good", "check-d256-gmetric",
               "check-d256-good")
METRIC_GAMMAS = ("0.6", "0.9", "1.2")
FLAGS = ("holds", "hold", "branch", "degenerate")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update(dict.fromkeys(THREADS, "1"))
    return env


def cli_runner(checkout):
    """run(argv) -> (exit code, stdout, stderr) of `python -m nhur.cli argv`
    in a fresh interpreter on CHECKOUT/src."""
    env = _env(checkout)

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "nhur.cli", *argv], env=env,
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def in_process(argv):
    """(exit code, stdout, stderr) of `nhur.cli.main(argv)` in this process."""
    from nhur.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(run, out, name, argv, masks=()):
    """Run argv and write NAME.code, NAME.stdout and NAME.stderr under out,
    each path in masks replaced by a placeholder."""
    code, stdout, stderr = run(argv)
    for path in masks:
        stdout, stderr = (s.replace(str(path), "<path>") for s in (stdout, stderr))
    for suffix, text in (("code", f"{code}\n"), ("stdout", stdout), ("stderr", stderr)):
        with open(os.path.join(out, f"{name}.{suffix}"), "w", encoding="utf-8") as fh:
            fh.write(text)


def record_sweep(run, out, name, argv, points=SWEEP_POINTS):
    """record() a sweep with --points and its CSV written to NAME.csv."""
    csv_path = os.path.join(out, f"{name}.csv")
    record(run, out, name, [*argv, "--points", str(points), "--out", csv_path],
           masks=(csv_path,))


def snapshot(checkout, out):
    checkout = os.path.abspath(checkout)
    os.makedirs(out, exist_ok=True)
    run = cli_runner(checkout)
    for name, argv in SWEEPS:
        record_sweep(run, out, name, argv)
    for gamma in METRIC_GAMMAS:
        record(run, out, f"metric-{gamma}", ["metric", "--gamma", gamma])
    bench = os.path.join(checkout, "benchmarks")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, os.path.join(bench, "gen.py"), "--seed", "1",
                        "--out", tmp], check=True, capture_output=True)
        for name in CHECK_FILES:
            report = os.path.join(out, f"{name}.report.json")
            record(run, out, name, ["check", "--input", os.path.join(tmp, f"{name}.json"),
                                    "--out", report], masks=(tmp, report))
        subprocess.run([sys.executable, os.path.join(bench, "libround.py"),
                        os.path.join(tmp, "problems.npz"),
                        os.path.join(out, "library-round.npz")],
                       env=_env(checkout), check=True, capture_output=True)


def _text_rows(path):
    """One row per line: a k=v token is field k, any other token field #i."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            row = {}
            for i, token in enumerate(line.split()):
                key, sep, value = token.partition("=")
                if sep and key:
                    row[key] = value
                else:
                    row[f"#{i}"] = token
            rows.append(row)
    return rows


def _json_rows(path):
    """A report's evaluations, one row each, after one row of its other
    fields, nested keys joined by dots."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    head = {}

    def flatten(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                flatten(f"{prefix}{key}.", item)
        else:
            head[prefix[:-1]] = json.dumps(value)
    flatten("", {k: v for k, v in report.items() if k != "evaluations"})
    return [head] + [{k: json.dumps(v) for k, v in ev.items()}
                     for ev in report.get("evaluations", [])]


def _npz_rows(path):
    """One row per library-round problem: urN_lhs, _rhs, _gap, _holds, error."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    rows = []
    for i, error in enumerate(arrays["error"].tolist()):
        row = {"error": error}
        for j in range(arrays["lhs"].shape[1]):
            for key in ("lhs", "rhs", "gap", "holds"):
                row[f"ur{j + 1}_{key}"] = repr(arrays[key][i, j].item())
        rows.append(row)
    return rows


def rows_of(path):
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    if path.endswith(".json"):
        return _json_rows(path)
    if path.endswith(".npz"):
        return _npz_rows(path)
    return _text_rows(path)


def _number(text):
    try:
        return complex(text.strip(",()[]"))
    except (AttributeError, ValueError):
        return None


def _lhs(row, key):
    """The lhs beside key (urN_lhs for urN_x, else lhs), as a number, or None."""
    prefix = key.rsplit("_", 1)[0] + "_" if "_" in key else ""
    for name in (prefix + "lhs", "lhs"):
        if name in row:
            return _number(row[name])
    return None


def diff(rows1, rows2) -> str:
    """'identical', or the rows moved, the largest |diff|/lhs (and
    |diff|/|value| where a row has no lhs) and each flip."""
    if rows1 == rows2:
        return "identical"
    parts = [] if len(rows1) == len(rows2) else [f"{len(rows1)} -> {len(rows2)} rows"]
    moved, worst, other, flips = 0, {}, 0, []
    for i, (r1, r2) in enumerate(zip(rows1, rows2)):
        if r1 == r2:
            continue
        moved += 1
        for key in sorted(set(r1) | set(r2)):
            a, b = r1.get(key), r2.get(key)
            if a == b:
                continue
            x, y, lhs = _number(a), _number(b), _lhs(r1, key)
            measure, scale = (("lhs", abs(lhs)) if lhs
                              else ("|value|", max(abs(x or 0), abs(y or 0))))
            if key.endswith(FLAGS):
                flips.append(f"row {i} {key} {a} -> {b}")
            elif x is not None and y is not None and scale and math.isfinite(abs(x - y)):
                worst[measure] = max(worst.get(measure, 0.0), abs(x - y) / scale)
            else:
                other += 1
    parts.append(f"{moved} of {len(rows1)} rows moved")
    parts += [f"max |diff|/{measure} {worst[measure]:.2g}" for measure in sorted(worst)]
    if other:
        parts.append(f"{other} other fields changed")
    if flips:
        parts.append("flips: " + "; ".join(flips))
    return ", ".join(parts)


def compare(out1, out2) -> list:
    """One line per output found in either snapshot."""
    lines = []
    for name in sorted(set(os.listdir(out1)) | set(os.listdir(out2))):
        paths = [os.path.join(out, name) for out in (out1, out2)]
        missing = [p for p in paths if not os.path.exists(p)]
        verdict = (f"missing from {', '.join(missing)}" if missing
                   else diff(*(rows_of(p) for p in paths)))
        lines.append(f"{name}: {verdict}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "snapshot":
        snapshot(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        lines = compare(argv[1], argv[2])
        print("\n".join(lines))
        return 0 if all(line.endswith(": identical") for line in lines) else 1
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
