"""The output comparison (`outputs.py`) on two small in-process sweeps:
snapshots of the same code compare identical, and a moved value or a
flipped verdict is reported.  No golden bytes are kept."""

from outputs import compare, in_process, record_sweep

SWEEPS = (("example1", ["example1"]),
          ("example2-broken-good", ["example2", "--phase", "broken"]))


def snap(out):
    out.mkdir()
    for name, argv in SWEEPS:
        record_sweep(in_process, str(out), name, argv, points=9)
    return str(out)


def test_a_snapshot_taken_twice_is_identical_and_a_change_is_reported(tmp_path):
    first, second = snap(tmp_path / "first"), snap(tmp_path / "second")
    lines = compare(first, second)
    assert len(lines) == 8 and all(line.endswith(": identical") for line in lines)
    assert "wrote <path> (9 rows)" in (tmp_path / "first" / "example1.stdout").read_text()
    # positive control: move one rhs by 1e-9 lhs and flip one verdict
    path = tmp_path / "second" / "example1.csv"
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    cells = rows[2].split(",")
    lhs, rhs = (names.index(f"ur1_{key}") for key in ("lhs", "rhs"))
    cells[rhs] = repr(float(cells[rhs]) + 1e-9 * float(cells[lhs]))
    rows[2] = ",".join(cells)
    cells = rows[5].split(",")
    cells[names.index("ur2_holds")] = "false"
    rows[5] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    moved = [line for line in compare(first, second) if not line.endswith(": identical")]
    assert len(moved) == 1 and moved[0].startswith("example1.csv: 2 of 9 rows moved, "
                                                   "max |diff|/lhs 1e-09"), moved
    assert moved[0].endswith("flips: row 5 ur2_holds true -> false"), moved
