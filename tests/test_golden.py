"""Every experiment's outputs against the committed golden files."""

import os
import shutil

import pytest

from golden_outputs import (GOLDEN_DIR, _cell_matches, _files, compare_file,
                            main, write_all)


def test_outputs_match_golden_files(tmp_path):
    write_all(str(tmp_path))
    want = _files(GOLDEN_DIR)
    assert _files(tmp_path) == want
    diffs = {}
    for rel in sorted(want):
        found = compare_file(os.path.join(tmp_path, rel), os.path.join(GOLDEN_DIR, rel))
        if found:
            diffs[rel] = found[:5]
    assert not diffs


@pytest.mark.parametrize("got, want, same", [
    ("12", "12", True),
    ("12", "13", False),
    ("12.0", "12", False),            # an integer cell matches exactly
    ("sp35_settled", "sp35_settled", True),
    ("<= 0.5", "<= 0.4", False),
    ("45.0000000001", "45.0", True),  # floats within 1e-9 relative
    ("45.0001", "45.0", False),
    ("nan", "nan", True),
    ("nan", "1.5", False),
    ("inf", "inf", True),
    ("x", "1.5", False),
])
def test_golden_cell_comparison(got, want, same):
    assert _cell_matches(got, want) is same


def test_compare_reports_each_differing_file(tmp_path, capsys):
    copy_dir = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, copy_dir)
    assert main(["--compare", str(copy_dir)]) == 0
    assert capsys.readouterr().out == ""
    # nudge one float cell of one file by 1e-6 relative
    path = copy_dir / "fra_sweep" / "fra_sweep.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    z_real = float(cells[2])
    cells[2] = repr(z_real * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    path.write_text("".join(lines))
    assert main(["--compare", str(copy_dir)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 2
    name, deviation = report[0].split(": largest relative deviation ")
    assert name == os.path.join("fra_sweep", "fra_sweep.csv")
    assert float(deviation) == pytest.approx(1e-6, rel=1e-3)
    # one indented line per differing column, by its header name
    column, deviations = report[1].split(": largest absolute deviation ")
    assert column == "  z_real"
    absolute, relative = (float(x) for x in deviations.split(", relative "))
    assert absolute == pytest.approx(z_real * 1e-6, rel=1e-2)  # printed to 3 digits
    assert relative == pytest.approx(1e-6, rel=1e-3)
