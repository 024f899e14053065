"""Every experiment's outputs against the committed golden files."""

import os

import pytest

from golden_outputs import (GOLDEN_DIR, _cell_matches, compare_file,
                            write_all)


def test_outputs_match_golden_files(tmp_path):
    write_all(str(tmp_path))
    got = {os.path.relpath(os.path.join(d, f), tmp_path)
           for d, _, files in os.walk(tmp_path) for f in files}
    want = {os.path.relpath(os.path.join(d, f), GOLDEN_DIR)
            for d, _, files in os.walk(GOLDEN_DIR) for f in files}
    assert got == want
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
