"""Golden outputs of every experiment, and the comparison against them.

    PYTHONPATH=src python tests/golden_outputs.py    # rewrite tests/golden/

Each experiment runs at schema defaults on SEED with the conversion trace
on, and writes its CSVs into tests/golden/<experiment>/.  The golden
files change only through this script; a change that moves them lists
each changed file with its largest deviation.
"""

import copy
import math
import os
import shutil
import sys

from tregsim.config import SCHEMA
from tregsim.experiments import EXPERIMENTS, run_experiment

SEED = 20260809
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# float cells agree within this relative tolerance: exact bytes may
# differ under another libm, byte identity on one host is criterion 9's
FLOAT_REL_TOL = 1e-9


def golden_settings(name):
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"]["name"] = name
    settings["experiment"]["seed"] = SEED
    settings["regulation"]["trace_conversions"] = True
    return settings


def write_all(outdir):
    """Run every experiment into outdir/<experiment>/."""
    for name in sorted(EXPERIMENTS):
        run_experiment(golden_settings(name), os.path.join(outdir, name))


def _parses(text, kind):
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _cell_matches(got, want):
    """Golden integers and strings match exactly, other numbers within FLOAT_REL_TOL."""
    if _parses(want, int) or not _parses(want, float):
        return got == want
    if not _parses(got, float):
        return False
    g, w = float(got), float(want)
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return math.isclose(g, w, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def compare_file(got_path, want_path):
    """Descriptions of the cells where two CSV files differ (empty if none)."""
    with open(got_path) as fh:
        got = [line.split(",") for line in fh.read().splitlines()]
    with open(want_path) as fh:
        want = [line.split(",") for line in fh.read().splitlines()]
    if len(got) != len(want):
        return [f"{len(got)} lines, golden has {len(want)}"]
    diffs = []
    for i, (g_row, w_row) in enumerate(zip(got, want), start=1):
        if len(g_row) != len(w_row):
            diffs.append(f"line {i}: {len(g_row)} cells, golden has {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row), start=1):
            if not _cell_matches(g, w):
                diffs.append(f"line {i} cell {j}: {g!r}, golden {w!r}")
    return diffs


def main():
    if os.path.isdir(GOLDEN_DIR):
        shutil.rmtree(GOLDEN_DIR)
    write_all(GOLDEN_DIR)
    n = sum(len(files) for _, _, files in os.walk(GOLDEN_DIR))
    sys.stdout.write(f"wrote {n} files under {GOLDEN_DIR}\n")


if __name__ == "__main__":
    main()
