"""Golden outputs of every experiment, and the comparison against them.

    PYTHONPATH=src python tests/golden_outputs.py    # rewrite tests/golden/
    PYTHONPATH=src python tests/golden_outputs.py --compare DIR

Each experiment runs at schema defaults on SEED with the conversion trace
on, and writes its CSVs into tests/golden/<experiment>/.  The golden
files change only through this script; a change that moves them lists
each changed file with its largest deviation.  --compare prints that
list for DIR, laid out as write_all writes it (one directory per
experiment): each file whose bytes differ from the golden one, with its
largest relative deviation, then one indented line per differing column
with that column's largest absolute and relative deviation; nothing when
every file matches.
"""

import argparse
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


def _cells(path):
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def compare_file(got_path, want_path):
    """Descriptions of the cells where two CSV files differ (empty if none)."""
    got, want = _cells(got_path), _cells(want_path)
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


def _deviation(got, want):
    """(absolute, relative) deviation of a differing cell from the golden one.

    Numbers deviate by |got - want|, and relatively by that over |want|,
    or by |got| where the golden value is 0.  A cell that is not a number
    on both sides, or a nan against a number, deviates by inf.
    """
    if not (_parses(got, float) and _parses(want, float)):
        return math.inf, math.inf
    g, w = float(got), float(want)
    dev = abs(g - w)
    rel = dev / abs(w) if w else abs(g)
    return tuple(math.inf if math.isnan(x) else x for x in (dev, rel))


def column_deviations(got_path, want_path):
    """Largest (absolute, relative) deviation of each column where a CSV
    file differs from the golden one, keyed by the golden header's name
    ("column j", from 1, in a file without a header).  None when the line
    or cell counts differ.
    """
    got, want = _cells(got_path), _cells(want_path)
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return None
    header = want[0] if want else []
    if all(_parses(cell, float) for cell in header):
        header = [f"column {j}" for j in range(1, len(header) + 1)]
    worst = {}
    for g_row, w_row in zip(got, want):
        for name, g, w in zip(header, g_row, w_row):
            if g != w:
                old = worst.get(name, (0.0, 0.0))
                worst[name] = tuple(map(max, old, _deviation(g, w)))
    return worst


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def compare_dir(outdir):
    """One line per file of outdir or tests/golden/ whose bytes differ."""
    got, want = _files(outdir), _files(GOLDEN_DIR)
    lines = []
    for rel in sorted(got | want):
        if rel not in want:
            lines.append(f"{rel}: not in the golden files")
        elif rel not in got:
            lines.append(f"{rel}: missing")
        else:
            got_path, want_path = os.path.join(outdir, rel), os.path.join(GOLDEN_DIR, rel)
            with open(got_path, "rb") as g, open(want_path, "rb") as w:
                if g.read() == w.read():
                    continue
            columns = column_deviations(got_path, want_path)
            worst = (math.inf if columns is None
                     else max((r for _, r in columns.values()), default=0.0))
            lines.append(f"{rel}: largest relative deviation {worst:.3g}")
            lines.extend(f"  {name}: largest absolute deviation {dev:.3g}, relative {r:.3g}"
                         for name, (dev, r) in (columns or {}).items())
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="DIR",
                        help="report the files under DIR that differ from the golden ones")
    args = parser.parse_args(argv)
    if args.compare is not None:
        lines = compare_dir(args.compare)
        sys.stdout.write("".join(line + "\n" for line in lines))
        return 1 if lines else 0
    if os.path.isdir(GOLDEN_DIR):
        shutil.rmtree(GOLDEN_DIR)
    write_all(GOLDEN_DIR)
    n = sum(len(files) for _, _, files in os.walk(GOLDEN_DIR))
    sys.stdout.write(f"wrote {n} files under {GOLDEN_DIR}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
