"""tregsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload regulation [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all        # every workload in turn

Run from the root of a source checkout; the simulator is imported from its
`src/` directory, never from an installed copy.  Each workload is one
named experiment driven through `tregsim.experiments.run_experiment`, one
run after another in this process (a closed loop with one client), for at
least `--seconds` seconds.

`--trace 0` reports the end-to-end metrics of untraced runs.  `--trace 1`
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones (see tracing.py), plus the tracing overhead.  Every run
must pass all experiment checks and write CSVs with the same SHA-256
digest; in traced mode the model counters must also repeat exactly.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (experiment checks) and `metrics`.  Experiment
outputs and span files go to `.bench_out/` under the checkout, never into
an experiment's configured output directory.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 20260809     # the seed of configs/
SETUP_REPEATS = 7

# workload -> (config file, CSV that counts its work, throughput metric, unit)
WORKLOADS = {
    "regulation": ("regulation.cfg", "regulation.csv", "sim_speed",
                   "sim_s/host_s"),
    "sensing": ("sensing.cfg", "die_errors.csv", "conv_per_s", "1/s"),
    "impedance": ("impedance.cfg", "fra_sweep.csv", "fra_points_per_s", "1/s"),
}

# End-to-end metrics of every workload.  Only the timed ones go into the
# result line: failed_frac is zero on a correct run (the line's `failed` and
# `attempted` give it), and err_vs_bound is fixed for a seed, so its spread
# over seeds is the model's die-to-die variation, not measurement noise.
END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("err_vs_bound", "ratio"),
]
RESULT_METRICS = {"run_s", "setup_s", "peak_rss_mb"}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import tregsim
from tregsim.config import load_config
from tregsim.experiments import build_array
build_array(load_config(sys.argv[2]))
"""


def import_tregsim():
    """Import the checkout's simulator; exit with an error if there is none."""
    package = SRC / "tregsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no simulator source at {package}")
    sys.path.insert(0, str(SRC))
    import tregsim
    if Path(tregsim.__file__).resolve().parent != package:
        sys.exit(f"bench: imported tregsim from {tregsim.__file__}, "
                 f"not from {package}")


def environment():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def measure_setup(cfg):
    """Wall time of fresh processes that import, load the config, build."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
                        str(cfg)], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def csv_digest(outdir):
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def work_done(workload, outdir, settings):
    """The workload's unit of work, counted from its output CSV."""
    with open(outdir / WORKLOADS[workload][1]) as fh:
        lines = fh.read().splitlines()[1:]
    if workload == "regulation":
        return float(lines[-1].split(",")[0])       # simulated seconds
    if workload == "sensing":
        cells = settings["array"]["rows"] * settings["array"]["cols"]
        return len(lines) * cells                   # per-cell conversions
    return len(lines)                               # impedance points


def err_vs_bound(checks):
    """Largest value/bound over the "error <= bound" checks."""
    return max(c.value / float(c.bound[3:]) for c in checks
               if "error" in c.name and c.bound.startswith("<= "))


def run_once(workload, seed, outdir, tracer):
    """One closed-loop request: load settings, run the experiment."""
    from tregsim.config import load_config
    from tregsim.experiments import run_experiment
    import tracing

    with tracer.span(tracing.LOAD):
        settings = load_config(str(BENCH / "workloads" / WORKLOADS[workload][0]))
    settings["experiment"]["seed"] = seed
    t0 = time.perf_counter()
    with tracer.span(tracing.RUN):
        checks = run_experiment(settings, str(outdir))
    run_s = time.perf_counter() - t0
    rep = {"run_s": run_s, "checks": checks, "digest": csv_digest(outdir),
           "work": work_done(workload, outdir, settings),
           "err_vs_bound": err_vs_bound(checks)}
    shutil.rmtree(outdir)
    return rep


def run_workload(args):
    import tracing

    cfg = BENCH / "workloads" / WORKLOADS[args.workload][0]
    env = environment()
    setup_s = None if args.trace else measure_setup(cfg)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    reps = []
    try:
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            outdir = workdir / f"run{len(reps)}"
            if traced:
                tracer.run_id = len(reps)
                with tracing.instrument(tracer):
                    rep = run_once(args.workload, args.seed, outdir, tracer)
            else:   # its two spans go to a tracer that is thrown away
                rep = run_once(args.workload, args.seed, outdir,
                               tracing.Tracer())
            rep["traced"] = traced
            reps.append(rep)
            done = time.perf_counter() - t_start >= args.seconds
            if done and (not args.trace or len(reps) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for r in reps for c in r["checks"]]
    failed = sum(not c.passed for c in checks)
    digests = {r["digest"] for r in reps}
    problems = []
    if failed:
        problems.append(f"{failed} experiment checks failed: " + ", ".join(
            sorted({c.name for c in checks if not c.passed})))
    if len(digests) != 1:
        problems.append(f"runs wrote {len(digests)} different CSV digests")

    plain = [r for r in reps if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  runs {len(plain)} untraced"
          + (f", {len(reps) - len(plain)} traced" if args.trace else ""))
    print(f"  csv_sha256 {digests.pop() if len(digests) == 1 else 'MISMATCH'}")
    print(f"  env {json.dumps(env)}")
    if args.trace:
        metrics = layer_report(args, tracer, reps, run_s, problems)
    else:
        metrics = end_to_end_report(args, reps, run_s, setup_s, failed,
                                    len(checks))
    for p in problems:
        print(f"  FAIL {p}")
    print(json.dumps({"correct": not problems, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))


def end_to_end_report(args, reps, run_s, setup_s, failed, attempted):
    times = sorted(r["run_s"] for r in reps)
    values = {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
        "err_vs_bound": max(r["err_vs_bound"] for r in reps),
    }
    notes = {
        "run_s": f"median of {len(times)} runs, "
                 f"min {times[0]:.4f} max {times[-1]:.4f}",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "failed_frac": f"{failed} of {attempted} checks",
    }
    for name, unit in END_TO_END:
        print(f"  {name:18s} {values[name]:14.6g}  {unit:12s} "
              f"{notes.get(name, '')}".rstrip())
    for workload, (_, _, name, unit) in WORKLOADS.items():
        value = (f"{reps[0]['work'] / run_s:14.6g}"
                 if workload == args.workload else f"{'n/a':>14s}")
        print(f"  {name:18s} {value}  {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END if name in RESULT_METRICS}


def layer_report(args, tracer, reps, run_s, problems):
    import tracing

    traced = [i for i, r in enumerate(reps) if r["traced"]]
    traced_s = statistics.median(reps[i]["run_s"] for i in traced)
    overhead = traced_s - run_s
    per_run = [tracer.layer_metrics(i, overhead) for i in traced]
    for key in tracing.DETERMINISTIC:
        seen = {m[key] for m in per_run}
        if len(seen) != 1:
            problems.append(f"{key} differs between traced runs: {sorted(seen)}")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        vals = [m[name] for m in per_run]
        value = (vals[0] if isinstance(vals[0], int)
                 else statistics.median(vals))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:24s} {value:14.6g}  {unit}")
    print(f"  run_s untraced {run_s:.4f}  traced {traced_s:.4f}")

    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
    tracer.save(path)
    print(f"  spans {len(tracer.start)} written to {path.relative_to(ROOT)}")
    return metrics


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {workload} exited {proc.returncode}")
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_tregsim()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
