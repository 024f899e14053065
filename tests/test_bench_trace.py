"""The benchmark's tracer (bench/tracing.py) against the model's own totals.

The tracer patches the loop's functions where array_sim looks them up and
reads counts off their arguments and results.  A change to those calls
that breaks `bench/run.py --trace 1`, or makes it miscount, fails here.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np

from tregsim.array_sim import ArrayConfig, TempArray
from tregsim.config import SCHEMA
from tregsim.experiments import run_experiment
from tregsim.pwm import duty_of_code

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def saturated_cycles(results, coeffs):
    """Cell-cycles whose actuation clamped or whose product saturated,
    rebuilt from the conversion trace and u of consecutive calls."""
    u = np.concatenate([r.u for r in results])
    products = np.zeros(u.shape + (3,), dtype=int)
    offset = 0
    for res in results:
        for k, r, c, slot, *_, product in zip(*res.conv_trace.values()):
            products[offset + k, r, c, slot] = max(-127, min(127, product))
        offset += res.u.shape[0]
    s0, s1, s2 = coeffs.signs
    lag1 = np.concatenate([np.zeros_like(products[:1]), products[:-1]])
    lag2 = np.concatenate([np.zeros_like(products[:2]), products[:-2]])
    inc = s0 * products[..., 0] + s1 * lag1[..., 1] + s2 * lag2[..., 2]
    inc = inc * 2 ** coeffs.exponent if coeffs.exponent >= 0 else inc >> -coeffs.exponent
    raw = np.concatenate([np.zeros_like(u[:1]), u[:-1]]) + inc
    return int(np.count_nonzero((raw != u) | (np.abs(products) >= 127).any(axis=-1)))


def test_tracer_counts_equal_model_totals():
    # the schedule of test_array::test_persistent_saturation_warnings
    tracing = load_tracing()
    tracer = tracing.Tracer()
    arr = TempArray(ArrayConfig(rows=2, cols=3, p_max=0.1), seed=3)
    with tracing.instrument(tracer):
        arr.calibrate_one_point()
        sp = np.full((2, 3), 40.0)
        sp[0, 1], sp[1, 2] = 90.0, 85.0
        results = [arr.run_regulation(sp, 60.0, trace_conversions=True),
                   arr.run_regulation(40.0, 20.0, trace_conversions=True)]
    metrics = tracer.layer_metrics(tracer.run_id, 0.0)

    # one PID cycle and one converter batch per regulation cycle
    n_cycles = sum(r.u.shape[0] for r in results)
    assert metrics["pid.cycles"] == n_cycles
    assert metrics["madc.conversions"] == n_cycles

    assert metrics["pid.saturated_cycles"] == saturated_cycles(results, arr.cfg.pid_coeffs)
    # calibration and measurement stay in range and nothing clips at the
    # integrator here: the converter saturates only where a loop
    # conversion's counter clamps, output != preload - n2
    trace = np.array([row for r in results for row in zip(*r.conv_trace.values())])
    assert metrics["madc.saturated"] == np.count_nonzero(-trace[:, 8] != trace[:, 5] - trace[:, 7])
    pwm = arr.cfg.pwm
    u = np.concatenate([r.u for r in results])
    # code 0 is the heater off
    duty = np.where(u > 0, duty_of_code(pwm, u), 0.0)
    assert metrics["pwm.clamp_hits"] == np.count_nonzero(
        (u > 0) & ((duty <= pwm.duty_min) | (duty >= pwm.duty_max)))
    # the counts the per-cell loop gave on this schedule
    assert (metrics["pid.saturated_cycles"], metrics["madc.saturated"],
            metrics["pwm.clamp_hits"]) == (57, 2, 11)


def test_tracer_counts_every_csv_row(tmp_path):
    # the tracer counts a write_csv call's rows as the length of its
    # first column, the third positional argument
    tracing = load_tracing()
    tracer = tracing.Tracer()
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"].update(name="regulation_steps", seed=20260809)
    settings["regulation"]["trace_conversions"] = True
    with tracing.instrument(tracer):
        run_experiment(settings, str(tmp_path))
    metrics = tracer.layer_metrics(tracer.run_id, 0.0)
    # final_field.csv has no header and does not go through write_csv
    written = {name: len((tmp_path / name).read_text().splitlines()) - 1
               for name in ("regulation.csv", "pid_trace.csv", "summary.csv")}
    assert written == {"regulation.csv": 40, "pid_trace.csv": 6480, "summary.csv": 17}
    assert metrics["experiments.csv_rows"] == sum(written.values()) == 6537


def test_tracer_counts_the_impedance_sweep(tmp_path):
    # the default sweep measures 51 points of each of two networks in 9
    # packs, one converter call per pack and network.  The tracer restores
    # run_is as a plain function, not a staticmethod, so the untraced run
    # after it works only if the experiment calls it through the class;
    # it writes the same bytes.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"]["name"] = "fra_sweep"
    with tracing.instrument(tracer):
        run_experiment(settings, str(tmp_path / "traced"))
    metrics = tracer.layer_metrics(tracer.run_id, 0.0)
    assert (metrics["array.fra_points"], metrics["madc.batches"]) == (102, 18)
    run_experiment(settings, str(tmp_path / "plain"))
    for name in ("fra_sweep.csv", "summary.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
