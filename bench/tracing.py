"""Span recorder and per-layer metrics for the traced benchmark run.

The simulator is not instrumented.  `instrument` replaces the public
functions of each layer, from outside, with wrappers that record one span
per call: name, start, end, parent span and run id.  Each name is patched
where its caller looks it up: names imported into `array_sim` and
`experiments` are patched there, `thermal.step_temps` on the `thermal`
module, and the `TempArray` methods on the class.  Spans stay in memory
until the run ends; self time is derived from them afterwards.

Model counters that a span count cannot give (values converted, saturated
results, clamp hits, ...) are read from return values and from the
`PidState` argument, never from inside the simulator.
"""

import contextlib
from array import array
from time import perf_counter

import numpy as np

from tregsim import array_sim, experiments, thermal

# span names
RUN = "experiments.run_experiment"
LOAD = "config.load_config"
BUILD = "experiments.build_array"
CSV = "experiments.write_csv"
CALIBRATE = "array_sim.TempArray.calibrate_one_point"
CHARACTERIZE = "array_sim.TempArray.characterize_sensor"
REGULATE = "array_sim.TempArray.run_regulation"
RUN_IS = "array_sim.TempArray.run_is"
PID = "array_sim.pid_cycle"
CONVERT = "array_sim.convert"
DISCHARGE = "array_sim.discharge_counts"
SIGNED = "array_sim.convert_signed"
I_CTAT = "array_sim.i_ctat"
I_PTAT = "array_sim.i_ptat"
PWM = "array_sim.duty_of_code"
THERMAL = "thermal.step_temps"
# the wrappers' own reading of results, kept out of the callers' self time
READ = "trace.read"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("thermal.steps", "count", "lower"),
    ("thermal.busy_s", "s", "lower"),
    ("thermal.us_per_cycle", "us", "lower"),
    ("pid.cycles", "count", "lower"),
    ("pid.self_s", "s", "lower"),
    ("pid.saturated_cycles", "count", "lower"),
    ("madc.conversions", "count", "lower"),
    ("madc.batches", "count", "lower"),
    ("madc.values", "count", "lower"),
    ("madc.values_per_batch", "values/batch", "higher"),
    ("madc.busy_s", "s", "lower"),
    ("madc.saturated", "count", "lower"),
    ("devices.calls", "count", "lower"),
    ("devices.busy_s", "s", "lower"),
    ("pwm.calls", "count", "lower"),
    ("pwm.busy_s", "s", "lower"),
    ("pwm.clamp_hits", "count", "lower"),
    ("array.build_s", "s", "lower"),
    ("array.calibrate_s", "s", "lower"),
    ("array.cal_edge_hits", "count", "lower"),
    ("array.measure_self_s", "s", "lower"),
    ("array.regulation_self_s", "s", "lower"),
    ("array.fra_points", "count", "lower"),
    ("array.fra_self_s", "s", "lower"),
    ("experiments.csv_rows", "count", "lower"),
    ("experiments.csv_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# model counters that must repeat exactly from one traced run to the next
DETERMINISTIC = [
    "thermal.steps", "pid.cycles", "madc.conversions", "madc.batches",
    "madc.values", "madc.saturated", "pwm.clamp_hits",
    "pid.saturated_cycles", "array.cal_edge_hits",
]


class Tracer:
    """Spans in flat columns; a span's index is its id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counters = {}      # (run id, counter name) -> count

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def record(self, name_id, start):
        """Add a finished span from `start` to now under the open span."""
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(start)
        self.end.append(perf_counter())

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def count(self, key, n):
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + int(n)

    def save(self, path):
        """Write every span to an .npz file (names indexed by `name`)."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), run=np.asarray(self.run),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def layer_metrics(self, run_id, overhead_s):
        """Per-layer metrics of one traced run, from its spans and counters."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = parent >= 0
        child_s = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        self_s = dur - child_s
        mine = np.asarray(self.run) == run_id

        def pick(span):
            return mine & (name == self._name_ids.get(span, -1))

        def calls(*spans):
            return int(sum(np.count_nonzero(pick(s)) for s in spans))

        def busy(*spans):
            return float(sum(dur[pick(s)].sum() for s in spans))

        def own(span):
            return float(self_s[pick(span)].sum())

        def counter(key):
            return self.counters.get((run_id, key), 0)

        steps = calls(THERMAL)
        reg_cycles = counter("array.reg_cycles")
        batches = calls(DISCHARGE, SIGNED)
        conversions = calls(CONVERT)
        batch_values = counter("madc.values") - conversions
        return {
            "thermal.steps": steps,
            "thermal.busy_s": busy(THERMAL),
            "thermal.us_per_cycle": (busy(THERMAL) / reg_cycles * 1e6
                                     if reg_cycles else 0.0),
            "pid.cycles": calls(PID),
            "pid.self_s": own(PID),
            "pid.saturated_cycles": counter("pid.saturated_cycles"),
            "madc.conversions": conversions,
            "madc.batches": batches,
            "madc.values": counter("madc.values"),
            "madc.values_per_batch": batch_values / batches if batches else 0.0,
            "madc.busy_s": busy(CONVERT, DISCHARGE, SIGNED),
            "madc.saturated": counter("madc.saturated"),
            "devices.calls": calls(I_CTAT, I_PTAT),
            "devices.busy_s": busy(I_CTAT, I_PTAT),
            "pwm.calls": calls(PWM),
            "pwm.busy_s": busy(PWM),
            "pwm.clamp_hits": counter("pwm.clamp_hits"),
            "array.build_s": busy(BUILD),
            "array.calibrate_s": busy(CALIBRATE),
            "array.cal_edge_hits": counter("array.cal_edge_hits"),
            "array.measure_self_s": own(CHARACTERIZE),
            "array.regulation_self_s": own(REGULATE),
            "array.fra_points": counter("array.fra_points"),
            "array.fra_self_s": own(RUN_IS),
            "experiments.csv_rows": counter("experiments.csv_rows"),
            "experiments.csv_s": busy(CSV),
            "experiments.self_s": own(RUN),
            "config.load_s": busy(LOAD),
            "trace.overhead_s": overhead_s,
        }


# -- what each wrapper reads from the call, besides its span ---------------

def _on_pid(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.count("pid.saturated_cycles", state.saturated)


def _on_convert(tracer, args, kwargs, conv):
    tracer.count("madc.values", 1)
    tracer.count("madc.saturated", conv.saturated)


def _on_discharge(tracer, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    n2, clipped = result
    tracer.count("madc.values", np.size(n2))
    # clipped at the integrator, or past the counter range the caller clamps to
    tracer.count("madc.saturated", np.count_nonzero(
        np.asarray(clipped) | (np.asarray(n2) > cfg.counter_max)))


def _on_signed(tracer, args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    tracer.count("madc.values", np.size(out))
    tracer.count("madc.saturated",
                 np.count_nonzero(np.abs(out) >= cfg.counter_max))


def _on_pwm(tracer, args, kwargs, duty):
    cfg = args[0] if args else kwargs["cfg"]
    d = np.asarray(duty)
    tracer.count("pwm.clamp_hits", np.count_nonzero(
        (d <= cfg.duty_min) | (d >= cfg.duty_max)))


def _on_calibrate(tracer, args, kwargs, failures):
    tracer.count("array.cal_edge_hits", len(failures))


def _on_regulate(tracer, args, kwargs, result):
    tracer.count("array.reg_cycles", result.time.size)


def _on_run_is(tracer, args, kwargs, results):
    tracer.count("array.fra_points", len(results))


def _on_csv(tracer, args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    tracer.count("experiments.csv_rows", len(rows))


# (owner, attribute, span name, reader of the call or None)
_PATCHES = [
    (experiments, "build_array", BUILD, None),
    (experiments, "write_csv", CSV, _on_csv),
    (array_sim.TempArray, "calibrate_one_point", CALIBRATE, _on_calibrate),
    (array_sim.TempArray, "characterize_sensor", CHARACTERIZE, None),
    (array_sim.TempArray, "run_regulation", REGULATE, _on_regulate),
    (array_sim.TempArray, "run_is", RUN_IS, _on_run_is),
    (array_sim, "pid_cycle", PID, _on_pid),
    (array_sim, "convert", CONVERT, _on_convert),
    (array_sim, "discharge_counts", DISCHARGE, _on_discharge),
    (array_sim, "convert_signed", SIGNED, _on_signed),
    (array_sim, "i_ctat", I_CTAT, None),
    (array_sim, "i_ptat", I_PTAT, None),
    (array_sim, "duty_of_code", PWM, _on_pwm),
    (thermal, "step_temps", THERMAL, None),
]


def _wrap(tracer, fn, span, reader):
    name_id = tracer.name_id(span)
    read_id = tracer.name_id(READ)

    def traced(*args, **kwargs):
        i = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if reader is not None:
            reader(tracer, args, kwargs, result)
            tracer.record(read_id, tracer.end[i])
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Route every layer boundary through `tracer`; restore on exit."""
    saved = []
    try:
        for owner, attr, span, reader in _PATCHES:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, span, reader))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
