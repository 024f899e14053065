"""Array orchestrator: owns the cells, the plant, and the global clock.

Ties together per-cell device models, the shared-converter channel, the
PID loop, the PWM, and the thermal grid; provides the measurement modes
(CPA, CV, IS), one-point calibration, and the characterization sweeps.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import thermal
from .devices import (BjtParams, CurrentSourceParams, CvSensor, HeaterParams,
                      ImpedanceSensor, PhSensor, i_ctat, i_ptat,
                      network_transient_currents, sample_cell_mismatch)
from .errors import ConfigurationError, DomainError
from .madc import (CROSSING_GUARD, MadcConfig, MadcConversion, TemperatureMap,
                   convert, convert_signed, discharge_counts)
from .pid import PidCoefficients, PidState, default_tuning, pid_cycle
from .pwm import PwmConfig, duty_of_code


class Mode(Enum):
    CPA = "cpa"
    CV = "cv"
    IS = "is"
    TEMP_REG = "temp_reg"


@dataclass
class WaveformSpec:
    """Interrogation waveform: constant level, cyclic ramp, or sinusoid."""

    kind: str = "constant"
    v_low: float = 0.0
    v_high: float = 0.0
    scan_rate: float = 0.1
    freq: float = 15.0
    amplitude: float = 0.01
    cycles: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "ramp_cyclic", "sinusoid"):
            raise ConfigurationError(f"unknown waveform kind {self.kind!r}")
        if self.kind == "ramp_cyclic":
            if not (self.v_low < self.v_high) or self.scan_rate <= 0:
                raise ConfigurationError("ramp needs v_low < v_high and scan_rate > 0")
        if self.kind == "sinusoid" and not (0.1 <= self.freq <= 10e3):
            raise ConfigurationError("sinusoid frequency outside [0.1 Hz, 10 kHz]")


@dataclass(frozen=True)
class FraResult:
    freq: float
    z_real: float
    z_imag: float
    n_periods_integrated: int


@dataclass
class CellState:
    index: tuple
    mode: Mode
    bjt: BjtParams
    current_source: CurrentSourceParams
    cal_preload: int
    cal_ok: bool
    pid_state: PidState
    sensor: object = None


@dataclass
class ArrayConfig:
    rows: int = 9
    cols: int = 6
    t_ambient: float = 25.0
    bjt: BjtParams = field(default_factory=BjtParams)
    current_source: CurrentSourceParams = field(default_factory=CurrentSourceParams)
    heater: HeaterParams = field(default_factory=HeaterParams)
    madc: MadcConfig = field(default_factory=MadcConfig)
    pwm: PwmConfig = field(default_factory=PwmConfig)
    c_th: float = None            # None: fit_defaults()
    g_amb: float = None
    g_lat: float = None
    thermal_dt: float = 1e-3
    pid_ts: float = 4.0
    pid_gains: tuple = None       # (kp, ki, kd); None: default_tuning
    sigma_vbe: float = 1e-3
    sigma_r1: float = 0.01
    sigma_r2: float = 0.01
    sigma_mirror: float = 0.005
    cal_range: tuple = (-64, 64)
    cal_temperature: float = 50.0


@dataclass
class RegulationResult:
    time: np.ndarray              # cycle end times
    setpoint: np.ndarray          # (cycles, rows, cols)
    t_true: np.ndarray
    t_meas: np.ndarray
    u: np.ndarray
    duty: np.ndarray
    warnings: list
    conv_trace: list              # (cycle, row, col, slot, coeff_mag, preload, n_charge, n2, product)


@dataclass
class CharacterizeResult:
    t_values: np.ndarray
    counts: np.ndarray            # (cells, nT)
    t_read: np.ndarray
    map_error: np.ndarray         # t_read - t_true per cell
    die_mean_error: np.ndarray    # mean over cells per sweep point
    fit_slope: np.ndarray
    fit_intercept: np.ndarray
    fit_resid_counts: np.ndarray  # max |residual| per cell
    fit_resid_celsius: np.ndarray


class _Channel:
    """Per-cell converter view handed to the PID cycle."""

    def __init__(self, array, cell):
        self.array = array
        self.cell = cell
        self.trace = None
        self.cycle = None

    def error_conversion(self, slot, coeff_mag, target_preload):
        arr = self.array
        cell = self.cell
        r, c = cell.index
        t_k = arr.temp[r, c] + 273.15
        scale = arr.cfg.madc.pid_charge_scale
        # the loaded calibration word scales with the coefficient: the
        # trim is a relative gain correction of the charge phase
        cal = round(coeff_mag * cell.cal_preload * scale)
        conv = MadcConversion(coeff_mag=coeff_mag, coeff_sign=1,
                              cal_preload=cal,
                              target_preload=target_preload,
                              subtract_from_target=True)
        convert(arr.cfg.madc, conv,
                i_ctat(cell.current_source, cell.bjt, t_k),
                i_ptat(cell.current_source, t_k),
                rng=arr._reg_rng[r][c],
                n1_counts=arr.cfg.madc.pid_n1_counts)
        if self.trace is not None:
            self.trace.append((self.cycle, r, c, slot, coeff_mag, target_preload,
                               conv.n_charge, conv.n_discharge, -conv.out_count))
        return conv


class TempArray:
    """A rows x cols array of regulated cells on a shared thermal grid."""

    def __init__(self, cfg=None, seed=0, cell_seed_sequences=None):
        self.cfg = cfg if cfg is not None else ArrayConfig()
        cfg = self.cfg
        if cfg.c_th is None or cfg.g_amb is None or cfg.g_lat is None:
            c_th, g_amb, g_lat = thermal.fit_defaults(
                target_rise=65.0, p_at_target=cfg.heater.p_max, step_time=10.0)
            cfg.c_th = c_th if cfg.c_th is None else cfg.c_th
            cfg.g_amb = g_amb if cfg.g_amb is None else cfg.g_amb
            cfg.g_lat = g_lat if cfg.g_lat is None else cfg.g_lat
        thermal.check_plant(cfg.c_th, cfg.g_amb, cfg.g_lat, cfg.thermal_dt)
        self._substeps = _whole_multiple(cfg.pid_ts, cfg.thermal_dt,
                                         "PID period", "thermal step")

        self.seed = seed
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._root_ss = ss
        if cell_seed_sequences is None:
            children = ss.spawn(cfg.rows * cfg.cols)
        else:
            if len(cell_seed_sequences) != cfg.rows * cfg.cols:
                raise ConfigurationError("one seed sequence per cell required")
            children = list(cell_seed_sequences)
        self._cell_ss = children
        self._reg_rng = [[None] * cfg.cols for _ in range(cfg.rows)]
        self._meas_rng = [[None] * cfg.cols for _ in range(cfg.rows)]

        self.temp_map = TemperatureMap(cfg.madc, cfg.bjt, cfg.current_source)
        if cfg.pid_gains is None:
            gains = default_tuning(cfg.c_th, cfg.g_amb, cfg.heater.p_max,
                                   self.temp_map.pid_counts_per_kelvin(), cfg.pid_ts)
        else:
            gains = cfg.pid_gains
        self.pid_coeffs = PidCoefficients.derive(
            *gains, cfg.pid_ts,
            counts_per_kelvin=self.temp_map.pid_counts_per_kelvin())

        self.cells = []
        for r in range(cfg.rows):
            row = []
            for c in range(cfg.cols):
                child = children[r * cfg.cols + c]
                # stateless derivation: reconstructible from the child key
                reg_ss = np.random.SeedSequence(entropy=child.entropy,
                                                spawn_key=(*child.spawn_key, 0))
                meas_ss = np.random.SeedSequence(entropy=child.entropy,
                                                 spawn_key=(*child.spawn_key, 1))
                rng = np.random.default_rng(reg_ss)
                self._reg_rng[r][c] = rng
                self._meas_rng[r][c] = np.random.default_rng(meas_ss)
                bjt_i, cs_i = sample_cell_mismatch(
                    cfg.bjt, cfg.current_source, rng,
                    sigma_vbe=cfg.sigma_vbe, sigma_r1=cfg.sigma_r1,
                    sigma_r2=cfg.sigma_r2, sigma_mirror=cfg.sigma_mirror)
                row.append(CellState(index=(r, c), mode=Mode.TEMP_REG,
                                     bjt=bjt_i, current_source=cs_i,
                                     cal_preload=0, cal_ok=True,
                                     pid_state=PidState()))
            self.cells.append(row)

        self.temp = np.full((cfg.rows, cfg.cols), cfg.t_ambient, dtype=float)
        self._sat_since = np.full((cfg.rows, cfg.cols), np.nan)
        self._time = 0.0

    # -- helpers ---------------------------------------------------------

    def cell(self, r, c):
        return self.cells[r][c]

    def iter_cells(self):
        for row in self.cells:
            yield from row

    def single_cell_array(self, r, c):
        """A 1x1 array reusing this cell's seed stream (for decoupled runs)."""
        sub = replace(self.cfg, rows=1, cols=1)
        sub.c_th, sub.g_amb, sub.g_lat = self.cfg.c_th, self.cfg.g_amb, self.cfg.g_lat
        child = self._cell_ss[r * self.cfg.cols + c]
        return TempArray(sub, seed=self.seed, cell_seed_sequences=[child])

    def set_mode(self, index, mode, sensor=None):
        cell = self.cells[index[0]][index[1]]
        if mode in (Mode.CPA, Mode.CV, Mode.IS):
            wanted = {Mode.CPA: PhSensor, Mode.CV: (CvSensor, ImpedanceSensor),
                      Mode.IS: ImpedanceSensor}[mode]
            model = sensor if sensor is not None else cell.sensor
            if not isinstance(model, wanted):
                raise ConfigurationError(f"mode {mode.value} needs a matching sensor model")
            cell.sensor = model
        cell.mode = mode

    def force_temperature(self, t_c):
        """Clamp the whole plant to a uniform temperature (external heater)."""
        self.temp = np.full((self.cfg.rows, self.cfg.cols), float(t_c))

    def _measure_count(self, cell, rng=None, n_avg=1):
        """Plain-mode temperature conversion; n_avg > 1 averages repeats."""
        r, c = cell.index
        t_k = self.temp[r, c] + 273.15
        rng = self._reg_rng[r][c] if rng is None else rng
        n_chg = self.cfg.madc.n1_counts - cell.cal_preload
        i_in = i_ctat(cell.current_source, cell.bjt, t_k)
        i_ref = i_ptat(cell.current_source, t_k)
        if n_avg == 1:
            n2, _ = discharge_counts(self.cfg.madc, n_chg, i_in, i_ref, rng=rng)
            return min(n2, self.cfg.madc.counter_max)
        n2, _ = discharge_counts(self.cfg.madc, np.full(n_avg, n_chg),
                                 i_in, i_ref, rng=rng)
        return min(int(round(n2.mean())), self.cfg.madc.counter_max)

    # -- calibration -----------------------------------------------------

    def calibrate_one_point(self, t_known=None, n_avg=8):
        """One-point calibration of every cell at a known temperature.

        Sweeps the preload candidates, averages a few noisy conversions
        per candidate, and stores the preload whose centered count best
        matches the nominal design-map count at t_known.  Returns the
        list of cells whose required preload fell outside the range.
        """
        t_known = self.cfg.cal_temperature if t_known is None else t_known
        target = self.temp_map.counts_cont(t_known)
        lo, hi = self.cfg.cal_range
        cals = np.arange(lo, hi)
        failures = []
        t_k = t_known + 273.15
        for cell in self.iter_cells():
            r, c = cell.index
            rng = self._reg_rng[r][c]
            ratio = (i_ctat(cell.current_source, cell.bjt, t_k)
                     / i_ptat(cell.current_source, t_k))
            x = (self.cfg.madc.n1_counts - cals) * ratio
            noise = self.cfg.madc.conversion_noise_counts
            draws = x[None, :] + noise * rng.standard_normal((n_avg, cals.size))
            mean_counts = np.floor(draws + CROSSING_GUARD).mean(axis=0)
            best = int(np.argmin(np.abs(mean_counts + 0.5 - target)))
            cell.cal_preload = int(cals[best])
            # a best fit at the edge of the range means the true optimum
            # may lie outside: report it
            cell.cal_ok = 0 < best < cals.size - 1
            if not cell.cal_ok:
                failures.append(cell.index)
        return failures

    # -- temperature regulation ------------------------------------------

    def run_regulation(self, setpoint_map, duration, trace_conversions=False):
        """Regulate toward a setpoint map for a duration; returns traces.

        Setpoints are Celsius, scalar or per-cell.  PID cycles, the PWM
        duty update, and the plant substeps interleave on the global
        clock; cell state persists across calls so consecutive calls
        build a schedule.
        """
        cfg = self.cfg
        sp = np.asarray(setpoint_map, dtype=float)
        if sp.ndim == 0:
            sp = np.full((cfg.rows, cfg.cols), float(sp))
        if np.any(sp < 20.0) or np.any(sp > 90.0):
            raise DomainError("setpoints outside [20, 90] degC")
        n_cycles = _whole_multiple(duration, cfg.pid_ts, "duration", "PID period")

        for cell in self.iter_cells():
            cell.pid_state.load_setpoint(sp[cell.index], self.pid_coeffs,
                                         self.temp_map, cell.cal_preload,
                                         cfg.madc.pid_charge_scale)

        shape = (n_cycles, cfg.rows, cfg.cols)
        out = RegulationResult(time=np.empty(n_cycles), setpoint=np.empty(shape),
                               t_true=np.empty(shape), t_meas=np.empty(shape),
                               u=np.empty(shape, dtype=int), duty=np.empty(shape),
                               warnings=[], conv_trace=[] if trace_conversions else None)
        trace = out.conv_trace
        powers = np.zeros((cfg.rows, cfg.cols))
        duties = np.zeros((cfg.rows, cfg.cols))

        for k in range(n_cycles):
            for cell in self.iter_cells():
                r, c = cell.index
                chan = _Channel(self, cell)
                if trace_conversions:
                    chan.trace, chan.cycle = trace, k
                u = pid_cycle(cell.pid_state, self.pid_coeffs, chan)
                # measurement conversion in the cycle's idle slack
                t_read = float(self.temp_map.read_temperature(
                    self._measure_count(cell)))
                duty = 0.0 if u == 0 else duty_of_code(cfg.pwm, u)
                duties[r, c] = duty
                powers[r, c] = duty * cfg.heater.p_max
                out.u[k, r, c] = u
                out.t_meas[k, r, c] = t_read
                # persistent-saturation warning
                if cell.pid_state.saturated:
                    if math.isnan(self._sat_since[r, c]):
                        self._sat_since[r, c] = self._time
                    elif self._time - self._sat_since[r, c] > 10.0:
                        out.warnings.append((cell.index, self._sat_since[r, c],
                                             self._time))
                        self._sat_since[r, c] = self._time
                else:
                    self._sat_since[r, c] = np.nan

            temp = self.temp
            for _ in range(self._substeps):
                temp = thermal.step_temps(temp, powers, cfg.c_th, cfg.g_lat,
                                          cfg.g_amb, cfg.t_ambient, cfg.thermal_dt)
            self.temp = temp
            self._time += cfg.pid_ts
            out.time[k] = self._time
            out.setpoint[k] = sp
            out.t_true[k] = temp
            out.duty[k] = duties
        return out

    # -- characterization --------------------------------------------------

    def characterize_sensor(self, t_values=None, n_avg=4):
        """Transfer table over a forced temperature sweep, per cell.

        Static characterization averages a few conversions per point.
        Returns counts, design-map readbacks and their errors, plus the
        per-cell straight-line fit of counts versus temperature with its
        residuals expressed in counts and in Celsius.
        """
        t_values = np.arange(20.0, 91.0) if t_values is None else np.asarray(t_values, dtype=float)
        n_cells = self.cfg.rows * self.cfg.cols
        counts = np.empty((n_cells, t_values.size))
        for j, t_c in enumerate(t_values):
            self.force_temperature(t_c)
            for i, cell in enumerate(self.iter_cells()):
                counts[i, j] = self._measure_count(cell, n_avg=n_avg)
        t_read = self.temp_map.read_temperature(counts)
        map_error = t_read - t_values[None, :]
        a = np.vstack([t_values, np.ones_like(t_values)]).T
        coef, *_ = np.linalg.lstsq(a, counts.T, rcond=None)
        resid = counts.T - a @ coef
        slope_local = np.gradient(self.temp_map.counts_cont(t_values), t_values)
        resid_c = resid / np.abs(slope_local)[:, None]
        return CharacterizeResult(
            t_values=t_values, counts=counts, t_read=t_read, map_error=map_error,
            die_mean_error=map_error.mean(axis=0),
            fit_slope=coef[0], fit_intercept=coef[1],
            fit_resid_counts=np.abs(resid).max(axis=0),
            fit_resid_celsius=np.abs(resid_c).max(axis=0))

    # -- measurement modes -------------------------------------------------

    def _mode_cell(self, index, mode):
        cell = self.cells[index[0]][index[1]]
        if cell.mode is not mode:
            raise ConfigurationError(f"cell {index} is not in {mode.value} mode")
        return cell

    def run_cpa(self, index, wave, duration, sample_period=0.01, i_ref=4e-9):
        """Constant-potential trace: counts and reconstructed current vs time."""
        if wave.kind != "constant":
            raise ConfigurationError("CPA needs a constant waveform")
        cell = self._mode_cell(index, Mode.CPA)
        r, c = index
        rng = self._meas_rng[r][c]
        temp_c = self.temp[r, c]
        times = np.arange(int(duration / sample_period)) * sample_period
        currents = np.array([cell.sensor.current(wave.v_low, t, temp_c) for t in times])
        counts = _digitize_bipolar(self.cfg.madc, currents, i_ref, rng)
        return times, counts, counts * (i_ref / self.cfg.madc.n1_counts)

    def run_cv(self, index, wave, sample_period=0.01, i_ref=None):
        """Cyclic voltammogram: (applied voltage, reconstructed current) pairs."""
        if wave.kind != "ramp_cyclic":
            raise ConfigurationError("CV needs a ramp_cyclic waveform")
        cell = self._mode_cell(index, Mode.CV)
        r, c = index
        rng = self._meas_rng[r][c]
        temp_c = self.temp[r, c]
        n_half = max(1, int(round((wave.v_high - wave.v_low)
                                  / (wave.scan_rate * sample_period))))
        up = wave.v_low + (wave.v_high - wave.v_low) * np.arange(n_half + 1) / n_half
        v_cycle = np.concatenate([up, up[-2::-1]])
        v = np.tile(v_cycle, wave.cycles)
        times = np.arange(v.size) * sample_period
        if isinstance(cell.sensor, ImpedanceSensor):
            currents = network_transient_currents(cell.sensor.network, v, sample_period)
        else:
            currents = np.array([cell.sensor.current(vk, t, temp_c)
                                 for vk, t in zip(v, times)])
        if i_ref is None:
            i_ref = 1.25 * max(np.abs(currents).max(), 1e-12)
        counts = _digitize_bipolar(self.cfg.madc, currents, i_ref, rng)
        return v, counts * (i_ref / self.cfg.madc.n1_counts)

    def run_is(self, index, freqs, n_periods=4, amplitude=0.01, noise_rms=None):
        """Impedance spectrum via the converter's multiply-accumulate.

        For each frequency the interrogation snaps onto the conversion
        grid (integer conversions per effective period), the response is
        digitized while multiplied by 7-bit sine/cosine tables over an
        integer number of periods, and the accumulated sums are scaled
        into the complex impedance.
        """
        cell = self._mode_cell(index, Mode.IS)
        r, c = index
        rng = self._meas_rng[r][c]
        if int(n_periods) != n_periods or n_periods < 1:
            raise ConfigurationError("n_periods must be a positive integer")
        results = []
        for f_req in np.atleast_1d(freqs):
            if not (0.1 <= f_req <= 10e3):
                raise DomainError("frequency outside [0.1 Hz, 10 kHz]")
            results.append(self._fra_point(cell, float(f_req), int(n_periods),
                                           amplitude, rng, noise_rms))
        return results

    def _fra_point(self, cell, f_req, n_periods, amplitude, rng, noise_rms):
        cfg = self.cfg.madc
        f_conv = cfg.conversion_rate
        if f_req <= f_conv / 8.0:
            m = int(round(f_conv / f_req))
            cycles_per_window = 1
        else:
            m = 64
            cycles_per_window = max(1, int(round(f_req * m / f_conv)))
            while math.gcd(cycles_per_window, m) != 1:
                cycles_per_window += 1
        f_act = cycles_per_window * f_conv / m
        cell.sensor.prepare_sinusoid(f_act, amplitude)

        # range the reference so peak counts sit well inside the counter
        i_peak = cell.sensor._i_mag
        i_ref = max(i_peak, 1e-15) * cfg.n1_counts / 380.0
        run_cfg = replace(cfg, c_int=max(cfg.c_int,
                                         1.2 * i_ref * cfg.n1_counts / cfg.f_clk / cfg.v_full))

        w = m * n_periods
        dt_conv = cfg.slot_clocks / cfg.f_clk
        sums = []
        mats = []
        for widx, table_fn in enumerate((np.sin, np.cos)):
            t_k = (widx * w + np.arange(w)) * dt_conv
            theta = 2.0 * math.pi * f_act * t_k
            table = np.round(table_fn(theta) * 128) / 128.0
            live = table != 0.0
            i_t = cell.sensor.currents_at(t_k)
            if noise_rms:
                i_t = i_t + noise_rms * rng.standard_normal(w)
            counts = np.zeros(w)
            scaled = np.abs(table[live]) * cfg.n1_counts
            n2, _ = discharge_counts(run_cfg, np.round(scaled),
                                     np.abs(i_t[live]), i_ref, rng=rng)
            counts[live] = np.sign(table[live]) * np.sign(i_t[live]) * n2
            sums.append(counts.sum() * i_ref / cfg.n1_counts)
            mats.append((np.dot(table, np.sin(theta)), np.dot(table, np.cos(theta))))
        a = np.array(mats)
        rhs = np.array(sums)
        sol = np.linalg.solve(a, rhs)       # [i_m cos(phi), i_m sin(phi)]
        i_phasor = complex(sol[0], sol[1])
        z = amplitude * i_phasor.conjugate() / abs(i_phasor) ** 2
        return FraResult(freq=f_act, z_real=z.real, z_imag=z.imag,
                         n_periods_integrated=n_periods)


def _whole_multiple(total, unit, what, unit_name):
    """total/unit as an int; rejects a ratio that is not a whole number >= 1."""
    ratio = total / unit
    n = int(round(ratio))
    # relative tolerance for the representation error of the two floats
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ConfigurationError(
            f"{what} {total:g} s is not a whole number of {unit_name}s ({unit:g} s)")
    return n


def _digitize_bipolar(cfg, currents, i_ref, rng):
    # integration-cap range setting so full-scale inputs do not clip
    run_cfg = replace(cfg, c_int=max(cfg.c_int,
                                     1.2 * i_ref * cfg.n1_counts / cfg.f_clk / cfg.v_full))
    return convert_signed(run_cfg, currents, i_ref, rng=rng)
