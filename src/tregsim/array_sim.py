"""Array orchestrator: owns the cells, the plant, and the global clock.

Ties together per-cell device models, the shared-converter channel, the
PID loop, the PWM, and the thermal grid; provides the measurement modes
(CPA, CV, IS), one-point calibration, and the characterization sweeps.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import thermal
from .devices import (BjtParams, CurrentSourceParams, CvSensor, HeaterParams,
                      ImpedanceSensor, PhSensor, i_ctat, i_ptat,
                      network_transient_currents)
from .errors import ConfigurationError, DomainError
from .madc import (COEFF_LEVELS, MadcConfig, TemperatureMap, channel_noise,
                   convert, convert_signed, discharge_counts)
from .pid import PidCoefficients, PidState, default_tuning, pid_cycle
from .pwm import PwmConfig, duty_of_code

# Longest IS period, in conversions: a grid point's tables and converter
# batch grow with it.  About 21x the default grid's longest, 48828 at 0.1 Hz.
MAX_FRA_PERIOD = 2 ** 20


class Mode(Enum):
    CPA = "cpa"
    CV = "cv"
    IS = "is"
    TEMP_REG = "temp_reg"


@dataclass
class WaveformSpec:
    """Interrogation waveform: constant level or cyclic ramp."""

    kind: str = "constant"
    v_low: float = 0.0
    v_high: float = 0.0
    scan_rate: float = 0.1
    cycles: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "ramp_cyclic"):
            raise ConfigurationError(f"unknown waveform kind {self.kind!r}")
        if self.kind == "ramp_cyclic":
            if not (self.v_low < self.v_high) or self.scan_rate <= 0:
                raise ConfigurationError("ramp needs v_low < v_high and scan_rate > 0")


@dataclass(frozen=True)
class FraResult:
    freq: float
    z_real: float
    z_imag: float


@dataclass
class CellState:
    index: tuple
    mode: Mode
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


class TempArray:
    """A rows x cols array of regulated cells on a shared thermal grid."""

    def __init__(self, cfg=None, seed=0, cell_seed_sequences=None):
        self.cfg = cfg if cfg is not None else ArrayConfig()
        cfg = self.cfg
        if cfg.rows < 1 or cfg.cols < 1:
            raise ConfigurationError(
                f"array.rows and array.cols must be >= 1, got {cfg.rows} x {cfg.cols}")
        for key in ("sigma_vbe", "sigma_r1", "sigma_r2", "sigma_mirror"):
            if getattr(cfg, key) < 0:
                raise ConfigurationError(
                    f"mismatch.{key} must be >= 0, got {getattr(cfg, key)!r}")
        if cfg.c_th is None or cfg.g_amb is None or cfg.g_lat is None:
            c_th, g_amb, g_lat = thermal.fit_defaults(
                target_rise=65.0, p_at_target=cfg.heater.p_max, step_time=10.0)
            cfg.c_th = c_th if cfg.c_th is None else cfg.c_th
            cfg.g_amb = g_amb if cfg.g_amb is None else cfg.g_amb
            cfg.g_lat = g_lat if cfg.g_lat is None else cfg.g_lat
        thermal.check_plant(cfg.c_th, cfg.g_amb, cfg.g_lat, cfg.thermal_dt)
        # the calibration word is a counter preload: a full scale at or
        # below the largest one leaves calibration no charge phase
        if cfg.madc.counter_max <= cfg.cal_range[1] - 1:
            raise ConfigurationError(
                f"madc.n_bits {cfg.madc.n_bits} gives a full scale of "
                f"{cfg.madc.counter_max} counts, not above the largest "
                f"calibration preload {cfg.cal_range[1] - 1}")
        self._substeps = _whole_multiple(cfg.pid_ts, cfg.thermal_dt,
                                         "PID period", "thermal step")
        # per-cycle plant map, built on the first regulation run: most
        # arrays (sensing, calibration sweeps) never regulate
        self._cycle_map = None
        # tables of the last FRA grid point, as (key, _FraTables)
        self._fra_memo = None

        self.seed = seed
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._root_ss = ss
        if cell_seed_sequences is None:
            # the keys of the children that ss.spawn gives a fresh
            # sequence, derived without spawning from ss: one sequence
            # always builds one array
            children = [_CellKey(ss.entropy, (*ss.spawn_key, i))
                        for i in range(cfg.rows * cfg.cols)]
        else:
            if len(cell_seed_sequences) != cfg.rows * cfg.cols:
                raise ConfigurationError("one seed sequence per cell required")
            children = list(cell_seed_sequences)
        self._cell_ss = children
        self._reg_rng = [[None] * cfg.cols for _ in range(cfg.rows)]
        # measurement streams are built on first use: most arrays never
        # run CPA, CV or IS
        self._meas_rng = [_MeasurementStreams(children[r * cfg.cols:(r + 1) * cfg.cols])
                          for r in range(cfg.rows)]

        self.temp_map = TemperatureMap(cfg.madc, cfg.bjt, cfg.current_source)
        if cfg.pid_gains is None:
            gains = default_tuning(cfg.c_th, cfg.g_amb, cfg.heater.p_max,
                                   self.temp_map.pid_counts_per_kelvin(), cfg.pid_ts)
        else:
            gains = cfg.pid_gains
        self.pid_coeffs = PidCoefficients.derive(
            *gains, cfg.pid_ts,
            counts_per_kelvin=self.temp_map.pid_counts_per_kelvin())

        # realized devices and calibration words, one value per cell
        shape = (cfg.rows, cfg.cols)
        cs = cfg.current_source
        gauss = np.empty((4,) + shape)
        self.cal_preload = np.zeros(shape, dtype=int)
        self.cal_ok = np.ones(shape, dtype=bool)
        self.cells = []
        for r in range(cfg.rows):
            row = []
            for c in range(cfg.cols):
                rng = _cell_stream(children[r * cfg.cols + c], 0)
                self._reg_rng[r][c] = rng
                # Gaussian mismatch in one call, in a fixed draw order:
                # absolute on vbe, relative on r1, r2 and the mirror ratio
                gauss[:, r, c] = rng.standard_normal(4)
                row.append(CellState(index=(r, c), mode=Mode.TEMP_REG))
            self.cells.append(row)
        # scaled as Generator.normal(0.0, sigma) scales its draw, so a
        # zero sigma gives +0.0
        sigmas = np.array([cfg.sigma_vbe, cfg.sigma_r1, cfg.sigma_r2, cfg.sigma_mirror])
        vbe_offset, d_r1, d_r2, d_mirror = 0.0 + sigmas[:, None, None] * gauss
        self.bjt = replace(cfg.bjt, vbe_offset=vbe_offset)
        # rejects a draw with r1 or r2 <= 0 or a mirror ratio below 1
        self.current_source = replace(cs, r1=cs.r1 * (1.0 + d_r1), r2=cs.r2 * (1.0 + d_r2),
                                      mirror_ratio=cs.mirror_ratio * (1.0 + d_mirror))

        # loop state of every cell, kept across regulation calls
        self.pid_state = PidState(np.zeros(shape, dtype=int))
        self.temp = np.full(shape, cfg.t_ambient, dtype=float)
        self._sat_since = np.full(shape, np.nan)
        self._time = 0.0

    # -- helpers ---------------------------------------------------------

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

    def front_end_currents(self, t_c):
        """CTAT and PTAT currents of every cell at t_c (Celsius).

        t_c broadcasts against (rows, cols): a plant field, one
        temperature for all cells, or a sweep shaped (n, 1, 1) that puts
        every cell at each temperature in turn.  self.bjt and
        self.current_source hold each cell's realized devices as
        (rows, cols) arrays: the configured ones plus the drawn mismatch
        (vbe offset, r1, r2, mirror ratio).
        """
        t_k = np.asarray(t_c, dtype=float) + 273.15
        return i_ctat(self.current_source, self.bjt, t_k), i_ptat(self.current_source, t_k)

    def _cell_noise(self, shape):
        """Channel noise of every cell, shaped shape + (rows, cols).

        Each cell draws its whole block in one call on its own stream,
        in C order over shape, as channel_noise would; None on a
        noiseless channel.  The result is a view of a cells-first
        buffer, (rows, cols) + shape, in which each block is contiguous.
        """
        sigma = self.cfg.madc.conversion_noise_counts
        if sigma == 0:
            return None
        buf = np.empty((self.cfg.rows, self.cfg.cols) + shape)
        for r, row in enumerate(self._reg_rng):
            for c, rng in enumerate(row):
                rng.standard_normal(out=buf[r, c])
        # scaled as Generator.normal(0.0, sigma) scales its draw
        buf *= sigma
        buf += 0.0
        return np.moveaxis(buf, (0, 1), (-2, -1))

    def read_counts(self, currents=None, n_avg=1):
        """Plain-mode temperature conversion of every cell at once.

        currents is a (i_ctat, i_ptat) pair from front_end_currents,
        shaped (..., rows, cols); by default the front end at the plant
        field.  Each count is the mean of n_avg conversions, rounded and
        clamped to the counter.  Every cell draws the channel noise of
        its conversions in one call on its own stream, in the order the
        conversions run.
        """
        cfg = self.cfg.madc
        i_in, i_ref = self.front_end_currents(self.temp) if currents is None else currents
        noise = self._cell_noise(np.shape(i_in)[:-2] + (n_avg,))
        if noise is not None:
            noise = np.moveaxis(noise, -3, -1)
        n_chg = cfg.n1_counts - self.cal_preload
        n2, _ = discharge_counts(cfg, n_chg[..., None], i_in[..., None],
                                 i_ref[..., None], noise)
        return np.minimum(np.round(n2.mean(axis=-1)), cfg.counter_max).astype(int)

    # -- calibration -----------------------------------------------------

    def calibrate_one_point(self, t_known=None, n_avg=8):
        """One-point calibration of every cell at a known temperature.

        Converts every preload candidate n_avg times per cell through the
        shared converter, all cells in one batch, and stores in
        self.cal_preload the preload whose mean centered count best
        matches the nominal design-map count at t_known.  Returns the
        list of cells, in row-major order, whose required preload fell
        outside the range.
        """
        cfg = self.cfg.madc
        t_known = self.cfg.cal_temperature if t_known is None else t_known
        target = self.temp_map.counts_cont(t_known)
        lo, hi = self.cfg.cal_range
        cals = np.arange(lo, hi)
        i_in, i_ref = self.front_end_currents(t_known)
        # (rows, cols, n_avg, candidates), each cell's noise block in the
        # order one cell's (n_avg, candidates) draw gives it; a noiseless
        # batch has one conversion per candidate, and averages that
        noise = self._cell_noise((n_avg, cals.size))
        if noise is not None:
            noise = np.moveaxis(noise, (-2, -1), (0, 1))
        n2, _ = discharge_counts(cfg, cfg.n1_counts - cals, i_in[..., None, None],
                                 i_ref[..., None, None], noise)
        best = np.argmin(np.abs(n2.mean(axis=-2) + 0.5 - target), axis=-1)
        self.cal_preload[...] = cals[best]
        # a best fit at the edge of the range means the true optimum
        # may lie outside: report it
        self.cal_ok[...] = (0 < best) & (best < cals.size - 1)
        return [tuple(index) for index in np.argwhere(~self.cal_ok).tolist()]

    # -- temperature regulation ------------------------------------------

    def run_regulation(self, setpoint_map, duration, trace_conversions=False):
        """Regulate toward a setpoint map for a duration; returns traces.

        Setpoints are Celsius, scalar or per-cell.  PID cycles, the PWM
        duty update, and the plant advance interleave on the global
        clock: each cycle's duty is held while the plant advances one
        PID period.  Cell state persists across calls so consecutive
        calls build a schedule.
        """
        cfg = self.cfg
        sp = np.asarray(setpoint_map, dtype=float)
        if sp.ndim == 0:
            sp = np.full((cfg.rows, cfg.cols), float(sp))
        if np.any(sp < 20.0) or np.any(sp > 90.0):
            raise DomainError("setpoints outside [20, 90] degC")
        n_cycles = _whole_multiple(duration, cfg.pid_ts, "duration", "PID period")
        madc = cfg.madc
        coeffs = self.pid_coeffs
        state = self.pid_state
        state.load_setpoint(sp, coeffs, self.temp_map, self.cal_preload,
                            madc.pid_charge_scale)

        shape = (n_cycles, cfg.rows, cfg.cols)
        out = RegulationResult(time=np.empty(n_cycles), setpoint=np.empty(shape),
                               t_true=np.empty(shape), t_meas=np.empty(shape),
                               u=np.empty(shape, dtype=int), duty=np.empty(shape),
                               warnings=[], conv_trace=[] if trace_conversions else None)
        if self._cycle_map is None:
            self._cycle_map = thermal.cycle_map(
                self.temp.shape, cfg.c_th, cfg.g_lat, cfg.g_amb,
                cfg.thermal_dt, self._substeps)
        a, b = self._cycle_map

        # every cell's cycle is one converter batch: its active slots,
        # then its plain measurement, one row each in that order.  The
        # columns give each row's coefficient magnitude, sign and
        # full-scale charge count; the measurement is a unit-coefficient
        # conversion with preload 0 and sign -1, so it counts n2.
        active = [n for n in range(3) if coeffs.mantissas[n] != 0]
        slot_mags = [coeffs.magnitudes[n] for n in active]
        mags = np.array(slot_mags + [1.0])[:, None, None]
        signs = np.array([1] * len(active) + [-1])[:, None, None]
        n1 = np.array([madc.pid_n1_counts] * len(active) + [madc.n1_counts])[:, None, None]
        # the loaded calibration word scales with the coefficient: the
        # trim is a relative gain correction of the charge phase
        cal_words = np.stack([np.round(mag * self.cal_preload * madc.pid_charge_scale)
                              .astype(int) for mag in slot_mags] + [self.cal_preload])
        targets = np.zeros_like(cal_words)
        # each cell draws the run's noise in one call on its own stream,
        # in the order its conversions run
        noise = self._cell_noise((n_cycles, len(active) + 1))
        conv = None

        def measure(preloads):
            # every conversion of every cell in cycle k, on the cycle's
            # front-end currents
            nonlocal conv
            targets[:-1] = preloads
            conv = convert(madc, i_in, i_ref, mags, cal_words, targets, coeff_sign=signs,
                           noise=None if noise is None else noise[k], n1_counts=n1)
            return conv.out_count[:-1]

        grid = (cfg.rows, cfg.cols)
        for k in range(n_cycles):
            # the field is constant within a cycle: one front-end
            # evaluation serves the whole batch
            i_in, i_ref = self.front_end_currents(self.temp)
            u = out.u[k] = pid_cycle(state, coeffs, measure)
            if out.conv_trace is not None:
                _trace_rows(out.conv_trace, k, active, slot_mags, targets, conv)
            # code 0 is the heater off, not the PWM's minimum duty
            on = u > 0
            duties = np.zeros(grid)
            duties[on] = duty_of_code(cfg.pwm, u[on])
            powers = duties * cfg.heater.p_max
            # persistent-saturation warning: a cell saturated for more
            # than 10 s warns, and its saturated run restarts
            saturated = state.saturated_cells
            since = self._sat_since
            due = saturated & (self._time - since > 10.0)
            for index in zip(*(ix.tolist() for ix in np.nonzero(due))):
                out.warnings.append((index, since[index], self._time))
            since[due | (saturated & np.isnan(since))] = self._time
            since[~saturated] = np.nan
            out.t_meas[k] = self.temp_map.read_temperature(conv.out_count[-1])

            # the duty is held over the cycle, so its thermal.dt substeps
            # compose exactly into one affine map
            rise = a @ (self.temp - cfg.t_ambient).ravel() + b @ powers.ravel()
            self.temp = cfg.t_ambient + rise.reshape(self.temp.shape)
            self._time += cfg.pid_ts
            out.time[k] = self._time
            out.setpoint[k] = sp
            out.t_true[k] = self.temp
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
        sweep = self.front_end_currents(t_values[:, None, None])
        counts = self.read_counts(sweep, n_avg=n_avg).reshape(t_values.size, -1).T
        self.force_temperature(t_values[-1])
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
        counts = convert_signed(_ranged(self.cfg.madc, i_ref), currents, i_ref, rng=rng)
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
        counts = convert_signed(_ranged(self.cfg.madc, i_ref), currents, i_ref, rng=rng)
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
        if not amplitude > 0:
            raise ConfigurationError(
                f"is_mode.amplitude must be positive, got {amplitude!r}")
        results = []
        for f_req in np.atleast_1d(freqs):
            if not (0.1 <= f_req <= 10e3):
                raise DomainError("frequency outside [0.1 Hz, 10 kHz]")
            f, mat, sums = self._fra_point(cell, float(f_req), int(n_periods),
                                           amplitude, rng, noise_rms)
            re, im = _solve_2x2(mat, sums)
            i_phasor = complex(re, im)
            z = amplitude * i_phasor.conjugate() / abs(i_phasor) ** 2
            results.append(FraResult(freq=f, z_real=z.real, z_imag=z.imag))
        return results

    def _fra_tables(self, m, cycles_per_window):
        """The sine/cosine tables of one grid point, shared by every sensor.

        A grid point is m conversions per period holding
        cycles_per_window sine cycles.  Returns _FraTables: the actual
        frequency, the sine and cosine of the excitation phase at the
        conversions of one period, per basis (sine, cosine) the charge
        counts and sign of the 7-bit table at every conversion, and the
        projections of both tables on both bases for one period.  A slot
        whose coefficient rounds to zero has zero charge, so it counts 0.
        Only the last grid point is kept: a sweep that measures every
        sensor at one frequency before the next builds each point once.
        """
        key = (m, cycles_per_window)
        if self._fra_memo is not None and self._fra_memo[0] == key:
            return self._fra_memo[1]
        cfg = self.cfg.madc
        f_act = cycles_per_window * cfg.conversion_rate / m
        # one sine cycle of m phases 2*pi*j/m, evaluated for j < ceil(m/2)
        # and completed by the antiperiod x[j + m/2] = -x[j] (even m) or
        # the mirror sin[m - j] = -sin[j], cos[m - j] = cos[j] (odd m)
        h = (m + 1) // 2
        cycle = np.empty((2, m))
        theta = np.arange(h, dtype=float)
        theta *= 2.0 * math.pi
        theta /= m
        np.sin(theta, out=cycle[0, :h])
        np.cos(theta, out=cycle[1, :h])
        if m % 2:
            np.negative(cycle[0, h - 1:0:-1], out=cycle[0, h:])
            cycle[1, h:] = cycle[1, h - 1:0:-1]
        else:
            np.negative(cycle[:, :h], out=cycle[:, h:])
        # both 7-bit tables are q / COEFF_LEVELS, rounded once from the
        # samples.  Scaling by a power of two commutes with rounding, so
        # the projections and charges taken from q scale exactly, and
        # rounding half to even keeps the antiperiod and the mirror.
        q = cycle * COEFF_LEVELS
        np.round(q, out=q)
        # a period's projections do not depend on the order of its phases
        proj = q @ cycle.T
        proj /= COEFF_LEVELS
        if cycles_per_window > 1:
            # conversion k sits at phase (cycles_per_window * k) % m
            phase = np.arange(m) * cycles_per_window % m
            cycle = cycle[:, phase]
            q = q[:, phase]
        charge = np.abs(q)
        charge *= cfg.n1_counts / COEFF_LEVELS
        np.round(charge, out=charge)
        tables = _FraTables(f_act, cycle, charge, np.sign(q), proj)
        self._fra_memo = (key, tables)
        return tables

    def _fra_point(self, cell, f_req, n_periods, amplitude, rng, noise_rms):
        """One frequency on one cell: (actual frequency, 2x2 matrix, sums).

        The response projected on the sine and cosine tables solves the
        2x2 system matrix @ [i_m cos(phi), i_m sin(phi)] = sums.
        """
        cfg = self.cfg.madc
        m, cycles_per_window = _fra_grid_point(cfg, f_req)
        tables = self._fra_tables(m, cycles_per_window)
        cell.sensor.prepare_sinusoid(tables.f_act, amplitude)

        # range the reference so peak counts sit well inside the counter
        i_peak = cell.sensor._i_mag
        i_ref = max(i_peak, 1e-15) * cfg.n1_counts / 380.0
        run_cfg = _ranged(cfg, i_ref)

        # theta repeats every m conversions and each window spans
        # n_periods * m of them, so the tables, their projections and the
        # response are computed on one period.  Noise is still drawn per
        # sample, one row per period in window order, basis by basis as
        # the windows run: each basis's front-end noise, then its channel
        # noise at its live slots only.  Without noise the one period's
        # counts stand for every period, and an even period's first half
        # for both halves: the antiperiodic tables negate the second
        # half's response and table signs exactly and repeat its counts.
        fold = m % 2 == 0 and not noise_rms and not run_cfg.conversion_noise_counts
        n = m // 2 if fold else m
        basis, charge, table_sign = (t[:, :n] for t in (tables.basis, tables.charge, tables.sign))
        i_t = cell.sensor.response(*basis)
        front = []
        chan = np.zeros((2, n_periods, m)) if run_cfg.conversion_noise_counts else None
        for b, sign in enumerate(table_sign):
            if noise_rms:
                front.append(noise_rms * rng.standard_normal((n_periods, m)))
            if chan is not None:
                live = sign != 0
                draws = channel_noise(run_cfg, rng, (n_periods, np.count_nonzero(live)))
                # a mask over every row, not a column index: numpy's fast path
                chan[b][np.broadcast_to(live, (n_periods, m))] = draws.ravel()
        i_w = (i_t + np.stack(front)) if front else i_t
        # both bases in one batch: charge rows (2, 1, n) against the
        # response, (n,) or (2, n_periods, m)
        sign_i = np.sign(i_w)
        n2, _ = discharge_counts(run_cfg, charge[:, None], np.abs(i_w, out=i_w),
                                 i_ref, chan)
        # whole counts: their signed sum over rows, scaled to n_periods
        # whole periods, is exact
        counts = sign_i * n2
        scale = n_periods // counts.shape[1] * (m // n)
        sums = [total * scale * i_ref / cfg.n1_counts
                for total in (counts @ table_sign[..., None]).sum(axis=(1, 2)).tolist()]
        return tables.f_act, (n_periods * tables.proj).tolist(), sums


class _FraTables(NamedTuple):
    """Tables of one FRA grid point; see TempArray._fra_tables."""

    f_act: float
    basis: np.ndarray             # rows: sin(theta), cos(theta) over one period
    charge: np.ndarray            # rows: sine, cosine table; 0 at a dead slot
    sign: np.ndarray              # rows: sine, cosine table; 0 at a dead slot
    proj: np.ndarray              # rows: tables; columns: sine, cosine


def _solve_2x2(mat, rhs):
    """x with mat @ x = rhs for one 2x2 system, by Cramer's rule."""
    (a, b), (c, d) = mat
    s, t = rhs
    det = a * d - b * c
    return (d * s - b * t) / det, (a * t - c * s) / det


def _trace_rows(trace, k, slots, mags, targets, conv):
    """Append cycle k's error conversions to trace in (row, col, slot) order.

    slots and mags list the active slots and their coefficient
    magnitudes; targets and conv hold the cycle's batch, whose first
    len(slots) rows are the error conversions.  Each row is (cycle, row,
    col, slot, coeff_mag, preload, n_charge, n2, product).
    """
    n = len(slots)
    fields = np.stack((targets[:n], conv.n_charge[:n], conv.n_discharge[:n],
                       -conv.out_count[:n]), axis=-1)
    fields = np.moveaxis(fields, 0, -2)
    for (r, c, j), row in zip(np.ndindex(fields.shape[:-1]),
                              fields.reshape(-1, 4).tolist()):
        trace.append((k, r, c, slots[j], mags[j], *row))


def _whole_multiple(total, unit, what, unit_name):
    """total/unit as an int; rejects a ratio that is not a whole number >= 1."""
    ratio = total / unit
    n = int(round(ratio))
    # relative tolerance for the representation error of the two floats
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ConfigurationError(
            f"{what} {total:g} s is not a whole number of {unit_name}s ({unit:g} s)")
    return n


class _CellKey(NamedTuple):
    """A cell's seed key: the entropy and spawn key of its SeedSequence."""

    entropy: object
    spawn_key: tuple


def _cell_stream(child, word):
    """Generator `word` of a cell, derived statelessly from its seed key.

    child is a _CellKey or a SeedSequence.
    """
    return np.random.default_rng(np.random.SeedSequence(
        entropy=child.entropy, spawn_key=(*child.spawn_key, word)))


class _MeasurementStreams(list):
    """One row of measurement generators, each derived on first access.

    Item c is _cell_stream(seeds[c], 1); since the derivation is
    stateless, a late build gives the same stream as an early one.
    """

    def __init__(self, seeds):
        super().__init__([None] * len(seeds))
        self._seeds = seeds

    def __getitem__(self, c):
        rng = super().__getitem__(c)
        if rng is None:
            rng = self[c] = _cell_stream(self._seeds[c], 1)
        return rng


def _ranged(cfg, i_ref):
    """cfg with the integration cap ranged so full-scale inputs do not clip.

    cfg itself when its cap already suffices.
    """
    c_int = 1.2 * i_ref * cfg.n1_counts / cfg.f_clk / cfg.v_full
    return cfg if cfg.c_int >= c_int else replace(cfg, c_int=c_int)


def _fra_grid_point(cfg, f_req):
    """(m, cycles_per_window): the IS grid point f_req snaps to.

    Up to an eighth of the conversion rate, a period is m conversions
    holding one sine cycle; above, 64 conversions hold an odd number of
    cycles.  Rejects a period longer than MAX_FRA_PERIOD conversions.
    """
    f_conv = cfg.conversion_rate
    if f_req > f_conv / 8.0:
        m = 64
        cycles_per_window = max(1, int(round(f_req * m / f_conv)))
        while math.gcd(cycles_per_window, m) != 1:
            cycles_per_window += 1
        return m, cycles_per_window
    m = int(round(f_conv / f_req))
    if m > MAX_FRA_PERIOD:
        raise ConfigurationError(
            f"an IS period at {f_req:g} Hz takes {m} conversions, more than "
            f"{MAX_FRA_PERIOD}: madc.f_clk ({cfg.f_clk:g}) and madc.n_bits "
            f"({cfg.n_bits}) set {f_conv:g} conversions/s; lower them or "
            "raise is_mode.f_lo")
    return m, 1
