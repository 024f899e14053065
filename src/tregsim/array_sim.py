"""Array orchestrator: owns the cells, the plant, and the global clock.

Ties together per-cell device models, the shared-converter channel, the
PID loop, the PWM, and the thermal grid; provides the measurement modes
(CPA, CV, IS), one-point calibration, and the characterization sweeps.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import thermal
from .config import IS_FREQ_RANGE, SETPOINT_RANGE, check, check_fields, setting
from .devices import BjtParams, CurrentSourceParams, HeaterParams, i_ctat, i_ptat
from .errors import ConfigurationError, DomainError, require
from .madc import (COEFF_LEVELS, MadcConfig, TemperatureMap, charge_phase, convert,
                   convert_signed, discharge_counts, ranged)
from .pid import PidCoefficients, PidState, default_tuning, pid_cycle
from .pwm import PwmConfig, duty_of_code
from .streams import generators

# Longest IS period, in conversions: a grid point's tables and converter
# batch grow with it.  About 21x the default grid's longest, 48828 at 0.1 Hz.
MAX_FRA_PERIOD = 2 ** 20
# IS ranges each response's peak to this fraction of the converter's full
# scale, clear of the counter and the integrator cap at any width: 380
# counts at 9 bits
IS_PEAK = 380 / 512

# CPA and CV sample the channel every SAMPLE_PERIOD seconds; a CV scan
# holds at most MAX_CV_SAMPLES samples, about 750x the default scan's 1401
SAMPLE_PERIOD = 0.01
MAX_CV_SAMPLES = 2 ** 20
# CPA's full scale: the front end's current over 2 pH units either side
# of its reference is 3.6 nA
CPA_I_REF = 4e-9

# one-point calibration tries the preloads range(*CAL_RANGE), at
# CAL_TEMPERATURE degC unless the caller names another temperature
CAL_RANGE = (-64, 64)
CAL_TEMPERATURE = 50.0

@dataclass(frozen=True)
class ArrayConfig:
    """The array's settings, checked when built.

    A plant parameter left None is fitted by thermal.fit_defaults.  The design map and
    the loop coefficients are derived here, once: every array built on the config shares them.
    """

    rows: int = setting("array.rows")
    cols: int = setting("array.cols")
    t_ambient: float = setting("array.t_ambient")
    bjt: BjtParams = field(default_factory=BjtParams)
    current_source: CurrentSourceParams = field(default_factory=CurrentSourceParams)
    heater: HeaterParams = field(default_factory=HeaterParams)
    madc: MadcConfig = field(default_factory=MadcConfig)
    pwm: PwmConfig = field(default_factory=PwmConfig)
    c_th: float = setting("thermal.c_th")
    g_amb: float = setting("thermal.g_amb")
    g_lat: float = setting("thermal.g_lat")
    pid_ts: float = setting("pid.ts")
    pid_gains: tuple = None       # (kp, ki, kd); None: default_tuning
    sigma_vbe: float = setting("mismatch.sigma_vbe")
    sigma_r1: float = setting("mismatch.sigma_r1")
    sigma_r2: float = setting("mismatch.sigma_r2")
    sigma_mirror: float = setting("mismatch.sigma_mirror")
    temp_map: TemperatureMap = field(init=False, compare=False, repr=False)
    pid_coeffs: PidCoefficients = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for key, value in zip(("c_th", "g_amb", "g_lat"), thermal.fit_defaults(self.heater.p_max)):
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        # after the fill, so a fitted plant parameter keeps its rule too
        check_fields(self)
        # the calibration word is a counter preload: a full scale at or
        # below the largest one leaves calibration no charge phase
        largest = CAL_RANGE[1] - 1
        require(self.madc.counter_max > largest, "madc.n_bits",
                f">= {largest.bit_length()}, for a full scale 2**n_bits above the "
                f"largest calibration preload {largest}", self.madc.n_bits)
        object.__setattr__(self, "temp_map", TemperatureMap(self.madc, self.bjt,
                                                            self.current_source))
        # the loop's coefficients, on the count slope of its stretched charge phase
        slope = self.temp_map.counts_per_kelvin() * self.madc.pid_charge_scale
        gains = (default_tuning(self.c_th, self.g_amb, self.heater.p_max, slope, self.pid_ts)
                 if self.pid_gains is None else self.pid_gains)
        object.__setattr__(self, "pid_coeffs", PidCoefficients.derive(
            *gains, self.pid_ts, counts_per_kelvin=slope))


@dataclass
class RegulationResult:
    time: np.ndarray              # cycle end times
    t_true: np.ndarray            # (cycles, rows, cols)
    t_meas: np.ndarray
    u: np.ndarray
    duty: np.ndarray
    warnings: list
    conv_trace: dict              # None, or named 1-D columns (see run_regulation)


class TempArray:
    """A rows x cols array of regulated cells on a shared thermal grid."""

    def __init__(self, cfg=None, seed=0):
        self.cfg = cfg = ArrayConfig() if cfg is None else cfg
        self.temp_map, self.pid_coeffs = cfg.temp_map, cfg.pid_coeffs
        # per-cycle plant map, built on the first regulation run: most arrays never regulate
        self._cycle_map = None
        # the loop's converter batch and the calibration words it was built
        # on (see run_regulation), built on the first regulation run on them
        self._loop = None

        # cell i's seed key is (entropy, (*spawn_key, i)): the key of the
        # i-th child that ss.spawn gives a fresh sequence, derived without
        # spawning from ss, so one sequence always builds one array.  Its
        # stream is word 0 of that key; every cell's comes from one
        # streams.stream_seeds pass over the tails (cell, 0), in row-major
        # order.
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self._seed_key = (ss.entropy, ss.spawn_key)
        n_cells = cfg.rows * cfg.cols
        tails = np.zeros((n_cells, 2), dtype=np.uint64)
        tails[:, 0] = np.arange(n_cells)
        self._reg_rng = generators(*self._seed_key, tails)

        # realized devices and calibration words, one value per cell
        shape = (cfg.rows, cfg.cols)
        cs = cfg.current_source
        # read-only: calibrate_one_point sets new words by replacing the
        # array, so a loop batch built on the old one cannot go stale
        self.cal_preload = np.zeros(shape, dtype=int)
        self.cal_preload.flags.writeable = False
        # each cell's Gaussian mismatch in one call on its stream, in a
        # fixed draw order: absolute on vbe, relative on r1, r2 and the
        # mirror ratio
        sigmas = np.array([cfg.sigma_vbe, cfg.sigma_r1, cfg.sigma_r2, cfg.sigma_mirror])
        vbe_offset, d_r1, d_r2, d_mirror = self._cell_normal((4,), sigmas).transpose(2, 0, 1)
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

    def _cell_normal(self, shape, sigma):
        """Normal draws of every cell, shaped (rows, cols) + shape: each
        cell's block in one call on its own stream, in C order, scaled as
        Generator.normal(0.0, sigma) scales it (a zero sigma gives +0.0).
        sigma broadcasts against shape."""
        buf = np.empty((len(self._reg_rng),) + shape)
        for rng, block in zip(self._reg_rng, buf):
            rng.standard_normal(out=block)
        buf *= sigma
        buf += 0.0
        return buf.reshape((self.cfg.rows, self.cfg.cols) + shape)

    def _cell_noise(self, shape):
        """Channel noise of every cell's conversions, shaped (rows, cols) +
        shape (see _cell_normal); None on a noiseless channel.  A fresh
        block, for discharge_counts to use up."""
        sigma = self.cfg.madc.conversion_noise_counts
        return None if sigma == 0 else self._cell_normal(shape, sigma)

    def read_counts(self, t_c, n_avg=1):
        """Plain-mode temperature conversion of every cell at once.

        t_c (Celsius) broadcasts against (rows, cols), as in
        front_end_currents: the counts are shaped like the currents.
        Each count is the mean of n_avg conversions, rounded and clamped
        to the counter.  Every cell draws the channel noise of its
        conversions in one call on its own stream, in the order the
        conversions run; the conversion floors its counts in that noise
        block (see discharge_counts), so the batch keeps one array live.
        """
        cfg = self.cfg.madc
        # the held charge is shaped (rows, cols, ..., 1), in the noise
        # block's cell-major order, so the noise adds in place without a
        # buffer; the counts move back to the currents' order at the end
        i_in, i_ref = (np.moveaxis(i, (-2, -1), (0, 1))[..., None]
                       for i in self.front_end_currents(t_c))
        n_chg = (cfg.n1_counts - self.cal_preload)[(...,) + (None,) * (i_in.ndim - 2)]
        n2, _ = discharge_counts(cfg, n_chg, i_in, i_ref,
                                 self._cell_noise(i_in.shape[2:-1] + (n_avg,)))
        # the mean of each cell's n_avg counts, summed left to right as
        # numpy's mean sums so short an axis, without its slow reduction
        total = n2[..., 0]
        for i in range(1, n_avg):
            total = total + n2[..., i]
        counts = np.minimum(np.round(total / n_avg), cfg.counter_max).astype(int)
        return np.moveaxis(counts, (0, 1), (-2, -1))

    # -- calibration -----------------------------------------------------

    def calibrate_one_point(self, t_known=None, n_avg=8):
        """One-point calibration of every cell at a known temperature.

        Converts every preload candidate n_avg times per cell through the
        shared converter, all cells in one batch, and replaces
        self.cal_preload, read-only, with the preloads whose mean
        centered counts best match the nominal design-map count at
        t_known.  Returns the list of cells, in row-major order, whose
        required preload fell outside the range.
        """
        cfg = self.cfg.madc
        t_known = CAL_TEMPERATURE if t_known is None else t_known
        target = self.temp_map.counts_cont(t_known)
        cals = np.arange(*CAL_RANGE)
        i_in, i_ref = self.front_end_currents(t_known)
        # (rows, cols, n_avg, candidates); a noiseless batch has one
        # conversion per candidate, and averages that
        n2, _ = discharge_counts(cfg, cfg.n1_counts - cals, i_in[..., None, None],
                                 i_ref[..., None, None], self._cell_noise((n_avg, cals.size)))
        best = np.argmin(np.abs(n2.mean(axis=-2) + 0.5 - target), axis=-1)
        self.cal_preload = cals[best]
        self.cal_preload.flags.writeable = False
        # a best fit at the edge of the range means the true optimum
        # may lie outside: report it
        edge = (best == 0) | (best == cals.size - 1)
        return [tuple(index) for index in np.argwhere(edge).tolist()]

    # -- temperature regulation ------------------------------------------

    def run_regulation(self, setpoint_map, duration, trace_conversions=False):
        """Regulate toward a setpoint map for a duration; returns traces.

        Setpoints are Celsius, scalar or per-cell.  PID cycles, the PWM
        duty update, and the plant advance interleave on the global
        clock: each cycle's duty is held while the plant advances one
        PID period.  Cell state persists across calls so consecutive
        calls build a schedule.  With trace_conversions, the result's
        conv_trace holds every error conversion as 1-D columns in
        (cycle, row, col, slot) order, keyed by pid_trace.csv's header;
        otherwise it is None.
        """
        cfg = self.cfg
        sp = np.asarray(setpoint_map, dtype=float)
        lo, hi = SETPOINT_RANGE
        if np.any(sp < lo) or np.any(sp > hi):
            raise DomainError(f"setpoints outside [{lo:g}, {hi:g}] degC")
        ratio = duration / cfg.pid_ts
        n_cycles = int(round(ratio))
        # relative tolerance for the representation error of the two floats
        require(n_cycles >= 1 and abs(ratio - n_cycles) <= 1e-9 * ratio, "regulation.plateau_s",
                f"a whole number of PID periods pid.ts ({cfg.pid_ts:g} s)", duration)
        madc = cfg.madc
        coeffs = self.pid_coeffs
        state = self.pid_state

        shape = (n_cycles, cfg.rows, cfg.cols)
        out = RegulationResult(time=np.empty(n_cycles), t_true=np.empty(shape),
                               t_meas=None, u=np.empty(shape, dtype=int),
                               duty=np.zeros(shape), warnings=[], conv_trace=None)
        if self._cycle_map is None:
            self._cycle_map = thermal.cycle_map(self.temp.shape, cfg.c_th, cfg.g_lat,
                                                cfg.g_amb, cfg.pid_ts)
        a, b = self._cycle_map

        # every cell's cycle is one converter batch: its active slots,
        # then its plain measurement, one row each in that order.  The
        # columns give each row's coefficient magnitude, sign and
        # full-scale charge count; the measurement is a unit-coefficient
        # conversion with preload 0 and sign -1, so it counts n2.  They
        # and the calibration words fix the charge phase, so it is checked
        # and derived on the first run on each cal_preload array, which
        # calibration replaces.
        active = coeffs.active
        if self._loop is None or self._loop[0] is not self.cal_preload:
            slot_mags = [coeffs.magnitudes[n] for n in active]
            mags = np.array(slot_mags + [1.0])[:, None, None]
            signs = np.array([1] * len(active) + [-1])[:, None, None]
            n1 = np.array([madc.pid_n1_counts] * len(active) + [madc.n1_counts])[:, None, None]
            # the loaded calibration word scales with the coefficient: the
            # trim is a relative gain correction of the charge phase
            cal_words = np.stack([np.round(mag * self.cal_preload * madc.pid_charge_scale)
                                  .astype(int) for mag in slot_mags] + [self.cal_preload])
            charge = charge_phase(madc, mags, cal_words, signs, n1)
            # discharge_counts reads the counts as floats: one copy serves every cycle
            self._loop = (self.cal_preload, mags,
                          charge._replace(n_charge=charge.n_charge.astype(float)))
        _, mags, charge = self._loop
        # each tap's target: the count expected at the setpoint on its own
        # charge phase, less half a count so the dithered floor is unbiased
        r_set = self.temp_map.counts_cont(sp) / (madc.n1_counts - self.cal_preload)
        state.set_targets(charge.n_charge[:-1] * r_set - 0.5, active)
        targets = np.zeros(charge.n_charge.shape, dtype=int)
        # each cell draws the run's noise in one call on its own stream,
        # in the order its conversions run; each cycle's conversions use
        # up its slice
        noise = self._cell_noise((n_cycles, len(active) + 1))
        if noise is not None:
            noise = np.moveaxis(noise, (0, 1), (-2, -1))
        # each cycle's measurement count, read back as temperatures when the run ends
        meas = np.empty(shape, dtype=int)
        # each cycle's preloads, discharge counts and products of its
        # error conversions
        traced = (np.empty((n_cycles, 3, len(active)) + shape[1:], dtype=int)
                  if trace_conversions else None)

        since = self._sat_since
        temp, now = self.temp, self._time
        try:
            for k in range(n_cycles):
                # the field is constant within a cycle: one front-end
                # evaluation serves the whole batch
                i_in, i_ref = self.front_end_currents(temp)
                targets[:-1] = state.dither()
                conv = convert(madc, i_in, i_ref, charge, targets,
                               None if noise is None else noise[k])
                u = out.u[k] = pid_cycle(state, coeffs, conv.out_count[:-1])
                if traced is not None:
                    traced[k] = targets[:-1], conv.n_discharge[:-1], -conv.out_count[:-1]
                # code 0 is the heater off, not the PWM's minimum duty
                on = u > 0
                duties = out.duty[k]
                duties[on] = duty_of_code(cfg.pwm, u[on])
                # persistent-saturation warning: a cell saturated for more
                # than 10 s warns, and its saturated run restarts
                if state.saturated:
                    saturated = state.saturated_cells
                    due = saturated & (now - since > 10.0)
                    for index in zip(*(ix.tolist() for ix in np.nonzero(due))):
                        out.warnings.append((index, since[index], now))
                    since[due | (saturated & np.isnan(since))] = now
                    since[~saturated] = np.nan
                else:
                    since.fill(np.nan)
                meas[k] = conv.out_count[-1]

                # the duty is held over the cycle: the plant's exact map
                # over one period
                rise = (a @ (temp - cfg.t_ambient).ravel()
                        + b @ (duties * cfg.heater.p_max).ravel())
                temp = out.t_true[k] = cfg.t_ambient + rise.reshape(temp.shape)
                now += cfg.pid_ts
                out.time[k] = now
        finally:
            self.temp, self._time = temp, now
        out.t_meas = self.temp_map.read_temperature(meas)
        if traced is not None:
            # one row per error conversion; j indexes the active slots
            cycle, row, col, j = np.indices(shape + (len(active),)).reshape(4, -1)
            preload, n2, product = traced[cycle, :, j, row, col].T
            out.conv_trace = {
                "cycle": cycle, "row": row, "col": col,
                "slot": np.array(active, dtype=int)[j], "coeff_mag": mags[j, 0, 0],
                "target_preload": preload,
                "n_charge": charge.n_charge.astype(int)[j, row, col],
                "n_discharge": n2, "product": product}
        return out

    # -- characterization --------------------------------------------------

    def characterize_sensor(self, t_values, n_avg=4):
        """Counts of every cell, row-major, at each of t_values (Celsius),
        shaped (cells, points); each averages n_avg conversions (see read_counts)."""
        t_values = np.asarray(t_values, dtype=float)
        return self.read_counts(t_values[:, None, None], n_avg).reshape(t_values.size, -1).T

    # -- measurement modes -------------------------------------------------

    # The modes are noiseless functions of a channel (a MadcConfig) and plain values: a
    # current, a response(v, t), impedances z(f).  run_is stays on the class, called
    # through it, as the benchmark's tracer patches it by name.

    @staticmethod
    def run_is(madc, networks, freqs, amplitude):
        """Impedance spectra of linear networks, each a function z(f) of
        the frequency (Hz), via the converter's multiply-accumulate, on the
        channel madc; one flat list of (frequency, impedance) pairs,
        network-major, each frequency the grid point it snapped to.

        Every frequency snaps onto the conversion grid (integer
        conversions per period) and is checked before any table is made.
        Consecutive grid points convert in packs that fit in the longest
        point's converted phases, each pack's tables made in one reused
        workspace, with one converter call and one array solve per pack
        and network (see _fra_pack).
        """
        check("is_mode.amplitude", amplitude)
        freqs = np.array(freqs, dtype=float, ndmin=1)
        lo, hi = IS_FREQ_RANGE
        if not ((lo <= freqs) & (freqs <= hi)).all():
            raise DomainError(f"frequency outside [{lo:g}, {hi:g}] Hz")
        points = [_fra_grid_point(madc, f) for f in freqs.tolist()]
        # each point's converted samples: an even period converts its first half
        sizes = [m // (2 - m % 2) for m, _ in points]
        room = max(sizes, default=0)
        work = np.empty(8 * room)
        # a point whose running fill restarts at its own size begins a pack
        fill = accumulate(sizes, lambda size, n: size + n if size + n <= room else n)
        firsts = [i for i, (size, n) in enumerate(zip(fill, sizes)) if size == n]
        f_act = [c * madc.conversion_rate / m for m, c in points]
        z = np.empty((len(networks), len(points)), dtype=complex)
        for a, b in zip(firsts, firsts[1:] + [len(points)]):
            z[:, a:b] = _fra_pack(madc, points[a:b], f_act[a:b], networks, amplitude, work)
        return [(f, zk) for z_net in z.tolist() for f, zk in zip(f_act, z_net)]


def run_cpa(madc, current, duration):
    """Constant-potential trace of a steady current (A) on the channel
    madc: the reconstructed current of each sample; duration (s) must be
    a whole number of samples, at least one, within a relative 1e-9."""
    n_samples = int(round(duration / SAMPLE_PERIOD))
    if n_samples < 1 or abs(duration / SAMPLE_PERIOD - n_samples) > 1e-9 * n_samples:
        raise DomainError(f"CPA duration {duration!r} s is not a whole number, at least 1, "
                          f"of SAMPLE_PERIOD ({SAMPLE_PERIOD:g} s)")
    currents = np.full(n_samples, current)
    counts = convert_signed(ranged(madc, CPA_I_REF), currents, CPA_I_REF)
    return counts * (CPA_I_REF / madc.n1_counts)


def run_cv(madc, response, v_low, v_high, scan_rate):
    """Cyclic voltammogram of a current response(v, t) on the channel
    madc: one ramp from v_low to v_high at scan_rate (V/s) and back.

    Returns the applied voltages, the reconstructed currents and the
    reference current the channel was ranged to, 1.25x the largest
    response.
    """
    require(v_low < v_high, "cv.v_low", f"below cv.v_high ({v_high!r})", v_low)
    check("cv.scan_rate", scan_rate)
    # steps per ramp, capped first so that a scan past the budget
    # still rounds to a finite count
    step = max(scan_rate * SAMPLE_PERIOD, math.ulp(0.0))
    n_half = max(1, round(min((v_high - v_low) / step, MAX_CV_SAMPLES)))
    require(2 * n_half + 1 <= MAX_CV_SAMPLES, "cv.scan_rate",
            f"fast enough for a scan from cv.v_low ({v_low!r}) to cv.v_high "
            f"({v_high!r}) of at most {MAX_CV_SAMPLES} samples of {SAMPLE_PERIOD} s",
            scan_rate)
    up = v_low + (v_high - v_low) * np.arange(n_half + 1) / n_half
    v = np.concatenate([up, up[-2::-1]])
    times = np.arange(v.size) * SAMPLE_PERIOD
    currents = np.array([response(vk, t) for vk, t in zip(v, times)])
    i_ref = 1.25 * max(np.abs(currents).max(), 1e-12)
    counts = convert_signed(ranged(madc, i_ref), currents, i_ref)
    return v, counts * (i_ref / madc.n1_counts), i_ref


def _fra_pack(cfg, pack, f_act, networks, amplitude, work):
    """Impedances of networks at a pack of IS grid points (m, cycles_per_window)
    of frequencies f_act, as a complex (networks, points) array; the tables
    are made in work.

    A point converts one cycle's phases 2*pi*j/m in phase order, j < m/2
    (even m) or j < m: the pair {j, j + m/2} negates response and table
    sign alike, so one phase of each pair counts for both, whatever the
    cycle count.  Each point's cycle and table are made in its own
    columns, and its system spans the phases its sums do, so the fold
    and the period count multiply both sides alike and drop out.
    """
    sizes = [m // (2 - m % 2) for m, _ in pack]
    bounds = np.cumsum([0] + sizes).tolist()
    basis, charge, sign, (i_t, sign_i) = work[:8 * bounds[-1]].reshape(4, 2, bounds[-1])
    # each point's 2x2 system: rows tables, columns sine, cosine
    mats = np.empty((2, 2, len(pack)))
    for k, ((m, _), a, b) in enumerate(zip(pack, bounds, bounds[1:])):
        cycle, q = basis[:, a:b], charge[:, a:b]
        # j < ceil(m/2), completed by the mirror sin[m - j] = -sin[j],
        # cos[m - j] = cos[j] (odd m); theta sits in the cosine row until
        # the cosine overwrites it
        h = (m + 1) // 2
        theta = np.multiply(np.arange(h), 2.0 * math.pi, out=cycle[1, :h])
        theta /= m
        np.sin(theta, out=cycle[0, :h])
        np.cos(theta, out=theta)
        if m % 2:
            np.negative(cycle[0, h - 1:0:-1], out=cycle[0, h:])
            cycle[1, h:] = cycle[1, h - 1:0:-1]
        # the 7-bit tables are q / COEFF_LEVELS; rounding half to even
        # keeps the mirror
        np.round(np.multiply(cycle, COEFF_LEVELS, out=q), out=q)
        mats[..., k] = q @ cycle.T / COEFF_LEVELS
    np.sign(charge, out=sign)
    # a slot whose coefficient rounds to zero has zero charge: it counts 0
    np.round(np.multiply(np.abs(charge, out=charge), cfg.n1_counts / COEFF_LEVELS, out=charge),
             out=charge)
    (a, b), (c, d) = mats
    det = a * d - b * c
    z = np.empty((len(networks), len(pack)), dtype=complex)
    for network, z_net in zip(networks, z):
        # the network's current i_m*sin(theta + phi) under
        # amplitude*sin(theta) solves mat @ [i_m cos(phi), i_m sin(phi)] = sums
        i_cos, i_sin, refs = [], [], []
        for f in f_act:
            z_f = network(f)
            i_mag, phi = amplitude / abs(z_f), -math.atan2(z_f.imag, z_f.real)
            i_cos.append(i_mag * math.cos(phi))
            i_sin.append(i_mag * math.sin(phi))
            # range the reference so the response peaks at IS_PEAK of full scale
            refs.append(max(i_mag, 1e-15) / IS_PEAK)
        # the response comes from the tables' own sin(theta) and cos(theta)
        # by angle addition
        np.multiply(np.repeat(i_cos, sizes), basis[0], out=i_t)
        i_t += np.multiply(np.repeat(i_sin, sizes), basis[1], out=sign_i)
        np.sign(i_t, out=sign_i)
        # both tables in one batch, through the cap of the largest reference;
        # whole counts, so the signed sums in any order are exact
        counts, _ = discharge_counts(ranged(cfg, max(refs)), charge, np.abs(i_t, out=i_t),
                                     np.repeat(refs, sizes))
        counts *= sign_i
        counts *= sign
        s, t = np.add.reduceat(counts, bounds[:-1], axis=1) * refs / cfg.n1_counts
        del counts                # freed before the next network converts
        # Cramer's rule, then z = amplitude / i
        x, y = (d * s - b * t) / det, (a * t - c * s) / det
        i_sq = np.hypot(x, y) ** 2
        z_net.real, z_net.imag = amplitude * x / i_sq, -amplitude * y / i_sq
    return z


def _fra_grid_point(cfg, f_req):
    """(m, cycles_per_window): the IS grid point f_req snaps to.

    Up to an eighth of the conversion rate, a period is m conversions
    holding one sine cycle; above, 64 conversions hold an odd number of
    cycles.  Rejects a period longer than MAX_FRA_PERIOD conversions, and
    a cycle count that is not finite.
    """
    f_conv = cfg.conversion_rate
    if f_req > f_conv / 8.0:
        m = 64
        # a subnormal conversion rate makes the count inf; one that underflows to 0 divides by 0
        cycles = f_req * m / f_conv if f_conv else math.inf
        if not math.isfinite(cycles):
            raise ConfigurationError(
                f"an IS point at {f_req:g} Hz holds {cycles:g} cycles in {m} conversions: "
                f"madc.f_clk ({cfg.f_clk:g}) and madc.n_bits ({cfg.n_bits}) set "
                f"{f_conv:g} conversions/s; raise madc.f_clk or lower madc.n_bits")
        cycles_per_window = max(1, int(round(cycles)))
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
