import copy
import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import tregsim
from tregsim import array_sim, streams
from tregsim.array_sim import (CAL_RANGE, CAL_TEMPERATURE, MAX_FRA_PERIOD, ArrayConfig,
                               TempArray, _fra_grid_point, run_cpa, run_cv)
from tregsim.config import SCHEMA
from tregsim.devices import HeaterParams, gaussian_peak_response, i_ctat, i_ptat, ph_current
from tregsim.errors import ConfigurationError, DomainError
from tregsim.experiments import FRA_NETWORKS, _fra_frequencies, run_experiment
from tregsim.madc import MadcConfig, charge_phase, convert, discharge_counts
from tregsim.pwm import duty_of_code
from tregsim.thermal import cycle_map


def small_array(rows=2, cols=2, seed=1, **kw):
    cfg = ArrayConfig(rows=rows, cols=cols, **kw)
    return TempArray(cfg, seed=seed)


def quiet_madc(noise=0.0, n_bits=9):
    return MadcConfig(n_bits=n_bits, conversion_noise_counts=noise)


def quiet_array(rows=1, cols=1, seed=1, noise=0.0, n_bits=9, **kw):
    cfg = ArrayConfig(rows=rows, cols=cols, madc=quiet_madc(noise, n_bits),
                      sigma_vbe=0.0, sigma_r1=0.0, sigma_r2=0.0,
                      sigma_mirror=0.0, **kw)
    return TempArray(cfg, seed=seed)


def cell_noise(cfg, rng, shape):
    """Reference channel noise of one cell's conversions: one
    Generator.normal draw of the given shape, None on a noiseless channel."""
    if cfg.conversion_noise_counts == 0:
        return None
    return rng.normal(0.0, cfg.conversion_noise_counts, size=shape)


# -- calibration -----------------------------------------------------------

def test_nominal_cell_calibrates_to_zero():
    arr = quiet_array()
    arr.calibrate_one_point()
    assert arr.cal_preload[0, 0] == 0


def test_r1_mismatch_restores_nominal_count():
    # +1 percent r1 lowers the input current, so the charge phase must be
    # extended: the stored preload is negative, and the calibrated count
    # returns to the nominal one within 1 LSB
    arr = quiet_array()
    arr.current_source.r1[0, 0] *= 1.01
    arr.calibrate_one_point(t_known=50.0)
    assert arr.cal_preload[0, 0] < 0
    count = arr.read_counts(50.0)[0, 0]
    assert abs(count + 0.5 - arr.temp_map.counts_cont(50.0)) <= 1.0


def test_full_scale_must_exceed_largest_calibration_preload():
    # the largest preload of cal_range (-64, 64) is 63
    with pytest.raises(ConfigurationError, match="madc.n_bits"):
        TempArray(ArrayConfig(rows=1, cols=1, madc=MadcConfig(n_bits=5)))
    arr = TempArray(ArrayConfig(rows=1, cols=1, madc=MadcConfig(n_bits=6)))
    assert arr.cfg.madc.counter_max == 64


@pytest.mark.parametrize("sigmas", [(1e-3, 0.01, 0.01, 0.005), (0.0, 0.02, 0.0, 0.0)])
def test_mismatch_matches_four_scalar_draws_per_cell(sigmas):
    # each cell draws its mismatch on its own stream in the order vbe,
    # r1, r2, mirror ratio, as four scalar Generator.normal draws would;
    # a zero sigma gives +0.0, and the stream is left where they leave it
    cfg = ArrayConfig(rows=3, cols=2, sigma_vbe=sigmas[0], sigma_r1=sigmas[1],
                      sigma_r2=sigmas[2], sigma_mirror=sigmas[3])
    arr = TempArray(cfg, seed=11)
    cs = cfg.current_source
    for r, c in np.ndindex(3, 2):
        entropy, spawn_key = arr._seed_key
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=entropy, spawn_key=(*spawn_key, r * 2 + c, 0)))
        vbe, d1, d2, dm = (rng.normal(0.0, s) for s in sigmas)
        got = (arr.bjt.vbe_offset[r, c], arr.current_source.r1[r, c],
               arr.current_source.r2[r, c], arr.current_source.mirror_ratio[r, c])
        want = (vbe, cs.r1 * (1.0 + d1), cs.r2 * (1.0 + d2), cs.mirror_ratio * (1.0 + dm))
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got == want
        assert arr._reg_rng[r * 2 + c].standard_normal() == rng.standard_normal()


def test_one_seed_sequence_builds_equal_arrays_without_spawning():
    # each cell's key is derived from the sequence without spawning from
    # it: two builds from one sequence are equal, equal to a build from
    # its integer seed, and leave the caller's sequence unspawned
    ss = np.random.SeedSequence(11)
    arrays = [TempArray(ArrayConfig(rows=3, cols=2), seed=s) for s in (ss, ss, 11)]
    assert ss.n_children_spawned == 0
    states = []
    for arr in arrays:
        cs = arr.current_source
        streams = [rng.standard_normal() for rng in arr._reg_rng]
        states.append((arr.bjt.vbe_offset.tolist(), cs.r1.tolist(), cs.r2.tolist(),
                       cs.mirror_ratio.tolist(), streams))
    assert states[0] == states[1] == states[2]


def seed_sequence_stream(entropy, spawn_key):
    """The reference stream: numpy's SeedSequence and default_rng."""
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return ss.generate_state(4, np.uint64), np.random.default_rng(ss)


@pytest.mark.parametrize("entropy", [0, 2**32 - 1, 2**32, 2**64 + 5, [7, 2**40, 3], 2**160 + 9])
@pytest.mark.parametrize("prefix", [(), (4,), (4, 2**33), (1, 2, 3)])
def test_stream_seeds_match_seed_sequence(entropy, prefix):
    # every stream's seed words and first 100 normals equal those of
    # numpy's SeedSequence on the same key: cell indices 0-5 and the
    # last one below 2**32, each with words 0 and 1.  The entropies
    # take one to six 32-bit words, so the pool is padded, filled, and
    # overrun.  The hash raises no warning on any key.
    tails = [(i, word) for i in (*range(6), 2**32 - 1) for word in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = streams.stream_seeds(entropy, prefix, tails)
        rngs = streams.generators(entropy, prefix, tails)
    assert seeds.dtype == np.uint64 and seeds.shape == (len(tails), 4)
    for tail, words, rng in zip(tails, seeds, rngs):
        want_words, want_rng = seed_sequence_stream(entropy, (*prefix, *tail))
        assert np.array_equal(words, want_words)
        assert np.array_equal(rng.standard_normal(100), want_rng.standard_normal(100))


def test_streams_load_numpy_random_on_first_use():
    # importing the package, the CLI included, leaves numpy.random
    # unloaded: loading it with the stream module raised the benchmark's
    # peak RSS.  Building an array loads it.
    code = ("import sys, tregsim.cli; assert 'numpy.random' not in sys.modules; "
            "tregsim.TempArray(tregsim.ArrayConfig(rows=1, cols=1)); "
            "assert 'numpy.random' in sys.modules")
    src = os.path.dirname(os.path.dirname(tregsim.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_given_seed_sequences_stream_as_seed_sequence():
    # on a given sequence, bare or spawned, cell c streams its draws on
    # word 0 of its key (*spawn_key, c)
    for ss in (np.random.SeedSequence(5), np.random.SeedSequence(2**32, spawn_key=(1, 2**35, 3))):
        arr = TempArray(ArrayConfig(rows=1, cols=2), seed=ss)
        for c in range(2):
            _, reg = seed_sequence_stream(ss.entropy, (*ss.spawn_key, c, 0))
            reg.standard_normal(4)      # the cell's mismatch draws
            assert np.array_equal(arr._reg_rng[c].standard_normal(100), reg.standard_normal(100))


def test_calibration_failure_reported_when_out_of_range():
    arr = quiet_array()
    arr.current_source.r1[0, 0] *= 1.5
    failures = arr.calibrate_one_point()
    assert (0, 0) in failures
    assert failures == [(0, 0)]


def per_cell_calibration(arr, t_known, n_avg=8):
    """calibrate_one_point one cell at a time: per cell in row-major order,
    one cell_noise draw on its own stream and one discharge_counts
    call.  Returns the preloads and the failures."""
    madc = arr.cfg.madc
    target = arr.temp_map.counts_cont(t_known)
    cals = np.arange(*CAL_RANGE)
    i_in, i_ref = arr.front_end_currents(t_known)
    preload = np.zeros(i_in.shape, dtype=int)
    failures = []
    for r, c in np.ndindex(i_in.shape):
        noise = cell_noise(madc, arr._reg_rng[r * i_in.shape[1] + c], (n_avg, cals.size))
        n2, _ = discharge_counts(madc, (madc.n1_counts - cals)[None, :],
                                 i_in[r, c], i_ref[r, c], noise)
        best = int(np.argmin(np.abs(n2.mean(axis=0) + 0.5 - target)))
        preload[r, c] = cals[best]
        if not 0 < best < cals.size - 1:
            failures.append((r, c))
    return preload, failures


@pytest.mark.parametrize("noise", [0.3, 0.0])
def test_calibration_matches_per_cell_reference(noise):
    # the batched calibration converts every cell at once; each cell
    # must still draw its block on its own stream, and the edge hits
    # come back in row-major order
    arr = small_array(rows=3, cols=2, seed=9, madc=MadcConfig(conversion_noise_counts=noise))
    assert arr.cfg.sigma_r1 > 0
    arr.current_source.r1[0, 1] *= 1.5      # needs a preload below the range
    arr.current_source.r1[2, 0] *= 0.7      # and one above it
    ref = copy.deepcopy(arr)
    failures = arr.calibrate_one_point()
    preload, ref_failures = per_cell_calibration(ref, CAL_TEMPERATURE)
    assert ref_failures == [(0, 1), (2, 0)]
    assert failures == ref_failures
    assert np.array_equal(arr.cal_preload, preload)
    for r, c in np.ndindex(3, 2):
        assert arr._reg_rng[r * 2 + c].standard_normal() == ref._reg_rng[r * 2 + c].standard_normal()


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated during run(), after one
    untraced warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noisy_batches_keep_one_noise_block_live():
    # calibration and the readout floor their counts in their noise
    # block, so a batch keeps one block live, not the block and a sum.
    # 32 conversions per point let the block dominate the readout's peak,
    # as it does calibration's
    arr = TempArray(ArrayConfig(), seed=3)
    assert arr.cfg.madc.conversion_noise_counts > 0
    cal_block = 9 * 6 * 8 * (CAL_RANGE[1] - CAL_RANGE[0]) * 8
    assert cal_block == 442_368
    assert traced_peak(arr.calibrate_one_point) <= 1.5 * cal_block
    t_values = np.arange(20.0, 90.5, 1.0)
    sweep_block = t_values.size * 9 * 6 * 32 * 8
    assert traced_peak(lambda: arr.characterize_sensor(t_values, 32)) <= 1.5 * sweep_block
    # the default 4 makes a 122,688 B block, smaller than the currents and
    # their temporaries; the held charge shares the block's cell-major
    # order, so the in-place add needs no buffer of its own (2.3x today;
    # 3.3x when the charge is in the temperatures' order)
    default_block = sweep_block // 8
    assert default_block == 122_688
    assert traced_peak(lambda: arr.characterize_sensor(t_values)) <= 2.5 * default_block


def test_channel_spread_after_calibration():
    arr = TempArray(ArrayConfig(), seed=42)
    arr.calibrate_one_point(t_known=50.0)
    reads = arr.temp_map.read_temperature(arr.read_counts(50.0)).ravel()
    assert abs(reads.mean() - 50.0) <= 0.3
    assert reads.std() <= 0.25


# -- characterization --------------------------------------------------------

def test_characterize_monotone_and_accurate(tmp_path):
    arr = small_array(rows=3, cols=2, seed=5)
    arr.calibrate_one_point()
    t_values = np.arange(20.0, 91.0, 5.0)
    counts = arr.characterize_sensor(t_values)
    assert np.all(np.diff(counts, axis=1) < 0)
    die_mean_error = (arr.temp_map.read_temperature(counts) - t_values).mean(axis=0)
    assert np.abs(die_mean_error).max() <= 0.5
    # the straight-line fit of the same die and sweep shows the curvature honestly
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"].update(name="characterize_sensor", seed=5)
    settings["array"].update(rows=3, cols=2)
    settings["characterize"].update(t_lo=20.0, t_hi=90.0, t_step=5.0)
    run_experiment(settings, str(tmp_path))
    with open(tmp_path / "linear_fit.csv") as fh:
        fit = list(csv.DictReader(fh))
    assert len(fit) == 6
    assert max(float(row["max_resid_c"]) for row in fit) > 1.0


def test_characterize_matches_per_cell_scalar_readout():
    # the array readout converts every cell and sweep point in one batch;
    # each cell must still see its own devices and its own noise stream,
    # drawn point by point as a scalar conversion loop would
    arr = small_array(rows=3, cols=2, seed=8)
    arr.calibrate_one_point()
    cfg = arr.cfg.madc
    assert cfg.conversion_noise_counts > 0 and arr.cfg.sigma_r1 > 0
    rngs = {index: copy.deepcopy(arr._reg_rng[i])
            for i, index in enumerate(np.ndindex(3, 2))}
    t_values = np.arange(20.0, 91.0, 7.0)
    n_avg = 4
    counts = arr.characterize_sensor(t_values, n_avg=n_avg)

    expect = np.empty((6, t_values.size))
    for i, index in enumerate(np.ndindex(3, 2)):
        rng = rngs[index]
        # this cell's realized devices as scalar parameter sets
        bjt = replace(arr.bjt, vbe_offset=arr.bjt.vbe_offset[index])
        cs = replace(arr.current_source, r1=arr.current_source.r1[index],
                     r2=arr.current_source.r2[index],
                     mirror_ratio=arr.current_source.mirror_ratio[index])
        for j, t_c in enumerate(t_values):
            t_k = t_c + 273.15
            noise = rng.normal(0.0, cfg.conversion_noise_counts, size=n_avg)
            n2, _ = discharge_counts(cfg, np.full(n_avg, cfg.n1_counts
                                                  - arr.cal_preload[index]),
                                     i_ctat(cs, bjt, t_k), i_ptat(cs, t_k), noise)
            expect[i, j] = min(int(round(n2.mean())), cfg.counter_max)
    assert np.array_equal(counts, expect)
    # the sweep reads at its temperatures: the plant stays where it was
    assert np.all(arr.temp == arr.cfg.t_ambient)


def test_replaced_current_source_changes_readout():
    # the readout uses the array-held devices as they are at the call:
    # changing one cell's r1 moves that cell's count and no other
    arr = quiet_array(rows=2, cols=1)
    before = arr.read_counts(50.0)
    arr.current_source.r1[0, 0] *= 1.05
    after = arr.read_counts(50.0)
    assert after[0, 0] < before[0, 0]
    assert after[1, 0] == before[1, 0]


# -- regulation ---------------------------------------------------------------

def test_regulation_at_ambient_settles_dark():
    # heater-only actuation cannot cool: the loop parks the duty at zero
    # with occasional minimum-width kicks, leaving a small warm bias
    arr = quiet_array(seed=3, noise=0.3)
    arr.calibrate_one_point()
    res = arr.run_regulation(25.0, 120.0)
    tail = res.t_true[-10:, 0, 0]
    assert tail.mean() - 25.0 <= 0.5
    assert np.abs(tail - 25.0).max() <= 0.85
    assert res.duty[-10:].mean() <= 0.02


def test_regulation_setpoint_domain():
    arr = quiet_array()
    with pytest.raises(DomainError):
        arr.run_regulation(95.0, 4.0)


def test_plant_leaving_the_sensor_range_mid_run_raises():
    # inverted gains on a weak ambient path heat cells set below ambient
    # without bound: the cycle after the field passes 400 K raises, and
    # the array keeps the field and clock of its last whole cycle
    gains = small_array(rows=1, cols=2, g_amb=1e-3).pid_coeffs
    arr = small_array(rows=1, cols=2, g_amb=1e-3,
                      pid_gains=(-gains.kp, -gains.ki, -gains.kd))
    arr.calibrate_one_point()
    with pytest.raises(DomainError, match=re.escape("temperature outside [250 K, 400 K]")):
        arr.run_regulation(20.0, 400.0)
    assert arr.temp.max() + 273.15 > 400.0
    assert 0.0 < arr._time < 400.0 and arr._time % arr.cfg.pid_ts == 0.0


def test_regulation_uniform_step_settles():
    arr = small_array(seed=11)
    arr.calibrate_one_point()
    res = arr.run_regulation(45.0, 60.0)
    err = res.t_true[-5:].mean(axis=0) - 45.0
    assert np.abs(err).max() <= 0.5
    assert not res.warnings


def test_persistent_saturation_warnings():
    # a weak heater cannot reach 90 and 85 degC: those cells stay
    # saturated and warn every 12 s, the first 4 s cycle past the 10 s
    # limit; two neighbours saturate later, and saturation carries on
    # into the next call.  Each cycle's warnings are in row-major order.
    arr = small_array(rows=2, cols=3, seed=3, heater=HeaterParams(p_max=0.1))
    arr.calibrate_one_point()
    sp = np.full((2, 3), 40.0)
    sp[0, 1], sp[1, 2] = 90.0, 85.0
    first = arr.run_regulation(sp, 60.0)
    assert first.warnings == [
        ((0, 1), 0.0, 12.0), ((1, 2), 0.0, 12.0),
        ((0, 1), 12.0, 24.0), ((1, 2), 12.0, 24.0),
        ((0, 1), 24.0, 36.0), ((1, 2), 24.0, 36.0),
        ((0, 2), 28.0, 40.0), ((1, 1), 28.0, 40.0),
        ((0, 1), 36.0, 48.0), ((1, 2), 36.0, 48.0),
        ((0, 2), 40.0, 52.0), ((1, 1), 40.0, 52.0),
    ]
    second = arr.run_regulation(40.0, 20.0)
    assert second.warnings == [((0, 0), 48.0, 60.0), ((1, 2), 48.0, 60.0)]
    for index, _, _ in first.warnings + second.warnings:
        assert all(type(i) is int for i in index)


def test_saturation_timer_restarts_after_a_cycle_with_no_saturated_cell(monkeypatch):
    # a cell's saturated run restarts when it unsaturates, also in a cycle
    # in which no cell is saturated and the timer pass only clears
    script = iter([True, True, False, True, True, True, True, True])
    real = array_sim.pid_cycle

    def scripted(state, coeffs, counts):
        u = real(state, coeffs, counts)
        state.saturated_cells = np.full(u.shape, next(script))
        state.saturated = int(np.count_nonzero(state.saturated_cells))
        return u

    monkeypatch.setattr(array_sim, "pid_cycle", scripted)
    arr = quiet_array()
    arr.calibrate_one_point()
    assert arr.run_regulation(40.0, 32.0).warnings == [((0, 0), 12.0, 24.0)]


def test_gradient_map_regulates_despite_coupling():
    # per-column targets 40..70 degC; lateral coupling loads the edges
    arr = TempArray(ArrayConfig(), seed=13)
    arr.calibrate_one_point()
    sp = np.tile(np.linspace(40.0, 70.0, arr.cfg.cols), (arr.cfg.rows, 1))
    arr.run_regulation(sp, 60.0)
    res = arr.run_regulation(sp, 32.0)
    err = res.t_true[-5:].mean(axis=0) - sp
    assert np.abs(err).max() <= 0.75


def test_small_step_overshoot_within_one_degree():
    arr = quiet_array(seed=31, noise=0.3)
    arr.calibrate_one_point()
    arr.run_regulation(45.0, 60.0)
    res = arr.run_regulation(50.0, 40.0)  # 5 degC step
    assert res.t_true[:, 0, 0].max() - 50.0 <= 1.0


def test_doubled_kp_still_stable():
    base = quiet_array(seed=31, noise=0.3)
    kp, ki, kd = (base.pid_coeffs.kp, base.pid_coeffs.ki, base.pid_coeffs.kd)
    arr = quiet_array(seed=31, noise=0.3, pid_gains=(2 * kp, ki, kd))
    arr.calibrate_one_point()
    arr.run_regulation(45.0, 80.0)
    res = arr.run_regulation(45.0, 40.0)
    tail = res.t_true[-10:, 0, 0] - 45.0
    assert np.abs(tail).max() <= 1.0  # converged, no sustained oscillation
    assert res.t_true.max() < 90.0


def test_regulation_duration_must_be_whole_cycles():
    arr = quiet_array()
    with pytest.raises(ConfigurationError, match="PID period"):
        arr.run_regulation(45.0, 42.0)
    assert arr.run_regulation(45.0, 8.0).time.size == 2


def test_three_conversions_per_cycle_from_trace():
    arr = small_array(seed=9)
    arr.calibrate_one_point()
    res = arr.run_regulation(40.0, 20.0, trace_conversions=True)
    trace = zip(*res.conv_trace.values())
    by_cell_cycle = {}
    for (cycle, r, c, slot, mag, preload, n_chg, n2, product) in trace:
        by_cell_cycle.setdefault((cycle, r, c), []).append(slot)
    n_cycles = int(20.0 / arr.cfg.pid_ts)
    assert len(by_cell_cycle) == n_cycles * 4
    for slots in by_cell_cycle.values():
        assert slots == [0, 1, 2]


def test_quantized_products_track_float_shadow():
    # the banked products, scaled back through the shared exponent, stay
    # within the documented rounding slack of the exact coefficient
    # products for the true count error
    arr = quiet_array(seed=21)
    arr.calibrate_one_point()
    res = arr.run_regulation(45.0, 40.0, trace_conversions=True)
    tm = arr.temp_map
    n1 = arr.cfg.madc.n1_counts
    n_cycles = res.time.size
    for (cycle, r, c, slot, mag, preload, n_chg, n2, product) in zip(*res.conv_trace.values()):
        if cycle >= n_cycles - 1:
            break
        t_cycle_start = res.t_true[cycle - 1, r, c] if cycle else arr.cfg.t_ambient
        ratio = tm.counts_cont(t_cycle_start) / n1
        exact = n_chg * ratio - (preload + 0.5)
        # product = floor-quantized measurement minus dithered preload
        assert abs(product - exact) <= 2.0


def test_determinism_same_seed_same_u():
    r1 = small_array(seed=7)
    r1.calibrate_one_point()
    a = r1.run_regulation(42.0, 20.0)
    r2 = small_array(seed=7)
    r2.calibrate_one_point()
    b = r2.run_regulation(42.0, 20.0)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.t_true, b.t_true)


def single_cell_array(full, r, c):
    """A 1x1 array running cell (r, c) of a freshly built full: that
    cell's realized devices and a copy of its regulation stream."""
    solo = TempArray(replace(full.cfg, rows=1, cols=1))
    at = np.s_[r:r + 1, c:c + 1]
    cs = full.current_source
    solo.bjt = replace(full.bjt, vbe_offset=full.bjt.vbe_offset[at])
    solo.current_source = replace(cs, r1=cs.r1[at], r2=cs.r2[at],
                                  mirror_ratio=cs.mirror_ratio[at])
    solo._reg_rng = [copy.deepcopy(full._reg_rng[r * full.cfg.cols + c])]
    return solo


def test_zero_lateral_coupling_matches_independent_cells():
    full = small_array(seed=19, g_lat=0.0)
    solos = {(r, c): single_cell_array(full, r, c) for r, c in np.ndindex(2, 2)}
    full.calibrate_one_point()
    res = full.run_regulation(48.0, 20.0)
    for (r, c), solo in solos.items():
        solo.calibrate_one_point()
        sres = solo.run_regulation(48.0, 20.0)
        assert np.array_equal(res.u[:, r, c], sres.u[:, 0, 0])
        assert np.array_equal(res.t_true[:, r, c], sres.t_true[:, 0, 0])


def scalar_regulation(arr, sp, duration):
    """run_regulation of a fresh array, one cell and one conversion at a time.

    Each cell runs the count-domain PID on Python scalars: sigma-delta
    preloads, one convert call and one noise draw per active slot, then
    its plain measurement conversion, all on its own stream.  Returns
    u, t_meas, t_true, duty, time, warnings and the conversion trace.
    """
    cfg, madc, coeffs = arr.cfg, arr.cfg.madc, arr.pid_coeffs
    n1, scale = madc.n1_counts, madc.pid_charge_scale
    n_cycles = int(round(duration / cfg.pid_ts))
    cells = list(np.ndindex(sp.shape))
    cal = {rc: int(arr.cal_preload[rc]) for rc in cells}
    target, sd, bank, u_prev, since = {}, {}, {}, {}, {}
    for rc in cells:
        r_set = arr.temp_map.counts_cont(sp[rc]) / (n1 - cal[rc])
        target[rc] = [(round(m * n1 * scale) - round(m * cal[rc] * scale)) * r_set - 0.5
                      for m in coeffs.magnitudes]
        sd[rc], bank[rc], u_prev[rc], since[rc] = [0.0] * 3, [[0] * 3] * 3, 0, None
    a, b = cycle_map(sp.shape, cfg.c_th, cfg.g_lat, cfg.g_amb, cfg.pid_ts)
    temp, now = arr.temp.copy(), 0.0
    u, t_meas, t_true, duty = (np.empty((n_cycles,) + sp.shape) for _ in range(4))
    time = np.empty(n_cycles)
    warnings, trace = [], []
    for k in range(n_cycles):
        i_in, i_ref = arr.front_end_currents(temp)
        powers = np.zeros(sp.shape)
        for rc in cells:
            rng = arr._reg_rng[rc[0] * sp.shape[1] + rc[1]]
            products = [0, 0, 0]
            for n, mag in enumerate(coeffs.magnitudes):
                if coeffs.mantissas[n] == 0:
                    continue
                base = math.floor(target[rc][n])
                sd[rc][n] += target[rc][n] - base
                preload = base + (sd[rc][n] >= 1.0)
                sd[rc][n] -= sd[rc][n] >= 1.0
                charge = charge_phase(madc, mag, round(mag * cal[rc] * scale),
                                      n1_counts=madc.pid_n1_counts)
                conv = convert(madc, i_in[rc], i_ref[rc], charge, preload,
                               noise=cell_noise(madc, rng, ()))
                trace.append((k, *rc, n, mag, preload, charge.n_charge,
                              conv.n_discharge, -conv.out_count))
                products[n] = max(-127, min(127, -conv.out_count))
            s0, s1, s2 = coeffs.signs
            inc = s0 * products[0] + s1 * bank[rc][0][1] + s2 * bank[rc][1][2]
            inc = (inc * 2 ** coeffs.exponent if coeffs.exponent >= 0
                   else math.floor(inc * 2.0 ** coeffs.exponent))
            raw = u_prev[rc] + inc
            u[k][rc] = u_prev[rc] = max(0, min(4095, raw))
            bank[rc] = [products, bank[rc][0], bank[rc][1]]
            duty[k][rc] = duty_of_code(cfg.pwm, u_prev[rc]) if u_prev[rc] > 0 else 0.0
            powers[rc] = duty[k][rc] * cfg.heater.p_max
            if u_prev[rc] != raw or any(abs(p) >= 127 for p in products):
                if since[rc] is None:
                    since[rc] = now
                elif now - since[rc] > 10.0:
                    warnings.append((rc, since[rc], now))
                    since[rc] = now
            else:
                since[rc] = None
            n2, _ = discharge_counts(madc, n1 - cal[rc], i_in[rc], i_ref[rc],
                                     cell_noise(madc, rng, ()))
            t_meas[k][rc] = arr.temp_map.read_temperature(min(round(n2), madc.counter_max))
        rise = a @ (temp - cfg.t_ambient).ravel() + b @ powers.ravel()
        temp = cfg.t_ambient + rise.reshape(temp.shape)
        now += cfg.pid_ts
        t_true[k], time[k] = temp, now
    return u, t_meas, t_true, duty, time, warnings, trace


def test_regulation_matches_per_cell_scalar_loop():
    # the loop converts every cell of a slot in one call and runs one
    # array-valued PID cycle; it must match a per-cell scalar loop under
    # mismatch and noise, with a zero tap (kd = 0) and a saturating cell
    base = small_array(rows=3, cols=2, seed=6)
    gains = (base.pid_coeffs.kp, base.pid_coeffs.ki, 0.0)
    arr = small_array(rows=3, cols=2, seed=6, pid_gains=gains,
                      heater=HeaterParams(p_max=0.1))
    assert arr.pid_coeffs.mantissas[2] == 0 and 0 not in arr.pid_coeffs.mantissas[:2]
    assert arr.cfg.madc.conversion_noise_counts > 0 and arr.cfg.sigma_r1 > 0
    arr.calibrate_one_point()
    sp = np.full((3, 2), 40.0)
    sp[1, 0] = 90.0
    ref = copy.deepcopy(arr)
    res = arr.run_regulation(sp, 48.0, trace_conversions=True)
    u, t_meas, t_true, duty, time, warnings, trace = scalar_regulation(ref, sp, 48.0)
    assert np.array_equal(res.u, u)
    assert np.array_equal(res.t_meas, t_meas)
    assert np.array_equal(res.t_true, t_true)
    assert np.array_equal(res.duty, duty)
    assert np.array_equal(res.time, time)
    assert res.warnings == warnings and len(warnings) >= 2
    rows = list(zip(*res.conv_trace.values()))
    assert len(rows) == 12 * 6 * 2
    assert np.array_equal(rows, trace)


def test_null_controller_still_measures_every_cycle():
    # with no active tap a cycle's batch is the plain measurement alone
    arr = quiet_array(seed=3, pid_gains=(0.0, 0.0, 0.0))
    assert arr.pid_coeffs.mantissas == (0, 0, 0)
    arr.calibrate_one_point()
    res = arr.run_regulation(40.0, 20.0, trace_conversions=True)
    assert np.all(res.u == 0) and list(zip(*res.conv_trace.values())) == []
    assert np.all(np.abs(res.t_meas - 25.0) <= 0.5)


def test_measurement_does_not_perturb_regulation():
    a1 = quiet_array(seed=23)
    a1.calibrate_one_point()
    first = a1.run_regulation(40.0, 20.0)
    run_cpa(a1.cfg.madc, ph_current(7.0, a1.temp[0, 0]), 0.5)
    second = a1.run_regulation(40.0, 20.0)

    b = quiet_array(seed=23)
    b.calibrate_one_point()
    b.run_regulation(40.0, 20.0)
    second_ref = b.run_regulation(40.0, 20.0)
    assert np.array_equal(second.u, second_ref.u)


def test_mode_switch_preserves_calibration_and_loop_state():
    arr = quiet_array(seed=4, noise=0.3)
    arr.calibrate_one_point()
    arr.run_regulation(40.0, 20.0)
    state = arr.pid_state
    cal, u, bank = arr.cal_preload[0, 0], state.u_prev.copy(), state.bank.copy()
    run_cpa(arr.cfg.madc, ph_current(7.0, arr.temp[0, 0]), 0.2)
    assert arr.cal_preload[0, 0] == cal
    assert np.array_equal(arr.pid_state.u_prev, u)
    assert np.array_equal(arr.pid_state.bank, bank)


def test_recalibration_rebuilds_the_loop_batch():
    # the loop derives its charge phase once per calibration: a run after a
    # second calibration, at another temperature, converts on the new words
    arr = small_array(rows=2, cols=3, seed=3)
    madc = arr.cfg.madc
    arr.calibrate_one_point()
    first = arr.cal_preload
    arr.run_regulation(40.0, arr.cfg.pid_ts)
    arr.calibrate_one_point(t_known=25.0)
    assert not np.array_equal(arr.cal_preload, first)

    def assert_charge_on_current_words():
        trace = arr.run_regulation(40.0, arr.cfg.pid_ts, trace_conversions=True).conv_trace
        mag, cal = trace["coeff_mag"], arr.cal_preload[trace["row"], trace["col"]]
        expected = (np.round(mag * madc.pid_n1_counts)
                    - np.round(mag * cal * madc.pid_charge_scale)).astype(int)
        assert np.array_equal(trace["n_charge"], expected)

    assert_charge_on_current_words()
    # the words cannot change in place, and new ones bound to the array count too
    with pytest.raises(ValueError, match="read-only"):
        arr.cal_preload[0, 0] = 0
    arr.cal_preload = first
    assert_charge_on_current_words()


def test_thermal_field_csv_format(tmp_path):
    from tregsim.experiments import write_field
    path = tmp_path / "final_field.csv"
    write_field(path, np.array([[25.0, 30.123456789], [40.5, 55.0]]))
    assert path.read_text().splitlines() == ["25.000000,30.123457", "40.500000,55.000000"]


# -- measurement modes --------------------------------------------------------

def test_cpa_ph_step_response():
    madc = quiet_madc()
    i0 = run_cpa(madc, ph_current(7.0, 25.0), 0.2)
    # a whole number of samples, every one counting 0
    assert i0.shape == (20,) and np.all(i0 == 0)
    i_est = run_cpa(madc, ph_current(8.0, 25.0), 0.2)
    assert np.mean(i_est) == pytest.approx(1.8e-9, rel=0.02)


def test_cpa_duration_is_a_whole_number_of_samples():
    # 0.29 s is 28.999999999999996 sample periods in floats: 29 samples
    madc = quiet_madc()
    assert run_cpa(madc, 0.0, 0.29).shape == (29,)
    for duration in (0.0, -0.1, 0.015):
        with pytest.raises(DomainError, match="SAMPLE_PERIOD"):
            run_cpa(madc, 0.0, duration)


def test_cv_ohmic_line_within_one_lsb():
    madc = quiet_madc()
    r_test = 1e6
    v, i_est, i_ref = run_cv(madc, lambda v, t: v / r_test, -0.7, 0.0, 0.1)
    assert i_ref == 1.25 * np.abs(v / r_test).max()
    lsb = i_ref / madc.n1_counts
    assert np.abs(i_est - v / r_test).max() <= lsb * (1 + 1e-9)


def test_is_pure_resistor():
    for _, z in TempArray.run_is(quiet_madc(), [lambda f: 4.7e5], [1.0, 100.0, 5000.0], 0.01):
        assert z.real == pytest.approx(4.7e5, rel=0.02)
        assert abs(z.imag) <= 0.02 * 4.7e5


def test_is_series_rc_against_analytic():
    net = FRA_NETWORKS["series_rc"]
    for f, z_est in TempArray.run_is(quiet_madc(), [net], [0.1, 1.59, 40.0, 2000.0], 0.01):
        z_ref = net(f)
        assert abs(abs(z_est) - abs(z_ref)) / abs(z_ref) <= 0.02
        rot = z_est * z_ref.conjugate()
        assert abs(math.degrees(math.atan2(rot.imag, rot.real))) <= 2.0


def test_is_frequency_domain_checked():
    with pytest.raises(DomainError):
        TempArray.run_is(quiet_madc(), [lambda f: 1e5], [0.01], 0.01)


def phasor(net, f, amplitude):
    """(i_m, phi): the steady-state current i_m*sin(theta + phi) of net
    under amplitude*sin(theta) at f."""
    z = net(f)
    return amplitude / abs(z), -math.atan2(z.imag, z.real)


def per_sample_fra_point(cfg, net, f_req, n_periods, amplitude):
    """Reference FRA point on the channel cfg: digitizes every sample of
    both windows."""
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
    i_mag, i_phase = phasor(net, f_act, amplitude)
    # the response peaks at 380/512 of full scale: 380 counts at 9 bits
    i_ref = max(i_mag, 1e-15) * cfg.n1_counts / (380.0 * cfg.n1_counts / 512)
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
        i_t = i_mag * np.sin(theta + i_phase)
        counts = np.zeros(w)
        scaled = np.abs(table[live]) * cfg.n1_counts
        n2, _ = discharge_counts(run_cfg, np.round(scaled), np.abs(i_t[live]), i_ref)
        counts[live] = np.sign(table[live]) * np.sign(i_t[live]) * n2
        sums.append(counts.sum() * i_ref / cfg.n1_counts)
        mats.append((np.dot(table, np.sin(theta)), np.dot(table, np.cos(theta))))
    sol = np.linalg.solve(np.array(mats), np.array(sums))
    i_phasor = complex(sol[0], sol[1])
    return f_act, amplitude * i_phasor.conjugate() / abs(i_phasor) ** 2


def default_fra_grid():
    return _fra_frequencies(copy.deepcopy(SCHEMA))


@pytest.mark.parametrize("n_bits", [8, 9])
def test_is_one_period_fold_matches_per_sample(n_bits):
    # the whole default grid over fra_sweep's two networks, in one call,
    # against one period per point converted sample by sample and solved
    # by np.linalg.solve.  Low frequencies snap to one sine cycle per
    # period, with even and odd m, high ones to several cycles in 64
    # conversions; the reference evaluates every sample's tables directly,
    # so it checks the mirror, the half period of an even m, each pack's
    # columns and its sums.  The grid's 0.1 Hz point is its longest,
    # m = 48828.
    nets = list(FRA_NETWORKS.values())
    grid = default_fra_grid()
    madc = quiet_madc(n_bits=n_bits)
    results = TempArray.run_is(madc, nets, grid, 0.01)
    assert len(results) == 2 * len(grid)
    for (f, z), (net, f_req) in zip(results, [(net, f) for net in nets for f in grid]):
        f_act, z_ref = per_sample_fra_point(madc, net, f_req, 1, 0.01)
        assert f == f_act
        assert abs(z - z_ref) <= 1e-12 * abs(z_ref)


@pytest.mark.parametrize("f_req, m", [(50.0, 98), (2000.0, 64)])
def test_is_even_period_converts_its_first_half_once(monkeypatch, f_req, m):
    # an even period converts its first half once
    sizes = []

    def spy(*args, **kwargs):
        n2, clipped = discharge_counts(*args, **kwargs)
        sizes.append(n2.size)
        return n2, clipped

    monkeypatch.setattr(array_sim, "discharge_counts", spy)
    madc = quiet_madc()
    TempArray.run_is(madc, [lambda f: 100e3], [f_req], 0.01)
    assert sizes == [m]
    assert _fra_grid_point(madc, f_req)[0] == m


def test_is_period_bound():
    # the longest period passes; one conversion more is rejected before
    # any table is built, naming the keys that set it
    cfg = MadcConfig()
    f_longest = cfg.conversion_rate / MAX_FRA_PERIOD
    assert _fra_grid_point(cfg, f_longest) == (MAX_FRA_PERIOD, 1)
    with pytest.raises(ConfigurationError) as err:
        _fra_grid_point(cfg, cfg.conversion_rate / (MAX_FRA_PERIOD + 1))
    for key in ("madc.f_clk", "madc.n_bits", "is_mode.f_lo"):
        assert key in str(err.value)


def frequency_major(madc, networks, freqs):
    """run_is one network and one frequency per call, every network at a
    frequency before the next; the results network-major, as one sweep
    call returns them."""
    results = [[] for _ in networks]
    for f in freqs:
        for net, res in zip(networks, results):
            res += TempArray.run_is(madc, [net], [f], 0.01)
    return [r for res in results for r in res]


@pytest.mark.parametrize("f_a, f_b, same_point", [
    (50.0, 50.0, True),
    # both snap to m = 64, with 27 and 67 cycles: converted in phase
    # order, their tables depend on m alone, and each point builds its
    # own into its pack's columns
    (2000.0, 5000.0, False),
])
def test_is_point_does_not_depend_on_earlier_points(f_a, f_b, same_point):
    # one sweep measures networks A and B at f_a and f_b, so B's point at
    # f_b follows the points measured before it in the same workspace;
    # the reference measures each network at each frequency in its own
    # call, in a fresh workspace.  B's result must not depend on the
    # points measured before B.
    assert (_fra_grid_point(MadcConfig(), f_a) == _fra_grid_point(MadcConfig(), f_b)) is same_point
    nets = list(FRA_NETWORKS.values())
    madc = quiet_madc(noise=0.3)
    got = TempArray.run_is(madc, nets, [f_a, f_b], 0.01)
    want = frequency_major(madc, nets, [f_a, f_b])
    assert got[-1] == want[-1]
    assert got == want


def test_is_sweep_equals_frequency_major_single_calls(monkeypatch):
    # one call over two networks equals one call per network and
    # frequency, made frequency-major, on a channel configured with
    # noise, at 8 and 9 bits: every result.
    # The first grid switches parity (m 3071, 98, 97) and ends on two
    # m = 64 points with different cycle counts; the second interleaves
    # both parities with m = 64 points, one of them repeated, around the
    # longest period.  Each sweep converts several points per call, in
    # one workspace that every earlier pack leaves dirty.
    nets = list(FRA_NETWORKS.values())
    grids = [[1.59, 50.0, 50.34, 2000.0, 5000.0],
             [50.34, 2000.0, 50.0, 5000.0, 9000.0, 1.0, 2000.0, 20.0, 7000.0]]
    cfg = MadcConfig()
    assert [_fra_grid_point(cfg, f)[0] for f in grids[0]] == [3071, 98, 97, 64, 64]
    assert [_fra_grid_point(cfg, f)[0] for f in grids[1]] == [97, 64, 98, 64, 64, 4883, 64,
                                                              244, 64]
    calls = []

    def spy(*args):
        calls.append(None)
        return discharge_counts(*args)

    for n_bits in (8, 9):
        for freqs in grids:
            madc = quiet_madc(noise=0.3, n_bits=n_bits)
            calls.clear()
            monkeypatch.setattr(array_sim, "discharge_counts", spy)
            got = TempArray.run_is(madc, nets, freqs, 0.01)
            monkeypatch.undo()
            assert len(got) == 2 * len(freqs)
            assert len(calls) < len(got)
            assert got == frequency_major(madc, nets, freqs)


def test_is_default_sweep_makes_one_call_per_pack_and_network(monkeypatch):
    # the default sweep's 51 points convert in 9 packs: 18 discharge_counts
    # calls over both networks, none over the longest point's two tables
    sizes = []

    def spy(*args):
        n2, clipped = discharge_counts(*args)
        sizes.append(n2.size)
        return n2, clipped

    monkeypatch.setattr(array_sim, "discharge_counts", spy)
    nets = list(FRA_NETWORKS.values())
    assert len(TempArray.run_is(quiet_madc(), nets, default_fra_grid(), 0.01)) == 102
    assert len(sizes) == 18
    # the longest point, 0.1 Hz at m = 48828, converts two tables of half a period
    assert max(sizes) <= 48828


@pytest.mark.parametrize("n_bits", [7, 8, 9, 10, 11, 12])
def test_is_conversions_never_clip(monkeypatch, n_bits):
    # IS ranges each response to 380/512 of full scale: over the default
    # grid, no conversion clips at the integrator or passes the counter,
    # at any width
    seen = []

    def spy(cfg, *args):
        n2, clipped = discharge_counts(cfg, *args)
        seen.append((np.any(clipped), n2.max(), cfg.counter_max))
        return n2, clipped

    monkeypatch.setattr(array_sim, "discharge_counts", spy)
    nets = list(FRA_NETWORKS.values())
    TempArray.run_is(quiet_madc(n_bits=n_bits), nets, default_fra_grid(), 0.01)
    assert seen
    for clipped, peak, counter_max in seen:
        assert not clipped and peak <= counter_max


def test_is_sweep_checks_every_frequency_before_converting():
    # an empty sweep measures nothing; a sweep with one frequency out of
    # range, or one period too long, is rejected before any point is
    # converted
    nets = [lambda f: 1e5]
    madc = quiet_madc(noise=0.3)
    assert TempArray.run_is(madc, nets, [], 0.01) == []
    with pytest.raises(DomainError):
        TempArray.run_is(madc, nets, [50.0, 0.01], 0.01)
    # 0.1 Hz at f_clk = 1e10 is a period of 48.8M conversions
    with pytest.raises(ConfigurationError, match="is_mode.f_lo"):
        TempArray.run_is(MadcConfig(f_clk=1e10), nets, [50.0, 0.1], 0.01)


def test_modes_ignore_the_configured_channel_noise():
    # the measurement modes are noiseless by construction: on a channel
    # configured with a count of noise they return what a noiseless twin
    # returns
    nets = list(FRA_NETWORKS.values())
    runs = []
    for madc in (MadcConfig(conversion_noise_counts=1.0), MadcConfig(conversion_noise_counts=0.0)):
        cpa = run_cpa(madc, ph_current(8.3, 31.0), 0.2)
        cv = run_cv(madc, gaussian_peak_response, -0.7, 0.0, 0.1)
        runs.append((cpa, cv, TempArray.run_is(madc, nets, [0.5, 50.0, 50.34, 5000.0], 0.01)))
    (cpa, cv, fra), (cpa_q, cv_q, fra_q) = runs
    assert np.array_equal(cpa, cpa_q)
    assert all(np.array_equal(a, b) for a, b in zip(cv, cv_q))
    assert fra == fra_q


def test_waveform_validation():
    # run_cv checks its ramp before it samples the response, naming the
    # key that sets each bound
    madc = quiet_madc()

    def response(v, t):
        raise AssertionError("sampled a rejected scan")

    for scan, key in [((0.5, 0.0, 0.1), "cv.v_low"), ((0.0, 0.0, 0.1), "cv.v_low"),
                      ((-0.7, 0.0, 0.0), "cv.scan_rate"), ((-0.7, 0.0, -0.1), "cv.scan_rate")]:
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            run_cv(madc, response, *scan)


def test_cv_scan_budget(monkeypatch):
    # a scan of 2 * n_half + 1 samples runs up to MAX_CV_SAMPLES and is
    # rejected one ramp step above it, naming cv.scan_rate, before the
    # response is sampled; so is a step that underflows to zero
    monkeypatch.setattr(array_sim, "MAX_CV_SAMPLES", 41)
    madc = quiet_madc()
    v, _, _ = run_cv(madc, lambda v, t: v / 1e6, 0.0, 0.2, 1.0)
    assert v.size == 41

    def response(v, t):
        raise AssertionError("sampled a rejected scan")

    for scan_rate in (0.2 / 0.21, 1e-323):
        with pytest.raises(ConfigurationError, match="cv.scan_rate"):
            run_cv(madc, response, 0.0, 0.2, scan_rate)
