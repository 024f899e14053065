import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tregsim.array_sim import ArrayConfig, TempArray
from tregsim.devices import BjtParams, CurrentSourceParams, delta_vbe, vbe
from tregsim.errors import ConfigurationError, DomainError
from tregsim.experiments import madc_oracle_reference
from tregsim.madc import (CROSSING_GUARD, MadcConfig, TemperatureMap, charge_phase,
                          convert, convert_signed, discharge_counts, snr_test)
from tregsim.pwm import PwmConfig, duty_of_code

CFG = MadcConfig(conversion_noise_counts=0.0)
QUIET = CFG
BJT = BjtParams()
CS = CurrentSourceParams()
SCALE = 2.0 ** -40


def run(i_in, i_ref, coeff=1.0, cal=0, preload=0, sign=-1, cfg=None):
    """One noiseless conversion.  The defaults, preload 0 and sign -1, are
    plain digitization: the output is the discharge count."""
    cfg = cfg or QUIET
    return convert(cfg, i_in, i_ref, charge_phase(cfg, coeff, cal, sign), preload)


def test_unity_ratio_full_scale():
    assert run(1e-7, 1e-7).out_count == 512


def test_half_coefficient_halves_count():
    assert run(1e-7, 1e-7, coeff=0.5).out_count == 256


def test_preload_subtraction():
    # N2 = 500: floor(512 * 500.5/512) with exact binary currents
    conv = run(500.5 * SCALE, 512 * SCALE, preload=512, sign=1)
    assert conv.n_discharge == 500
    assert conv.out_count == 12


def test_subtraction_is_pure_counter_arithmetic():
    for preload in (0, 17, 150):
        for sign in (1, -1):
            conv = run(300 * SCALE, 512 * SCALE, preload=preload, sign=sign)
            assert conv.out_count == preload - sign * conv.n_discharge
            assert not conv.saturated


def test_cal_preload_shift():
    # ratio exactly 1/2: a +10 preload shift reduces the count by 5
    base = run(100 * SCALE, 200 * SCALE, cal=0).out_count
    shifted = run(100 * SCALE, 200 * SCALE, cal=10).out_count
    assert base - shifted == math.floor(10 * 0.5)


def test_oracle_equivalence_random_draws():
    # 20000 draws, made one at a time as scalars, then converted in one
    # array-valued call and checked element by element
    rng = np.random.default_rng(123)
    cfg = MadcConfig(c_int=1e-6, conversion_noise_counts=0.0)
    draws = []
    for _ in range(20000):
        p_ref = int(rng.integers(1, 1_000_000))
        p_in = int(min(rng.integers(1, 2 * p_ref + 1), 1_000_000))
        k = int(rng.integers(1, 129))
        cal = int(min(rng.integers(-64, 64), 4 * k - 1))
        preload = int(rng.integers(0, 601))
        sign = 1 if rng.random() < 0.5 else -1
        draws.append((p_ref, p_in, k, cal, preload, sign))
    p_ref, p_in, k, cal, preload, sign = np.array(draws).T
    conv = run(p_in * SCALE, p_ref * SCALE, coeff=k / 128.0, cal=cal,
               preload=preload, sign=sign, cfg=cfg)
    expect = madc_oracle_reference(4 * k - cal, p_in, p_ref, sign, preload,
                                   cfg.counter_max)
    np.testing.assert_array_equal(conv.out_count, expect)


@st.composite
def rational_conversions(draw):
    """One oracle draw: integer currents (scaled by SCALE), coefficient,
    calibration and target preloads, and the coefficient sign."""
    p_ref = draw(st.integers(1, 999_999))
    p_in = draw(st.integers(1, min(2 * p_ref, 1_000_000)))
    k = draw(st.integers(1, 128))
    cal = draw(st.integers(-64, 4 * k - 1))
    preload = draw(st.integers(0, 600))
    sign = draw(st.sampled_from((1, -1)))
    return p_in, p_ref, k, cal, preload, sign


@settings(max_examples=200, deadline=None)
@given(rational_conversions())
def test_convert_equals_oracle_on_any_rational_currents(draw):
    p_in, p_ref, k, cal, preload, sign = draw
    cfg = MadcConfig(c_int=1e-6, conversion_noise_counts=0.0)
    conv = run(p_in * SCALE, p_ref * SCALE, coeff=k / 128.0, cal=cal,
               preload=preload, sign=sign, cfg=cfg)
    assert conv.out_count == madc_oracle_reference(4 * k - cal, p_in, p_ref, sign,
                                                   preload, cfg.counter_max)


def madc_oracle_slow(n_charge, p_in, p_ref):
    """Clock-by-clock discharge count; independent of the closed form."""
    q = n_charge * p_in
    n2 = 0
    while (n2 + 1) * p_ref <= q:
        n2 += 1
    return n2


def test_slow_oracle_agrees_with_reference():
    rng = np.random.default_rng(9)
    for _ in range(300):
        p_ref = int(rng.integers(1, 5000))
        p_in = int(rng.integers(1, 2 * p_ref))
        n_chg = int(rng.integers(1, 600))
        assert madc_oracle_slow(n_chg, p_in, p_ref) == (n_chg * p_in) // p_ref


def test_multiplication_property():
    # coeff a*b equals coeff a post-scaled by b within 2 LSB; a and a*b
    # sit on the 7-bit grid
    i_in, i_ref = 3.3e-8, 5.0e-8
    for a, b in [(0.5, 0.25), (0.75, 0.5), (0.25, 0.5)]:
        direct = run(i_in, i_ref, coeff=a * b).out_count
        scaled = b * run(i_in, i_ref, coeff=a).out_count
        assert abs(direct - scaled) <= 2.0


def test_linearity_versus_input():
    i_ref = 1e-7
    i_in = np.linspace(5e-9, 9.5e-8, 40)
    outs = convert_signed(QUIET, i_in, i_ref).astype(float)
    coef = np.polyfit(i_in, outs, 1)
    resid = outs - np.polyval(coef, i_in)
    assert np.abs(resid).max() <= 1.0


def test_integrator_clip_sets_flags():
    cfg = MadcConfig(c_int=1e-12, conversion_noise_counts=0.0)
    conv = run(4e-7, 4e-7, cfg=cfg)
    # the charge phase that run builds: unit coefficient, no calibration
    _, clipped = discharge_counts(cfg, charge_phase(cfg, 1.0, 0, -1).n_charge, 4e-7, 4e-7)
    assert clipped and conv.saturated
    # clip holds the charge at c_int*v_full
    assert conv.out_count == math.floor(1e-12 * 1.0 * 1e7 / 4e-7 + 1e-9)


# powers of two throughout, so a product n_charge * i_in / f_clk can land
# exactly on the clip threshold c_int * v_full = 2**-35
POW2 = MadcConfig(f_clk=2.0 ** 23, c_int=2.0 ** -35, conversion_noise_counts=0.0)
AT_CLIP = 2.0 ** -21    # 512 clocks at this current hold exactly c_int * v_full


def _one_clip_batch():
    n_charge = np.array([512.0, 256.0, 128.0])[:, None, None]
    i_in = np.full((1, 200, 300), AT_CLIP / 4)
    i_in[0, 123, 45] = np.nextafter(AT_CLIP, 1.0)
    return n_charge, i_in


@pytest.mark.parametrize("n_charge, i_in, n_clipped", [
    # a (3, 200, 300) batch in which only 512 clocks of one current clip
    (*_one_clip_batch(), 1),
    # the largest product sits exactly at the threshold: the rule is strict
    (np.array([512.0, 511.0]), np.array([AT_CLIP, AT_CLIP]), 0),
    (512.0, np.nextafter(AT_CLIP, 1.0), 1),
    # signed inputs: the largest product comes from two negative extremes,
    # which a bound on the largest values alone would miss
    (np.array([-512.0, 3.0, -1.0]), np.array([-2.0 * AT_CLIP, AT_CLIP, 4.0 * AT_CLIP]), 1),
    # the largest magnitudes sit on different elements: nothing clips
    (np.array([-512.0, 1.0]), np.array([AT_CLIP / 1024, -2.0 * AT_CLIP]), 0),
    (np.array([]), np.array([]), 0),
])
def test_clip_bound_matches_elementwise_rule(n_charge, i_in, n_clipped):
    i_ref = AT_CLIP / 2
    n2, clipped = discharge_counts(POW2, n_charge, i_in, i_ref)
    q_max = POW2.c_int * POW2.v_full
    want = np.asarray(n_charge) * i_in / POW2.f_clk > q_max
    assert np.count_nonzero(want) == n_clipped
    # convert and the benchmark's tracer OR the mask with the clamp mask
    assert np.shape(clipped | (n2 > POW2.counter_max)) == np.shape(n2)
    assert np.array_equal(np.broadcast_to(clipped, np.shape(n2)), want)
    x = np.where(want, q_max * POW2.f_clk / i_ref, n_charge * (i_in / i_ref))
    assert np.array_equal(n2, np.floor(x + CROSSING_GUARD))


def test_discharge_counts_returns_whole_float_counts():
    # the kernel's counts are whole float64 values; convert and
    # convert_signed, which need integers, cast them
    n2, _ = discharge_counts(POW2, np.array([512.0, 300.0]), AT_CLIP / 4, AT_CLIP)
    assert n2.dtype == np.float64 and n2.tolist() == [128.0, 75.0]
    n2, clipped = discharge_counts(POW2, 300.0, AT_CLIP / 4, AT_CLIP)
    assert n2.dtype == np.float64 and n2 == 75.0 and not clipped
    # plain digitization: preload 0, sign -1
    charge = charge_phase(POW2, 1.0, 0, -1)
    conv = convert(POW2, np.array([AT_CLIP / 4, AT_CLIP / 2]), AT_CLIP, charge, 0)
    assert conv.out_count.dtype.kind == conv.n_discharge.dtype.kind == "i"
    assert conv.n_discharge.tolist() == [128, 256] and conv.out_count.tolist() == [128, 256]
    signed = convert_signed(POW2, np.array([-AT_CLIP / 4, AT_CLIP / 2]), AT_CLIP)
    assert signed.dtype.kind == "i" and signed.tolist() == [-128, 256]
    assert convert_signed(POW2, -AT_CLIP / 4, AT_CLIP) == -128


# each function of one batch input, and a scalar value of that input
SCALAR_CALLS = {
    "vbe": (lambda t: vbe(BjtParams(), t), 310.0),
    "delta_vbe": (lambda t: delta_vbe(CurrentSourceParams(), t), 310.0),
    # the clipped mask too: the charge at 2 * AT_CLIP clips
    "discharge_counts": (lambda i: discharge_counts(POW2, 512.0, i, AT_CLIP), 2 * AT_CLIP),
    "convert": (lambda i: convert(POW2, i, AT_CLIP, charge_phase(POW2, 1.0, 0, -1), 0),
                AT_CLIP / 4),
    "convert_signed": (lambda i: convert_signed(POW2, i, AT_CLIP), -AT_CLIP / 4),
    "duty_of_code": (lambda code: duty_of_code(PwmConfig(), code), 731),
}


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_scalar_input_gives_the_one_element_batch_value(name):
    # a scalar input is a batch of one: each result, or each item of a
    # result tuple, has shape () and the value of the one-element batch's
    # single element
    fn, x = SCALAR_CALLS[name]
    scalar, batch = fn(x), fn(np.array([x]))
    if not isinstance(scalar, tuple):
        scalar, batch = (scalar,), (batch,)
    for got, want in zip(scalar, batch):
        assert np.shape(got) == () and got == np.ravel(want)[0]


def noise_layout(name, rng):
    """(n_charge, i_in, i_ref, block, noise) laid out as one caller lays
    out its batch on a 3x2 array, with one cell's input clipping at the
    largest charge phase: noise is the fresh float64 block the cells drew,
    or a view of it."""
    rows, cols = 3, 2
    i_ref = np.full((rows, cols), AT_CLIP / 2)
    i_in = AT_CLIP / 4 * (1.0 + 0.1 * rng.random((rows, cols)))
    i_in[1, 0] = AT_CLIP * 2
    if name == "calibration":
        # (rows, cols, n_avg, candidates): one contiguous block
        n_charge = 512.0 - np.arange(-4, 4)
        block = rng.normal(0.0, 0.3, (rows, cols, 4, n_charge.size))
        return n_charge, i_in[..., None, None], i_ref[..., None, None], block, block
    if name == "readout":
        # (temperatures, rows, cols, n_avg): a strided view of the
        # (rows, cols, temperatures, n_avg) block the cells draw
        n_charge = np.full((rows, cols, 1), 500.0)
        block = rng.normal(0.0, 0.3, (rows, cols, 5, 4))
        scale = np.linspace(0.5, 1.0, 5)[:, None, None, None]
        return (n_charge, scale * i_in[..., None], i_ref[..., None], block,
                np.moveaxis(block, (0, 1), (-3, -2)))
    # the loop: cycle 2's (slots, rows, cols) slice of the strided
    # (cycles, slots, rows, cols) view of the run's block
    n_charge = np.array([512.0, 256.0, 64.0])[:, None, None] * np.ones((rows, cols))
    block = rng.normal(0.0, 0.3, (rows, cols, 6, 3))
    return n_charge, i_in, i_ref, block, np.moveaxis(block, (0, 1), (-2, -1))[2]


@pytest.mark.parametrize("layout", ["calibration", "readout", "loop"])
def test_discharge_counts_floors_in_the_callers_noise_block(layout):
    # a noisy batch uses up its noise: the counts are floored in the
    # caller's block, bit-equal to adding the noise out of place
    n_charge, i_in, i_ref, block, noise = noise_layout(layout, np.random.default_rng(5))
    q_max = POW2.c_int * POW2.v_full
    want = n_charge * i_in / POW2.f_clk > q_max
    assert want.any() and not want.all()
    x = np.where(want, q_max * POW2.f_clk / i_ref, n_charge * (i_in / i_ref))
    expect = np.floor(x + noise.copy() + CROSSING_GUARD)
    n2, clipped = discharge_counts(POW2, n_charge, i_in, i_ref, noise)
    assert n2 is noise and np.shares_memory(n2, block)
    assert n2.tobytes() == expect.tobytes()
    assert np.array_equal(*np.broadcast_arrays(clipped, want, n2)[:2])

    # without noise, the counts are a new array and the inputs stay as they were
    inputs = [np.copy(v) for v in (n_charge, i_in, i_ref)]
    quiet, _ = discharge_counts(POW2, n_charge, i_in, i_ref)
    assert not any(np.shares_memory(quiet, v) for v in (n_charge, i_in, i_ref))
    assert quiet.tobytes() == np.floor(x + CROSSING_GUARD).tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(inputs, (n_charge, i_in, i_ref)))


@pytest.mark.parametrize("layout", ["calibration", "readout", "loop"])
def test_discharge_counts_rejects_noise_before_writing(layout):
    # noise that does not span the whole batch, does not broadcast, is
    # not float64 or is read-only raises, and the block keeps its values
    n_charge, i_in, i_ref, _, noise = noise_layout(layout, np.random.default_rng(6))
    before = noise.copy()
    readonly = noise.view()
    readonly.flags.writeable = False
    for bad in (noise[:1], noise[:, :1], noise[..., None], noise.astype(np.float32),
                readonly):
        with pytest.raises((ValueError, TypeError)):
            discharge_counts(POW2, n_charge, i_in, i_ref, bad)
        assert np.array_equal(noise, before)


def test_counter_saturation_clamps():
    conv = run(3e-7, 1e-9)  # ratio far beyond the counter range
    assert conv.saturated
    assert conv.out_count == QUIET.counter_max


@pytest.mark.parametrize("coeff, cal, sign, message", [
    (0.3, 0, -1, "coeff_mag must sit on the 7-bit grid"),
    (0.0, 0, -1, "coeff_mag must lie in (0, 1]"),
    (0.5, 0, 2, "coeff_sign must be +1 or -1"),
    (0.5, 0, -2, "coeff_sign must be +1 or -1"),
    (1.0 / 128, 10, -1, "calibration preload leaves no charge phase"),
])
def test_charge_phase_rejects_as_convert_did(coeff, cal, sign, message):
    # the checks run once per charge phase, with the exception type and
    # message convert raised: for one conversion, and for one bad row of
    # a loop-shaped (rows, cells) column batch
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        charge_phase(QUIET, coeff, cal, sign)
    cals = np.zeros((2, 2, 3), dtype=int)
    cals[1] = cal
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        charge_phase(QUIET, np.array([0.5, coeff])[:, None, None], cals,
                     np.array([-1, sign])[:, None, None])


@pytest.mark.parametrize("i_in, i_ref", [
    (-1e-8, 1e-7), (0.0, 1e-7), (1e-8, 0.0), (1e-8, -1e-7),
    (np.array([1e-8, np.nan, -1e-8]), 1e-7),
])
def test_convert_rejects_a_non_positive_current(i_in, i_ref):
    # checked on every call: the currents change from cycle to cycle
    charge = charge_phase(QUIET, 1.0, 0, -1)
    with pytest.raises(DomainError, match=re.escape(
            "currents must be positive (use convert_signed for bipolar)")):
        convert(QUIET, i_in, i_ref, charge, 0)


def test_convert_runs_an_empty_batch():
    charge = charge_phase(QUIET, np.ones(0), np.zeros(0, dtype=int), -1)
    conv = convert(QUIET, np.ones(0), 1e-7, charge, 0)
    assert conv.out_count.shape == (0,) and conv.saturated == 0


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        run(1e-8, 1e-7, coeff=0.3)           # off the 7-bit grid
    with pytest.raises(ConfigurationError):
        run(1e-8, 1e-7, coeff=1.0 / 128, cal=10)  # charge phase consumed
    with pytest.raises(DomainError):
        run(-1e-8, 1e-7)


def nominal_counts(t_c):
    """Plain-mode counts of a noiseless, mismatch-free 1x1 array at each t_c."""
    arr = TempArray(ArrayConfig(rows=1, cols=1, bjt=BJT, current_source=CS,
                                madc=QUIET, sigma_vbe=0.0, sigma_r1=0.0,
                                sigma_r2=0.0, sigma_mirror=0.0), 0)
    return arr.read_counts(np.asarray(t_c, dtype=float)[:, None, None])[:, 0, 0]


def test_nominal_count_falls_with_temperature():
    prev = None
    for count in nominal_counts(range(20, 95, 5)):
        if prev is not None:
            assert count < prev
        prev = count


def test_design_map_readback_accuracy():
    # nominal cell read through the design map stays within half an LSB
    # of truth plus interpolation error over the full sweep
    tm = TemperatureMap(QUIET, BJT, CS)
    t_values = np.arange(20.0, 90.5, 0.5)
    for t_c, count in zip(t_values, nominal_counts(t_values)):
        err = float(tm.read_temperature(count)) - t_c
        assert abs(err) < 0.5


def test_design_map_linear_fit_residual_reported():
    # the straight-line fit of the count map has a curvature residual far
    # above the map-based accuracy: it is reported, not hidden
    tm = TemperatureMap(QUIET, BJT, CS)
    t = np.arange(20.0, 91.0)
    counts = tm.counts_cont(t)
    coef = np.polyfit(t, counts, 1)
    resid = counts - np.polyval(coef, t)
    slope = np.abs(np.gradient(counts, t))
    assert 1.0 < np.max(np.abs(resid) / slope) < 4.0


def test_snr_quantization_limited():
    cfg = MadcConfig(c_int=3e-9, conversion_noise_counts=0.0)
    assert snr_test(cfg, 15.0, 400e-9, 16384) >= 56.0


def test_snr_zero_amplitude_rejected():
    with pytest.raises(DomainError):
        snr_test(QUIET, 15.0, 0.0, 16384)
