import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tregsim.array_sim import ArrayConfig, TempArray
from tregsim.devices import BjtParams, CurrentSourceParams
from tregsim.errors import ConfigurationError, DomainError
from tregsim.experiments import madc_oracle_reference, madc_oracle_slow
from tregsim.madc import (CROSSING_GUARD, MadcConfig, TemperatureMap, convert,
                          convert_signed, discharge_counts, snr_test)

CFG = MadcConfig(conversion_noise_counts=0.0)
QUIET = CFG
BJT = BjtParams()
CS = CurrentSourceParams()
SCALE = 2.0 ** -40


def run(i_in, i_ref, coeff=1.0, cal=0, preload=0, sign=-1, cfg=None):
    """One noiseless conversion.  The defaults, preload 0 and sign -1, are
    plain digitization: the output is the discharge count."""
    return convert(cfg or QUIET, i_in, i_ref, coeff, cal, preload, sign)


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
    _, clipped = discharge_counts(cfg, conv.n_charge, 4e-7, 4e-7)
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


def test_counter_saturation_clamps():
    conv = run(3e-7, 1e-9)  # ratio far beyond the counter range
    assert conv.saturated
    assert conv.out_count == QUIET.counter_max


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
                                sigma_r2=0.0, sigma_mirror=0.0))
    sweep = np.asarray(t_c, dtype=float)[:, None, None]
    return arr.read_counts(arr.front_end_currents(sweep))[:, 0, 0]


def test_digitize_temperature_monotone():
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


def test_hd2_term_default_off_and_effective():
    dist = MadcConfig(conversion_noise_counts=0.0, hd2_fraction=0.01)
    clean = run(3e-7, 4e-7).out_count
    bent = run(3e-7, 4e-7, cfg=dist)
    # 1 percent of full scale at 3/4 scale: ~ +2.9 counts
    assert bent.out_count - clean == pytest.approx(0.01 * clean * clean / 512, abs=1.5)


def test_snr_quantization_limited():
    cfg = MadcConfig(c_int=3e-9, conversion_noise_counts=0.0)
    assert snr_test(cfg) >= 56.0


def test_snr_zero_amplitude_rejected():
    with pytest.raises(DomainError):
        snr_test(QUIET, amplitude=0.0)


def test_snr_degrades_monotonically_with_noise():
    cfg = MadcConfig(c_int=3e-9, conversion_noise_counts=0.0)
    values = [snr_test(cfg, noise_rms=nr, seed=5)
              for nr in (0.5e-9, 2e-9, 8e-9)]
    assert values[0] > values[1] > values[2]
