import numpy as np
import pytest

from tregsim.madc import COEFF_LEVELS
from tregsim.pid import (PidCoefficients, PidState, default_tuning, pid_cycle,
                         quantization_deviation_bound,
                         transfer_function_response, velocity_response)
from tregsim.thermal import fit_defaults


def test_pure_proportional_expansion():
    coeffs = PidCoefficients.derive(1.0, 0.0, 0.0, 1.0)
    assert (coeffs.c0, coeffs.c1, coeffs.c2) == (1.0, -1.0, 0.0)
    # the recurrence reduces to u(k) - u(k-1) = e(k) - e(k-1)
    e = np.array([3.0, 5.0, 2.0, 2.0])
    u = velocity_response(coeffs.c0, coeffs.c1, coeffs.c2, e)
    assert np.allclose(np.diff(u), np.diff(e))
    assert u[0] == e[0]


def test_null_controller():
    coeffs = PidCoefficients.derive(0.0, 0.0, 0.0, 1.0)
    assert coeffs.mantissas == (0, 0, 0)
    u = velocity_response(*coeffs.quantized, np.ones(10), u0=5.0)
    assert np.all(u == 5.0)


def test_velocity_form_matches_transfer_function_exactly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        kp = 10 ** rng.uniform(-1, 1.5)
        ki = kp / rng.uniform(0.5, 20.0)
        ts = rng.uniform(0.1, 5.0)
        kd = rng.uniform(0.0, kp * ts / 4)
        e = rng.uniform(-1, 1, 500)
        coeffs = PidCoefficients.derive(kp, ki, kd, ts)
        u_vel = velocity_response(coeffs.c0, coeffs.c1, coeffs.c2, e)
        u_tf = transfer_function_response(kp, ki, kd, ts, e)
        assert np.abs(u_vel - u_tf).max() <= 1e-9 * max(1.0, np.abs(u_tf).max())


def test_quantized_recurrence_within_documented_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        kp = 10 ** rng.uniform(-1, 1.7)
        ki = kp / rng.uniform(0.5, 20.0)
        ts = rng.uniform(0.1, 5.0)
        kd = rng.uniform(0.0, kp * ts / 4)
        e = rng.uniform(-1, 1, 1000)
        coeffs = PidCoefficients.derive(kp, ki, kd, ts)
        u_ref = transfer_function_response(kp, ki, kd, ts, e)
        u_q = velocity_response(*coeffs.quantized, e)
        bound = quantization_deviation_bound(coeffs, e)
        assert np.all(np.abs(u_q - u_ref) <= bound)


def test_coefficient_normalization():
    coeffs = PidCoefficients.derive(80.0, 8.0, 2.0, 0.2)
    for mag in coeffs.magnitudes:
        assert 0.0 <= mag <= 1.0
    qc = coeffs.quantized
    for c, q in zip((coeffs.c0, coeffs.c1, coeffs.c2), qc):
        assert abs(c - q) <= 2.0 ** coeffs.exponent / COEFF_LEVELS / 2 + 1e-12


class StubMeasure:
    """A cycle's batched error conversions, with a programmable measured
    count per tap: row j of the preloads belongs to the j-th active slot.
    Returns the output counts, preloads - n_discharge."""

    def __init__(self, coeffs, n2_of_preload):
        self.slots = [n for n in range(3) if coeffs.mantissas[n] != 0]
        self.mags = [coeffs.magnitudes[n] for n in self.slots]
        self.n2_of_preload = n2_of_preload
        self.calls = []     # per call: (slot, coeff_mag, preload) of each row

    def __call__(self, preloads):
        assert len(preloads) == len(self.slots)
        rows = list(zip(self.slots, self.mags, preloads.tolist()))
        self.calls.append(rows)
        return preloads - np.array([self.n2_of_preload(*row) for row in rows], dtype=int)


def run_cycle(st, coeffs, measure):
    """One loop cycle: dither, convert at the preloads, then pid_cycle on the counts."""
    return pid_cycle(st, coeffs, measure(st.dither()))


def make_state(coeffs, x=(1000.0, 800.0, 60.0)):
    """A state at u = 1000 holding x[n] as the target of each active tap n."""
    st = PidState(u_prev=1000)
    st.set_targets([x[n] for n in coeffs.active], coeffs.active)
    return st


def test_zero_error_leaves_actuation_unchanged():
    coeffs = PidCoefficients.derive(10.0, 1.0, 0.5, 2.0)
    # measured count always equals the loaded target: e == 0
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload)
    st = make_state(coeffs, x=(1000.0, 800.0, 60.0))
    for _ in range(3):
        u = run_cycle(st, coeffs, measure)
        assert u == 1000
    assert not st.saturated


def test_cold_start_increases_actuation():
    # measured count above target (counts fall with temperature, so the
    # cell is below setpoint): positive kp must push the duty up
    coeffs = PidCoefficients.derive(10.0, 1.0, 0.5, 2.0)
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload + 20)
    st = make_state(coeffs)
    st.u_prev = 0
    u = run_cycle(st, coeffs, measure)
    assert u > 0


def test_actuation_clamps_and_flags():
    coeffs = PidCoefficients.derive(10.0, 1.0, 0.5, 2.0)
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload + 10000)
    st = make_state(coeffs)
    st.u_prev = 4000
    u = run_cycle(st, coeffs, measure)
    assert u == 4095
    assert st.saturated
    measure2 = StubMeasure(coeffs, lambda slot, mag, preload: max(preload - 10000, 0))
    st2 = make_state(coeffs)
    st2.u_prev = 10
    # drain the bank with three cold cycles
    for _ in range(3):
        u2 = run_cycle(st2, coeffs, measure2)
    assert u2 == 0


def test_bank_products_saturate_at_8bit_range():
    coeffs = PidCoefficients.derive(10.0, 1.0, 0.5, 2.0)
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload + 100000)
    st = make_state(coeffs)
    run_cycle(st, coeffs, measure)
    assert all(p <= 127 for p in st.bank[0])


def test_idle_tap_banks_zero_products():
    # a zero-mantissa tap converts nothing and banks 0, whatever the bank held
    coeffs = PidCoefficients(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0, 127, -127, 0)
    st = PidState(u_prev=100, bank=np.full((3, 3), 5))
    assert coeffs.active == [0, 1]
    st.set_targets((1000.0, 800.0), coeffs.active)
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload + 3)
    for _ in range(3):
        run_cycle(st, coeffs, measure)
    assert not st.bank[:, 2].any()


def test_three_conversions_per_cycle_in_slot_order():
    # one dither per cycle, its preloads stacked in slot order:
    # each row is its own tap's target, floor(x_n) on a fresh accumulator
    coeffs = PidCoefficients.derive(10.0, 1.0, 0.5, 2.0)
    measure = StubMeasure(coeffs, lambda slot, mag, preload: preload)
    st = make_state(coeffs, x=(1000.0, 800.0, 60.0))
    run_cycle(st, coeffs, measure)
    (call,) = measure.calls
    assert [c[0] for c in call] == [0, 1, 2]
    assert [c[1] for c in call] == list(coeffs.magnitudes)
    assert [c[2] for c in call] == [1000, 800, 60]


def test_dither_carries_when_the_accumulator_reaches_one():
    # a target fraction of exactly 0.5 fills the accumulator to exactly
    # 1.0 on every second cycle, which carries
    st = PidState()
    st.set_targets([100.5], [0])
    assert [int(st.dither()[0]) for _ in range(4)] == [100, 101, 100, 101]


def test_default_tuning_properties():
    c_th, g_amb, _ = fit_defaults()
    kp, ki, kd = default_tuning(c_th, g_amb, 0.27, 19.2, 4.0)
    assert ki > 0  # integral action present: no steady-state offset
    assert kp > 0 and kd > 0
    coeffs = PidCoefficients.derive(kp, ki, kd, 4.0, counts_per_kelvin=19.2)
    # all three taps active so every cycle runs three conversions
    assert all(q != 0 for q in coeffs.mantissas)
    # rail guard: scaled coefficient keeps products linear past 11 degC
    assert coeffs.magnitudes[0] * 19.2 <= 11.5


@pytest.mark.parametrize("exponent, mantissas", [
    (2, (90, -60, 5)),
    (0, (127, -127, 0)),       # a zero tap is skipped: no conversion, no product
    (-1, (0, 100, -20)),
    (-3, (40, -35, 3)),
])
def test_pid_cycle_matches_integer_model(exponent, mantissas):
    # random measured counts through the integer bank, sigma-delta and
    # clamp path, against
    #   u(k) = clamp(u(k-1) + 2**e * (s0 p0(k) + s1 p1(k-1) + s2 p2(k-2)))
    # with the floor taken for e < 0 and each product clamped to +-127
    rng = np.random.default_rng(31 + exponent)
    coeffs = PidCoefficients(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, exponent, *mantissas)
    signs = [1 if q >= 0 else -1 for q in mantissas]
    active = [n for n in range(3) if mantissas[n] != 0]
    measured = {}

    def n2_of(slot, mag, preload):
        assert mag == abs(mantissas[slot]) / COEFF_LEVELS
        n2 = preload + int(rng.integers(-160, 161))
        measured[slot] = (preload, n2)
        return n2

    measure = StubMeasure(coeffs, n2_of)
    st = PidState(u_prev=2000)
    target_x = [float(x) for x in rng.uniform(50.0, 900.0, 3)]
    st.set_targets([target_x[n] for n in active], active)
    n_cycles = 400
    u = 2000
    p1 = p2 = [0, 0, 0]                 # products of cycles k-1 and k-2
    preloads = {n: [] for n in active}
    saturated = 0
    for _ in range(n_cycles):
        measured.clear()
        got = run_cycle(st, coeffs, measure)
        assert sorted(measured) == active
        p = [0, 0, 0]
        for n, (preload, n2) in measured.items():
            preloads[n].append(preload)
            p[n] = max(-127, min(127, n2 - preload))
        inc = signs[0] * p[0] + signs[1] * p1[1] + signs[2] * p2[2]
        inc = inc * 2 ** exponent if exponent >= 0 else inc // 2 ** -exponent
        raw = u + inc
        u = max(0, min(4095, raw))
        assert got == u
        assert st.saturated == (u != raw or any(abs(x) == 127 for x in p))
        saturated += st.saturated
        p1, p2 = p, p1
    assert 0 < saturated < n_cycles
    # the dithered preloads average to each tap's target
    for n in active:
        assert abs(np.mean(preloads[n]) - target_x[n]) < 1.0 / n_cycles
