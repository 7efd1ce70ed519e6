"""Spectral analysis: discrete derivative, window, FFT grid and normalization."""

import numpy as np
import pytest

from polaron_hhg.spectrum import acceleration, hann_window, yield_spectrum


def test_acceleration_constant_is_zero():
    acc = acceleration(np.full(100, 3.7), dt=0.5)
    assert np.array_equal(acc, np.zeros(100))


def test_acceleration_exact_for_quadratic():
    t = np.linspace(0.0, 1.0, 11)
    acc = acceleration(t**2, dt=t[1] - t[0])
    assert acc[0] == 0.0 and acc[-1] == 0.0
    assert np.allclose(acc[1:-1], 2.0, atol=1e-10)


def test_acceleration_sine_error_bound():
    omega, dt = 1.0, 0.01
    t = np.arange(2000) * dt
    acc = acceleration(np.sin(omega * t), dt)
    exact = -(omega**2) * np.sin(omega * t)
    # interior points only; avoid dividing by tiny near-zero values
    big = np.abs(exact[1:-1]) > 0.1
    rel = np.abs(acc[1:-1][big] - exact[1:-1][big]) / np.abs(exact[1:-1][big])
    assert rel.max() <= (omega * dt) ** 2 / 12 * 1.5


def test_acceleration_input_validation():
    with pytest.raises(ValueError):
        acceleration(np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        acceleration(np.zeros(10), 0.0)
    with pytest.raises(ValueError):
        acceleration(np.zeros(10), np.nan)


def test_hann_window_values():
    w = hann_window(np.ones(5))
    assert np.allclose(w, [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-15)
    assert w[0] == 0.0 and w[-1] == 0.0


def test_hann_window_midpoint_unchanged():
    x = np.arange(11.0)
    assert hann_window(x)[5] == x[5]


def test_hann_window_matches_numpy():
    x = np.ones(257)
    assert np.allclose(hann_window(x), np.hanning(257), atol=1e-14)


def test_hann_window_validation():
    with pytest.raises(ValueError):
        hann_window(np.ones(1))


def test_windowed_cosine_concentrates_on_neighboring_bins():
    n, k0 = 1024, 37
    dt = 0.1
    t = np.arange(n) * dt
    x = np.cos(2 * np.pi * k0 * t / (n * dt))
    res = yield_spectrum(x, dt, omega_l=2 * np.pi / (n * dt))
    power = 10.0**res.yield_raw
    peak = power[k0]
    # the symmetric window sin^2(pi i/(n-1)) has period n-1, not the DFT
    # length n, so an on-bin tone leaks O(n^-2) of its power beyond the
    # Hann main lobe (1.1e-7 at n = 1024) and each side bin holds
    # peak/4 to O(1/n)
    far = np.ones(len(power), dtype=bool)
    far[k0 - 1 : k0 + 2] = False
    assert power[far].max() <= peak / n**2
    for k in (k0 - 1, k0 + 1):
        assert abs(power[k] / peak - 0.25) <= 1.0 / n


def test_yield_norm_is_zero_at_fundamental():
    rng = np.random.default_rng(3)
    res = yield_spectrum(rng.normal(size=4096), dt=0.2, omega_l=2 * np.pi / (4096 * 0.2) * 5)
    assert res.fundamental_index == 5
    assert res.yield_norm[res.fundamental_index] == 0.0


def test_fundamental_falls_on_cycle_bin():
    # n samples spanning exactly n_cyc carrier cycles put the fundamental
    # on bin n_cyc, and the order grid spacing is 1/n_cyc
    omega_l, n_cyc, n = 0.002, 5, 2**16
    tf = 2 * np.pi * n_cyc / omega_l
    dt = tf / n
    res = yield_spectrum(np.zeros(n), dt, omega_l)
    assert res.fundamental_index == n_cyc
    omega_fund = res.orders[n_cyc] * omega_l
    assert abs(omega_fund - omega_l) / omega_l <= 1e-12
    spacing = np.diff(res.orders)
    assert np.allclose(spacing, 1.0 / n_cyc, rtol=1e-12)


def test_parseval_consistency():
    # sum |windowed|^2 dt equals sum |X dt|^2 / (n dt) with X the plain DFT
    rng = np.random.default_rng(11)
    n, dt = 4096, 0.3
    x = rng.normal(size=n)
    res = yield_spectrum(x, dt, omega_l=2 * np.pi / (n * dt))
    power = 10.0**res.yield_raw
    # fold the one-sided spectrum back to the full-circle sum
    full_sum = power[0] + power[-1] + 2.0 * power[1:-1].sum()
    windowed = hann_window(x)
    lhs = (windowed**2).sum() * dt
    rhs = full_sum * dt / n
    assert abs(lhs - rhs) / lhs <= 1e-10


def test_one_sided_output_length():
    for n in (64, 65):
        res = yield_spectrum(np.ones(n), 0.1, omega_l=1.0)
        assert res.orders.shape[0] == n // 2 + 1


def test_log_floor_on_silent_input():
    res = yield_spectrum(np.zeros(256), 0.1, omega_l=1.0)
    assert np.array_equal(res.yield_raw, np.full(129, -300.0))
    assert np.array_equal(res.yield_norm, np.zeros(129))


def test_yield_spectrum_validation():
    with pytest.raises(ValueError):
        yield_spectrum(np.array([]), 0.1, 1.0)
    with pytest.raises(ValueError):
        yield_spectrum(np.ones(16), 0.1, 0.0)
    with pytest.raises(ValueError):
        yield_spectrum(np.ones(16), 0.1, np.nan)
