"""Harmonic yield from the dipole series: three-point acceleration, Hann window, FFT.

The yield is Y = log10 |FFT(Hann(d^2<x>/dt^2))|^2 on the one-sided
frequency grid, normalized by subtracting the value at the fundamental
bin: Y_N = Y - Y(omega_L).  On the default propagation grid the
fundamental falls exactly on bin n_cyc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided spectrum in harmonic-order units.

    orders            frequency grid omega_k / omega_L, k = 0 .. n//2
    yield_raw         Y(omega_k)
    yield_norm        Y_N(omega_k) = Y - Y(fundamental)
    fundamental_index index of the bin nearest omega_L
    """

    orders: np.ndarray = field(repr=False)
    yield_raw: np.ndarray = field(repr=False)
    yield_norm: np.ndarray = field(repr=False)
    fundamental_index: int = 0


def acceleration(dipole: np.ndarray, dt: float) -> np.ndarray:
    """Three-point second derivative; endpoints zero-filled.

    Exact for quadratics; the Hann window suppresses the zeroed
    endpoints downstream.
    """
    x = np.asarray(dipole, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 3:
        raise ValueError(f"need at least 3 samples, got shape {x.shape}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    acc = np.zeros_like(x)
    acc[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (dt * dt)
    return acc


def hann_window(series: np.ndarray) -> np.ndarray:
    """Multiply by w_i = sin^2(pi i / (M-1)); endpoints go to zero."""
    x = np.asarray(series, dtype=np.float64)
    m = x.shape[0]
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    i = np.arange(m)
    w = np.sin(np.pi * i / (m - 1)) ** 2
    w[-1] = 0.0  # sin^2(pi) rounds to about 1.5e-32
    return x * w


def yield_spectrum(accel: np.ndarray, dt: float, omega_l: float) -> SpectrumResult:
    """Windowed one-sided power spectrum of the acceleration, log10 scale.

    Bin k sits at omega_k = 2 pi k / (n dt); the log has a 1e-300 floor
    so empty bins stay finite.  No zero padding: the grid resolution is
    the full record length.
    """
    x = np.asarray(accel, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty input")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not omega_l > 0:
        raise ValueError(f"omega_l must be > 0, got {omega_l}")
    spec = np.fft.rfft(hann_window(x))
    omega = 2.0 * np.pi * np.arange(spec.shape[0]) / (n * dt)
    power = np.abs(spec) ** 2
    y = np.log10(np.maximum(power, _LOG_FLOOR))
    fund = int(np.argmin(np.abs(omega - omega_l)))
    return SpectrumResult(
        orders=omega / omega_l,
        yield_raw=y,
        yield_norm=y - y[fund],
        fundamental_index=fund,
    )
