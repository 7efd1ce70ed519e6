"""Laser pulse: sin^2-envelope vector potential and its analytic electric field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import is_integer


@dataclass(frozen=True)
class LaserParams:
    """Vector-potential amplitude (finite), carrier frequency (finite, > 0)
    and cycle count (an integer >= 1), in atomic units."""

    a0: float = 0.183
    omega_l: float = 0.002
    n_cyc: int = 5

    def __post_init__(self):
        if not -np.inf < self.a0 < np.inf:
            raise ValueError(f"a0 must be finite, got {self.a0}")
        if not 0 < self.omega_l < np.inf:
            raise ValueError(f"omega_l must be finite and > 0, got {self.omega_l}")
        if not is_integer(self.n_cyc) or self.n_cyc < 1:
            raise ValueError(f"n_cyc must be an integer >= 1, got {self.n_cyc!r}")

    def t_final(self) -> float:
        return 2.0 * np.pi * self.n_cyc / self.omega_l


def vector_potential(t, p: LaserParams):
    """A(t) = -A0 sin^2(w t / 2n) sin(w t) inside [0, t_f], exactly 0 outside."""
    t = np.asarray(t, dtype=np.float64)
    env = np.sin(p.omega_l * t / (2.0 * p.n_cyc))
    val = -p.a0 * env * env * np.sin(p.omega_l * t)
    inside = (t >= 0.0) & (t <= p.t_final())
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)


def electric_field(t, p: LaserParams):
    """E(t) = -dA/dt, differentiated analytically; exactly 0 outside [0, t_f]."""
    t = np.asarray(t, dtype=np.float64)
    x = p.omega_l * t / (2.0 * p.n_cyc)
    s, c = np.sin(x), np.cos(x)
    val = p.a0 * (
        (p.omega_l / p.n_cyc) * s * c * np.sin(p.omega_l * t)
        + p.omega_l * s * s * np.cos(p.omega_l * t)
    )
    inside = (t >= 0.0) & (t <= p.t_final())
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)
