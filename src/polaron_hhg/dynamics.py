"""Time propagation of the amplitude vector in the truncated eigenbasis.

The equations of motion  i da_m/dt = e_m a_m + E(t) sum_n T_mn a_n  are
integrated with fixed-step interaction-picture RK4 (RK4IP; J. Hult,
J. Lightwave Technol. 25, 3770 (2007)).  The diagonal part is applied
exactly as the phase factor exp(-i eps dt/2) about each step midpoint,
and classic RK4 integrates only the field coupling E(t) T in that
frame, so field-free evolution is exact.  Internally the energies are
shifted by the ground-state energy (a global phase), which keeps the
accumulated phases small; amplitudes are returned in the original frame
and all observables are invariant under the shift.

The step is linear in the amplitudes: it is the exact phase applied
elementwise plus one nr x nr matrix, a field-weighted sum of nine fixed
products of the phase and T (see :func:`propagate`), so a step costs
one matvec and one elementwise multiply-add.  Steps run in blocks of
fixed length: each block forms its step matrices in one product and,
after its steps, computes the observables from its stored amplitudes.

The site densities, the 2N electron projectors and the 2N phonon
numbers, are rotated once into the eigenbasis (dense nr x nr; see
``_rotated_densities``), so each recorded sample costs O(nr^2)
regardless of the full space dimension; :func:`propagate` checks every
sample's imaginary part itself.  The dipole is recorded at every step,
so the downstream spectral analysis always sees the full-resolution
series no matter how sparsely densities are sampled.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .hilbert import BasisIndex, is_integer
from .pulse import LaserParams, electric_field
from .spectral import EigenBasis

# Largest phase per step, dt * max|e_m - e_gs|, in radians (see propagate).
_STABILITY_LIMIT = 1.0
_NORM_DIVERGENCE = 1e-4
_HERMITICITY_TOL = 1e-10
# Steps per block of propagate; a constant, so that every block makes the
# same BLAS calls whatever n_steps and record_stride are (see propagate).
_BLOCK = 64


class PropagationDivergedError(RuntimeError):
    """Norm drift exceeded the divergence threshold during propagation."""


class HermiticityError(RuntimeError):
    """Quadratic form of a rotated observable came out measurably complex."""


@dataclass(frozen=True)
class PropagationConfig:
    """Step count and observable sampling stride.

    n_steps        RK4IP steps over [0, t_final]; a power of two keeps the
                   FFT grid aligned (default 2**16).  It must be large
                   enough that the fastest retained state turns by at
                   most 1 rad per step (see :func:`propagate`)
    record_stride  steps between density/norm samples (1 = every step);
                   must divide n_steps
    """

    n_steps: int = 2**16
    record_stride: int = 1

    def __post_init__(self):
        if not is_integer(self.n_steps) or self.n_steps < 4:
            raise ValueError(f"n_steps must be an integer >= 4, got {self.n_steps!r}")
        if not is_integer(self.record_stride) or self.record_stride < 1:
            raise ValueError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if self.n_steps % self.record_stride:
            raise ValueError(
                f"record_stride {self.record_stride} must divide n_steps {self.n_steps}"
            )


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observables plus the full-resolution dipole.

    The sample grid is t_i = i * record_stride * dt for i = 0 .. n_samples-1,
    covering [0, t_final); ``dipole_full`` holds every step on the same
    convention and feeds the FFT stage, so ``dipole_full[::record_stride]``
    is the dipole on the sample grid.  ``a_final`` are the amplitudes at
    t_final in the unshifted frame.
    """

    times: np.ndarray = field(repr=False)
    amplitudes_norm: np.ndarray = field(repr=False)
    electron_density: np.ndarray = field(repr=False)
    phonon_density: np.ndarray = field(repr=False)
    dipole_full: np.ndarray = field(repr=False)
    dt: float = 0.0
    a_final: np.ndarray = field(default=None, repr=False)
    norm_final: float = 0.0


def sample_times(laser: LaserParams, cfg: PropagationConfig) -> np.ndarray:
    """The sample grid of :func:`propagate`, t_i = i * record_stride * dt."""
    dt = laser.t_final() / cfg.n_steps
    return np.arange(cfg.n_steps // cfg.record_stride) * (cfg.record_stride * dt)


def _rotated_densities(eig: EigenBasis, basis: BasisIndex) -> np.ndarray:
    """Stack of rotated site-occupation operators, shape (2*2N, nr, nr).

    The first 2N slices are the electron projectors, the rest the phonon
    number operators.  All are diagonal in the site basis, so each
    rotation is a masked or weighted Gram matrix of the eigenvectors.
    """
    v = eig.vectors
    ns = basis.n_sites
    ops = np.empty((2 * ns, eig.nr, eig.nr))
    sites = basis.electron_sites
    for r in range(ns):
        block = v[sites == r, :]
        ops[r] = block.T @ block
    occ = basis.occupations
    for f in range(ns):
        ops[ns + f] = v.T @ (occ[f, :, None] * v)
    return ops


def _step_matrices(t_mat: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The field terms of one RK4IP step, as a real view of shape (9, 2*nr*nr).

    With P = diag(phase), the half-step evolution, and K = -i T, they are
    the products P^2 K, PKP, PKPK, PK^2P, PK^2PK, KP^2, KPKP, KPK^2P and
    KPK^2PK, each scaled by its RK4 weight; :func:`_field_monomials` gives
    the field factor each one takes.
    """
    k = -1j * t_mat
    p = phase[:, None]
    q = phase[None, :]
    pkp = p * k * q
    pk2p = p * (k @ k) * q
    pk2pk = pk2p @ k
    mats = np.stack(
        [
            (p * p) * k / 6.0,
            pkp * (2.0 / 3.0),
            pkp @ k / 6.0,
            pk2p / 6.0,
            pk2pk / 12.0,
            k * (q * q) / 6.0,
            k @ pkp / 6.0,
            k @ pk2p / 12.0,
            k @ pk2pk / 24.0,
        ]
    )
    return mats.reshape(len(mats), -1).view(np.float64)


def _field_monomials(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray) -> np.ndarray:
    """Field factors of the :func:`_step_matrices` terms per step, shape (steps, 9).

    x1, x2, x3 are dt E(t) at the start, midpoint and end of each step.
    """
    x22 = x2 * x2
    return np.stack(
        [x1, x2, x1 * x2, x22, x1 * x22, x3, x2 * x3, x22 * x3, x1 * x22 * x3], axis=1
    )


def propagate(
    eig: EigenBasis,
    basis: BasisIndex,
    laser: LaserParams,
    cfg: PropagationConfig,
    a0: np.ndarray | None = None,
    on_samples: Callable | None = None,
) -> TimeSeries:
    """RK4IP propagation from ``a0`` (default: ground state) over one pulse.

    Raises ValueError if the step violates the stability guard
    dt * max|e_m - e_gs| <= 1, :class:`PropagationDivergedError` if the
    norm drifts by more than 1e-4 (or stops being finite) at any step,
    and :class:`HermiticityError` if a density sample has an imaginary
    part above 1e-10.  Each names the first step or sample at fault.

    The guard bounds the phase the fastest retained state turns through
    in one step.  That phase is applied exactly, but RK4 samples the
    interaction-picture coupling, which oscillates at the Bohr
    frequencies e_m - e_n, only at the start, midpoint and end of each
    step.  At 1 rad per step every retained Bohr frequency has at least
    2 pi samples per period of the dipole series, well inside its
    Nyquist limit of pi rad per step, and the stage quadrature stays in
    its fourth-order regime.

    One step is linear in the amplitudes: with P the half-step phase and
    x1, x2, x3 = dt E(t) at the start, midpoint and end of the step, the
    four RK4IP stages expand to a' = P^2 a + sum_j m_j(x1, x2, x3) M_j a
    over the nine fixed matrices of :func:`_step_matrices` and the
    monomials of :func:`_field_monomials`.  P^2 stays out of the matrix
    and is applied elementwise: folded into it, rounding moved the paper
    run's final amplitudes by 9e-13 from a long-double run of the same
    scheme, against 7e-15 kept apart (4e-16 stage by stage).

    Steps run in blocks of ``_BLOCK``.  A block evaluates the field on
    its own grid, forms all its step matrices with one real
    (``_BLOCK``, 9) @ (9, 2 nr^2) product, takes one matvec per step, and
    then computes the dipole, the norms, the densities and the norm and
    Hermiticity checks from its stored amplitudes.  The block
    length is a constant, not derived from ``n_steps``, ``record_stride``
    or the machine, and the last block is formed in full and stepped only
    in part: every block then makes the same BLAS calls on the same
    shapes, and a step's rounding depends only on its own inputs.  At 64
    steps the per-block calls are amortised while the block's step
    matrices stay about 1 MB at nr = 31.

    ``on_samples``, if given, is called once per block, right after the
    block's checks pass, with that block's samples in order: their
    indices on the :func:`sample_times` grid, the norms, the electron and
    the phonon densities (one row per sample, one column per site) and the
    dipole at the samples.  A block holds no sample when ``record_stride``
    exceeds its length; the call then gets empty arrays.  The arrays are
    the caller's to keep.  What the callable raises ends the propagation.
    """
    if eig.transition is None:
        raise ValueError("transition matrix not attached")
    nr = eig.nr
    tf = laser.t_final()
    n_steps, stride = cfg.n_steps, cfg.record_stride
    dt = tf / n_steps

    eps = eig.energies - eig.energies[0]
    spread = np.abs(eps).max()
    if not dt * spread <= _STABILITY_LIMIT:
        raise ValueError(
            f"stability guard violated: dt*max|e-e_gs| = {dt * spread:.3f} > {_STABILITY_LIMIT}"
        )

    if a0 is None:
        a = np.zeros(nr, dtype=np.complex128)
        a[0] = 1.0
    else:
        a = np.asarray(a0, dtype=np.complex128).copy()
        if a.shape != (nr,):
            raise ValueError(f"a0 shape {a.shape} != ({nr},)")
        if not abs(np.vdot(a, a).real - 1.0) <= 1e-8:
            raise ValueError("a0 is not normalized")

    t_mat = np.asarray(eig.transition, dtype=np.float64)
    # exact half-step evolution under the diagonal part
    phase = np.exp(-0.5j * dt * eps)
    phase2 = phase * phase
    terms = _step_matrices(t_mat, phase)
    # the 2N electron projectors, then the 2N phonon number operators, side
    # by side: row vector v of the product v @ dens holds every v^T D_k
    ops = _rotated_densities(eig, basis)
    n_ops = ops.shape[0]
    dens = ops.transpose(1, 0, 2).reshape(nr, n_ops * nr)
    ns = basis.n_sites

    times = sample_times(laser, cfg)
    n_samples = len(times)
    norms = np.empty(n_samples)
    e_dens = np.empty((n_samples, ns))
    p_dens = np.empty((n_samples, ns))
    dipole_full = np.empty(n_steps)

    # row j holds the amplitudes at step start + j
    amps = np.empty((_BLOCK + 1, nr), dtype=np.complex128)
    amps[0] = a
    # row views made once: indexing per step costs about as much as the matvec
    amp_rows = list(amps)
    kick = np.empty(nr, dtype=np.complex128)
    for start in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - start)
        # dt E(t) on the block's half-step grid: 2j -> t_j, 2j+1 -> t_j + dt/2
        half = np.arange(2 * start, 2 * (start + _BLOCK) + 1) * (0.5 * dt)
        x = dt * electric_field(half, laser)
        steps = (_field_monomials(x[0:-1:2], x[1::2], x[2::2]) @ terms).view(np.complex128)
        mats = list(steps.reshape(_BLOCK, nr, nr))
        for j in range(n):
            np.dot(mats[j], amp_rows[j], kick)
            np.multiply(phase2, amp_rows[j], out=amp_rows[j + 1])
            amp_rows[j + 1] += kick

        # real and imaginary parts side by side, shape (n + 1, 2, nr)
        xy = np.stack([amps[:n + 1].real, amps[:n + 1].imag], axis=1)
        norm = np.einsum("scj,scj->s", xy, xy)
        moved = (xy[:n].reshape(2 * n, nr) @ t_mat).reshape(n, 2, nr)
        dipole_full[start:start + n] = np.einsum("scj,scj->s", xy[:n], moved)
        diverged = np.flatnonzero(~(np.abs(norm[1:] - 1.0) <= _NORM_DIVERGENCE))

        rows = np.arange(-start % stride, n, stride)
        s = (start + rows) // stride
        pair = xy[rows]
        z = (pair.reshape(-1, nr) @ dens).reshape(-1, 2, n_ops, nr)
        vals = np.einsum("scj,sckj->sk", pair, z)
        # Im a^dag D a = x^T D y - y^T D x, zero up to rounding for real symmetric D
        residue = np.abs(
            np.einsum("sj,skj->sk", pair[:, 1], z[:, 0])
            - np.einsum("sj,skj->sk", pair[:, 0], z[:, 1])
        ).max(axis=1, initial=0.0)
        complex_rows = np.flatnonzero(~(residue <= _HERMITICITY_TOL))
        # a sample is checked before the step out of it, as step by step
        if complex_rows.size and (not diverged.size or rows[complex_rows[0]] <= diverged[0]):
            k = complex_rows[0]
            raise HermiticityError(f"imaginary residue {residue[k]:.3e} at sample {s[k]}")
        if diverged.size:
            k = diverged[0]
            raise PropagationDivergedError(
                f"norm drifted to {norm[k + 1]:.6f} at step {start + k + 1}; "
                "reduce dt or retain fewer/more states"
            )
        norms[s] = norm[rows]
        e_dens[s] = vals[:, :ns]
        p_dens[s] = vals[:, ns:]
        if on_samples is not None:
            on_samples(s, norm[rows], vals[:, :ns], vals[:, ns:], dipole_full[start + rows])
        amps[0] = amps[n]

    a = amps[0]
    # undo the internal gauge shift: a_m(t) = a_shifted_m(t) * exp(-i e_gs t)
    a_final = a * np.exp(-1j * eig.energies[0] * tf)
    return TimeSeries(
        times=times,
        amplitudes_norm=norms,
        electron_density=e_dens,
        phonon_density=p_dens,
        dipole_full=dipole_full,
        dt=dt,
        a_final=a_final,
        norm_final=float(np.vdot(a, a).real),
    )
