"""Propagator: RK4 correctness, norm behavior, observables, error paths."""

import numpy as np
import pytest

from polaron_hhg import dynamics
from polaron_hhg.dynamics import (
    HermiticityError,
    PropagationConfig,
    PropagationDivergedError,
    propagate,
    sample_times,
)
from polaron_hhg.hilbert import BasisIndex, BasisState, ModelParams
from polaron_hhg.operators import build_hamiltonian
from polaron_hhg.pulse import LaserParams, electric_field
from polaron_hhg.scan import ScanSpec, solve_eigenbasis
from polaron_hhg.spectral import EigenBasis

TWO_SITE = ModelParams(n_cells=1, phonon_cutoff=1)


def _eig(model, **kw):
    return solve_eigenbasis(ScanSpec(model=model, laser=LaserParams(), **kw))


def _manual_eig(energies, transition, dim=None):
    energies = np.asarray(energies, dtype=float)
    nr = len(energies)
    return EigenBasis(
        energies=energies,
        vectors=np.eye(dim or nr, nr),
        transition=np.asarray(transition, dtype=float),
    )


def _rk4ip_reference(eig, laser, n_steps, a0):
    """Stage-by-stage RK4IP: phase to the midpoint, four RK4 stages on E(t) T."""
    tf = laser.t_final()
    dt = tf / n_steps
    t = eig.transition
    phase = np.exp(-0.5j * dt * (eig.energies - eig.energies[0]))
    a = np.asarray(a0, dtype=complex)
    dipole, norms = [], []
    for i in range(n_steps):
        c1, c2, c3 = (-1j * dt * electric_field((i + f) * dt, laser) for f in (0.0, 0.5, 1.0))
        dipole.append(np.vdot(a, t @ a).real)
        norms.append(np.vdot(a, a).real)
        a_mid = phase * a
        k1 = c1 * (phase * (t @ a))
        k2 = c2 * (t @ (a_mid + 0.5 * k1))
        k3 = c2 * (t @ (a_mid + 0.5 * k2))
        k4 = c3 * (t @ (phase * (a_mid + k3)))
        a = phase * (a_mid + (k1 + 2.0 * (k2 + k3)) / 6.0) + k4 / 6.0
    return a * np.exp(-1j * eig.energies[0] * tf), np.array(dipole), np.array(norms)


def test_step_matches_stage_by_stage_rk4ip():
    # a random Hermitian 3-level system driven hard enough (|dt E T| up to
    # about 0.03, phases up to 0.8 rad a step) that every term of the
    # expanded step matters far above 1e-14
    rng = np.random.default_rng(5)
    laser = LaserParams()
    n_steps = 4
    dt = laser.t_final() / n_steps
    t = rng.normal(size=(3, 3)) * 0.005
    eig = _manual_eig(np.sort(rng.uniform(0.0, 0.8 / dt, 3)), t + t.T, dim=8)
    basis = BasisIndex(ModelParams(n_cells=1, phonon_cutoff=2))
    a0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a0 /= np.linalg.norm(a0)
    ts = propagate(eig, basis, laser, PropagationConfig(n_steps=n_steps), a0=a0)
    a_ref, dipole_ref, norms_ref = _rk4ip_reference(eig, laser, n_steps, a0)
    assert np.abs(ts.a_final - a_ref).max() <= 1e-14
    assert np.abs(ts.dipole_full - dipole_ref).max() <= 1e-14
    assert np.abs(ts.amplitudes_norm - norms_ref).max() <= 1e-14


def test_field_free_evolution_is_stationary():
    eig = _eig(TWO_SITE)
    basis = BasisIndex(TWO_SITE)
    laser = LaserParams(a0=0.0)
    ts = propagate(eig, basis, laser, PropagationConfig(n_steps=4096))
    assert np.abs(ts.amplitudes_norm - 1.0).max() <= 1e-12
    assert np.ptp(ts.dipole_full) <= 1e-12
    assert abs(ts.norm_final - 1.0) <= 1e-12


def test_rabi_period_against_rotating_wave_rate():
    # resonant drive of the two-level chain; the dipole envelope has nodes
    # at every half flop, so twice the shortest node spacing (at the pulse
    # peak) is the Rabi period 2 pi / (A0 * omega * |T01|)
    gap = 2 * 0.073
    laser = LaserParams(a0=0.1, omega_l=gap, n_cyc=200)
    eig = _eig(TWO_SITE, nr_override=2)
    basis = BasisIndex(TWO_SITE)
    ts = propagate(eig, basis, laser, PropagationConfig(n_steps=2**15, record_stride=2**15))
    dip = ts.dipole_full
    win = int(round(2 * 2 * np.pi / laser.omega_l / ts.dt))
    kernel = np.ones(win) / win
    envelope = np.sqrt(np.convolve(dip**2, kernel, mode="same"))
    from scipy.signal import argrelmin

    minima = argrelmin(envelope, order=win)[0] * ts.dt
    tf = laser.t_final()
    central = minima[(minima > 0.2 * tf) & (minima < 0.8 * tf)]
    assert central.size >= 3
    measured = 2.0 * np.diff(central).min()
    predicted = 2.0 * np.pi / (laser.a0 * laser.omega_l * abs(eig.transition[0, 1]))
    assert abs(measured - predicted) / predicted <= 0.05


def test_norm_conserved_on_small_run():
    model = ModelParams(n_cells=1, phonon_cutoff=2)
    eig = _eig(model, max_order=120.0)
    ts = propagate(eig, BasisIndex(model), LaserParams(), PropagationConfig(n_steps=2**16))
    assert abs(ts.norm_final - 1.0) <= 1e-6
    assert np.abs(ts.amplitudes_norm - 1.0).max() <= 1e-6


def test_propagation_linear_in_initial_state():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    eig = _eig(model, nr_override=2)
    basis = BasisIndex(model)
    laser = LaserParams()
    cfg = PropagationConfig(n_steps=2**14)
    e0 = np.array([1.0 + 0j, 0.0])
    e1 = np.array([0.0, 1.0 + 0j])
    mix = (e0 + e1) / np.sqrt(2.0)
    a_mix = propagate(eig, basis, laser, cfg, a0=mix).a_final
    a_sup = (
        propagate(eig, basis, laser, cfg, a0=e0).a_final
        + propagate(eig, basis, laser, cfg, a0=e1).a_final
    ) / np.sqrt(2.0)
    assert np.abs(a_mix - a_sup).max() <= 1e-12


def test_dipole_agrees_under_step_halving():
    model = ModelParams(n_cells=1, phonon_cutoff=2)
    eig = _eig(model, max_order=120.0)
    basis = BasisIndex(model)
    laser = LaserParams()
    coarse = propagate(eig, basis, laser, PropagationConfig(n_steps=2**15, record_stride=2**15))
    fine = propagate(eig, basis, laser, PropagationConfig(n_steps=2**16, record_stride=2**16))
    rng = coarse.dipole_full.max() - coarse.dipole_full.min()
    assert np.abs(coarse.dipole_full - fine.dipole_full[::2]).max() <= 1e-6 * rng


def test_stability_guard_rejects_large_steps():
    eig = _eig(TWO_SITE)
    with pytest.raises(ValueError, match="stability guard"):
        propagate(eig, BasisIndex(TWO_SITE), LaserParams(), PropagationConfig(n_steps=64))
    nan_level = _manual_eig([0.0, np.nan], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="stability guard"):
        propagate(nan_level, BasisIndex(TWO_SITE), LaserParams(), PropagationConfig(n_steps=2**10))


def test_divergence_error_on_violent_coupling():
    eig = _manual_eig([0.0, 1e-4], [[0.0, 5e4], [5e4, 0.0]])
    basis = BasisIndex(TWO_SITE)
    with pytest.raises(PropagationDivergedError, match="at step 3745"):
        propagate(eig, basis, LaserParams(), PropagationConfig(n_steps=2**16))


def test_nan_norm_counts_as_divergence():
    eig = _manual_eig([0.0, 1e-4], [[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(PropagationDivergedError, match="at step 1;"):
        propagate(eig, BasisIndex(TWO_SITE), LaserParams(), PropagationConfig(n_steps=2**10))


def test_nan_density_is_a_hermiticity_error():
    # a nan in the eigenvectors reaches the densities, not the norm
    eig = _manual_eig([0.0, 1e-4], np.zeros((2, 2)))
    eig.vectors[1, 1] = np.nan
    with pytest.raises(HermiticityError, match="at sample 0$"):
        propagate(eig, BasisIndex(TWO_SITE), LaserParams(), PropagationConfig(n_steps=2**10))


def test_initial_state_validation():
    eig = _eig(TWO_SITE)
    basis = BasisIndex(TWO_SITE)
    laser = LaserParams()
    cfg = PropagationConfig(n_steps=2**14)
    with pytest.raises(ValueError):
        propagate(eig, basis, laser, cfg, a0=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        propagate(eig, basis, laser, cfg, a0=np.array([0.7, 0.0]))
    with pytest.raises(ValueError, match="a0 is not normalized"):
        propagate(eig, basis, laser, cfg, a0=np.array([np.nan, 0.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(n_steps=2)
    with pytest.raises(ValueError):
        PropagationConfig(record_stride=0)
    with pytest.raises(ValueError):
        PropagationConfig(n_steps=100, record_stride=7)


def test_density_expectation_values_and_sum():
    model = ModelParams(n_cells=1, phonon_cutoff=2)
    basis = BasisIndex(model)
    eig = _eig(model, max_order=120.0)
    cfg = PropagationConfig(n_steps=2**16, record_stride=256)
    ts = propagate(eig, basis, LaserParams(), cfg)
    sums = ts.electron_density.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-6
    assert (ts.phonon_density >= -1e-12).all()


def test_vacuum_phonons_in_decoupled_ground_state():
    # one sample per run: sample 0 is the ground state itself
    model = ModelParams(n_cells=1, phonon_cutoff=3, gamma=0.0)
    basis = BasisIndex(model)
    eig = _eig(model, max_order=120.0)
    cfg = PropagationConfig(n_steps=2**14, record_stride=2**14)
    ts = propagate(eig, basis, LaserParams(), cfg)
    assert ts.phonon_density.shape == (1, 2)
    assert ts.phonon_density[0].max() <= 1e-20


def test_rotated_densities_are_the_site_occupations():
    # in the site basis itself (V = 1) the rotated operators are the 2N
    # electron projectors, which sum to the identity, then the 2N phonon numbers
    model = ModelParams(n_cells=2, phonon_cutoff=2)
    basis = BasisIndex(model)
    eig = EigenBasis(energies=np.zeros(basis.dim), vectors=np.eye(basis.dim))
    ops = dynamics._rotated_densities(eig, basis)
    ns = basis.n_sites
    assert ops.shape == (2 * ns, basis.dim, basis.dim)
    assert np.array_equal(ops[:ns].sum(axis=0), np.eye(basis.dim))
    for r in range(ns):
        assert np.array_equal(ops[r], np.diag(basis.electron_sites == r))
        assert np.array_equal(ops[ns + r], np.diag(basis.occupations[r]))
    i = basis.encode(BasisState((1, 0, 0, 0), 0))
    assert ops[ns, i, i] == 1.0 and ops[ns + 1, i, i] == 0.0
    vacuum = basis.encode(BasisState((0, 0, 0, 0), 0))
    assert ops[ns:, vacuum, vacuum].max() == 0.0


@pytest.mark.parametrize("first, stride", [(40, 1), (150, 3)], ids=["first-block", "block-7"])
def test_propagate_names_the_first_complex_density_sample(monkeypatch, first, stride):
    # with T = 0 the amplitudes only turn: from (e0 + e1) / sqrt2,
    # a = (1, exp(-i e1 t)) / sqrt2 in the shifted frame, and an operator
    # D whose (0, 1) entry exceeds its (1, 0) entry by c has
    # |Im a^dag D a| = c |sin(e1 t)| / 2.  c puts the tolerance between
    # sample first - 1 and sample first, at step first * stride
    laser = LaserParams()
    cfg = PropagationConfig(n_steps=1536, record_stride=stride)
    dt = laser.t_final() / cfg.n_steps
    e1 = 1e-4
    c = 2 * dynamics._HERMITICITY_TOL / np.sin(e1 * (first - 0.5) * stride * dt)
    eig = _manual_eig([0.0, e1], np.zeros((2, 2)), dim=2)
    original = dynamics._rotated_densities

    def skewed(eig, basis):
        ops = original(eig, basis)
        ops[-1, 0, 1] += c
        return ops

    monkeypatch.setattr(dynamics, "_rotated_densities", skewed)
    a0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(HermiticityError, match=rf"at sample {first}$"):
        propagate(eig, BasisIndex(TWO_SITE), laser, cfg, a0=a0)


def test_propagated_densities_match_site_basis_route():
    # one sample per run, so sample 0 is a0: each site's density is the
    # weight of psi = V a0 on that site's basis states, phonons by quanta
    model = ModelParams(n_cells=1, phonon_cutoff=3)
    basis = BasisIndex(model)
    eig = _eig(model, max_order=120.0)
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=eig.nr) + 1j * rng.normal(size=eig.nr)
    a0 /= np.linalg.norm(a0)
    cfg = PropagationConfig(n_steps=2**14, record_stride=2**14)
    ts = propagate(eig, basis, LaserParams(), cfg, a0=a0)
    prob = np.abs(eig.vectors @ a0) ** 2
    electron = np.bincount(basis.electron_sites, weights=prob, minlength=basis.n_sites)
    phonon = basis.occupations @ prob
    assert ts.electron_density.shape == ts.phonon_density.shape == (1, basis.n_sites)
    assert np.abs(ts.electron_density[0] - electron).max() <= 1e-12
    assert np.abs(ts.phonon_density[0] - phonon).max() <= 1e-12
    assert phonon.max() > 0.01


def test_timeseries_grids():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    eig = _eig(model)
    basis = BasisIndex(model)
    laser = LaserParams()
    # the second stride does not divide the propagator's block length
    for n_steps, stride in ((2**14, 4), (3000, 3)):
        cfg = PropagationConfig(n_steps=n_steps, record_stride=stride)
        ts = propagate(eig, basis, laser, cfg)
        assert ts.dipole_full.shape == (n_steps,)
        assert ts.times.shape == (n_steps // stride,)
        assert ts.times[0] == 0.0
        dt_sample = ts.times[1] - ts.times[0]
        assert dt_sample == pytest.approx(stride * ts.dt, rel=1e-15)
        # the sampled densities sit on the rows of the sampled norms
        assert np.abs(ts.electron_density.sum(axis=1) - ts.amplitudes_norm).max() <= 1e-12


@pytest.mark.parametrize("n_steps,stride", [(2**12, 1), (3000, 3), (2**12, 128)])
def test_on_samples_gets_each_sample_once_in_order(n_steps, stride):
    # stride 3 does not divide a block, and at stride 128 every other block
    # holds no sample
    model = ModelParams(n_cells=1, phonon_cutoff=2)
    eig = _eig(model, max_order=20.0)
    laser = LaserParams()
    cfg = PropagationConfig(n_steps=n_steps, record_stride=stride)
    calls = []
    ts = propagate(eig, BasisIndex(model), laser, cfg, on_samples=lambda *a: calls.append(a))
    assert len(calls) == -(-n_steps // dynamics._BLOCK)
    s, norm, electron, phonon, dipole = (np.concatenate(c) for c in zip(*calls))
    assert np.array_equal(s, np.arange(n_steps // stride))
    assert np.array_equal(sample_times(laser, cfg), ts.times)
    assert np.array_equal(norm, ts.amplitudes_norm)
    assert np.array_equal(electron, ts.electron_density)
    assert np.array_equal(phonon, ts.phonon_density)
    assert np.array_equal(dipole, ts.dipole_full[::stride])


def test_on_samples_is_not_called_for_a_failed_block():
    eig = _manual_eig([0.0, 1e-4], [[0.0, 5e4], [5e4, 0.0]])
    calls = []
    with pytest.raises(PropagationDivergedError, match="at step 3745"):
        propagate(
            eig,
            BasisIndex(TWO_SITE),
            LaserParams(),
            PropagationConfig(n_steps=2**16),
            on_samples=lambda s, *rest: calls.append(s),
        )
    # the blocks before the one holding step 3745, each whole
    assert np.array_equal(np.concatenate(calls), np.arange(3745 // 64 * 64))


def test_transition_required():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    basis = BasisIndex(model)
    from polaron_hhg.spectral import eigensolve_lowest

    bare = eigensolve_lowest(build_hamiltonian(model, basis), 2)
    with pytest.raises(ValueError):
        propagate(bare, basis, LaserParams(), PropagationConfig(n_steps=2**14))


def test_fourth_order_convergence_on_two_level_system():
    eig = _eig(TWO_SITE, nr_override=2)
    basis = BasisIndex(TWO_SITE)
    laser = LaserParams()
    finals = {}
    for n in (2**15, 2**16, 2**17):
        finals[n] = propagate(eig, basis, laser, PropagationConfig(n_steps=n, record_stride=n)).a_final
    err_coarse = np.linalg.norm(finals[2**15] - finals[2**17])
    err_fine = np.linalg.norm(finals[2**16] - finals[2**17])
    order = np.log2(err_coarse / err_fine)
    assert order >= 3.8
