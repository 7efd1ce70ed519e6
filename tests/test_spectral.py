"""Eigensolver paths, transition matrix, state selection and relevance ranking."""

import pickle

import numpy as np
import pytest

from polaron_hhg.hilbert import BasisIndex, ModelParams
from polaron_hhg.operators import build_hamiltonian, build_position
from polaron_hhg.spectral import (
    EigenBasis,
    EigensolveError,
    degenerate_clusters,
    eigensolve_lowest,
    harmonic_order,
    select_nr,
    state_relevance,
    transition_matrix,
    with_transition,
)

OMEGA_L = 0.002


def _solve(model, count=None, **kw):
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    return eigensolve_lowest(h, count or basis.dim, **kw)


def test_six_site_phononless_spectrum():
    eig = _solve(ModelParams(phonon_cutoff=1))
    chain = np.zeros((6, 6))
    for r, amp in enumerate([-0.073, -0.104, -0.073, -0.104, -0.073]):
        chain[r, r + 1] = chain[r + 1, r] = amp
    expected = np.linalg.eigvalsh(chain) + 0.108  # six oscillators' zero point
    assert np.allclose(eig.energies, expected, atol=1e-12)
    # gap sits near the 25th harmonic of the default drive
    gap = eig.energies[1] - eig.energies[0]
    assert gap == pytest.approx(0.05048945498557, abs=1e-9)
    assert harmonic_order(eig.energies[1], eig.energies[0], OMEGA_L) == pytest.approx(
        25.2447, abs=1e-3
    )


def test_two_site_energies():
    eig = _solve(ModelParams(n_cells=1, phonon_cutoff=1))
    assert np.allclose(eig.energies, [-0.037, 0.109], atol=1e-14)


def test_pinned_electron_ground_energy():
    # v = w = 0 decouples sites; the driven oscillator's exact ground
    # energy is the zero point minus gamma^2/omega, approached as the
    # cutoff grows
    model = ModelParams(
        v=0.0, w=0.0, gamma=-0.025, omega_ph=0.036, n_cells=1, phonon_cutoff=12
    )
    eig = _solve(model, count=1)
    exact = 0.036 - 0.025**2 / 0.036
    assert abs(eig.energies[0] - exact) <= 1e-6


def test_dense_and_iterative_solvers_agree():
    model = ModelParams(n_cells=2, phonon_cutoff=3)  # dim 324
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    # LAPACK over the whole space (count = dim), ARPACK for 12 pairs
    dense = eigensolve_lowest(h, basis.dim).truncated(12)
    krylov = eigensolve_lowest(h, 12, dense_threshold=100)
    assert np.abs(dense.energies - krylov.energies).max() <= 1e-8
    # subspaces match: cross-gram is unitary block-diagonal over clusters
    gram = np.abs(dense.vectors.T @ krylov.vectors)
    for cluster in degenerate_clusters(dense.energies):
        block = gram[np.ix_(cluster, cluster)]
        assert np.allclose(block @ block.T, np.eye(len(cluster)), atol=1e-7)


def test_eigensolve_count_validation():
    model = ModelParams(n_cells=1, phonon_cutoff=2)
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    with pytest.raises(ValueError):
        eigensolve_lowest(h, 0)
    with pytest.raises(ValueError):
        eigensolve_lowest(h, basis.dim + 1)


def test_eigensolve_nonconvergence_error():
    model = ModelParams(n_cells=2, phonon_cutoff=3)
    h = build_hamiltonian(model, BasisIndex(model))
    with pytest.raises(EigensolveError):
        eigensolve_lowest(h, 40, dense_threshold=10, max_iterations=1)


def test_eigensolve_error_survives_pickling():
    # a sector solved in a forked child reports its failure pickled; the
    # residuals travel in the instance dict that BaseException pickles
    error = EigensolveError("residuals too large", residuals=np.array([1e-3, 2e-7]))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is EigensolveError
    assert str(copy) == "residuals too large"
    assert np.array_equal(copy.residuals, error.residuals)
    assert pickle.loads(pickle.dumps(EigensolveError("no residuals"))).residuals is None


def test_eigenvector_invariants():
    model = ModelParams(n_cells=2, phonon_cutoff=2)
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    eig = eigensolve_lowest(h, 10)
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(10)).max() <= 1e-10
    resid = h.matrix @ eig.vectors - eig.vectors * eig.energies
    bound = 1e-8 * np.maximum(1.0, np.abs(eig.energies))
    assert (np.linalg.norm(resid, axis=0) <= bound).all()
    # sign convention: the dominant component of each vector is positive
    lead = np.abs(eig.vectors).argmax(axis=0)
    assert (eig.vectors[lead, np.arange(10)] > 0).all()


def test_ground_energy_monotone_in_cutoff():
    energies = []
    for l in (1, 2, 3, 4):
        eig = _solve(ModelParams(n_cells=1, phonon_cutoff=l), count=1)
        energies.append(eig.energies[0])
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12


def test_transition_matrix_two_site():
    model = ModelParams(n_cells=1, phonon_cutoff=1, d=2.0)
    basis = BasisIndex(model)
    eig = _solve(model)
    t = transition_matrix(eig, build_position(model, basis))
    assert np.allclose(t, t.T, atol=1e-15)
    assert np.allclose(np.diag(t), 0.0, atol=1e-14)
    assert abs(t[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_transition_matrix_dimension_mismatch():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    eig = _solve(model)
    other = ModelParams(n_cells=2, phonon_cutoff=1)
    with pytest.raises(ValueError):
        transition_matrix(eig, build_position(other, BasisIndex(other)))


def test_transition_blocked_between_phonon_sectors():
    # with gamma = 0 the position operator cannot change the phonon number
    model = ModelParams(n_cells=1, phonon_cutoff=2, gamma=0.0)
    basis = BasisIndex(model)
    eig = _solve(model)
    total_ph = basis.occupations.sum(axis=0)
    n_per_state = np.rint((eig.vectors**2 * total_ph[:, None]).sum(axis=0))
    t = transition_matrix(eig, build_position(model, basis))
    differ = n_per_state[:, None] != n_per_state[None, :]
    assert np.abs(t[differ]).max() <= 1e-12


def test_harmonic_order_values():
    assert harmonic_order(0.5, 0.5, OMEGA_L) == 0.0
    assert harmonic_order(0.54, 0.5, OMEGA_L) == pytest.approx(20.0, rel=1e-12)
    assert harmonic_order(0.58, 0.5, OMEGA_L) == pytest.approx(40.0, rel=1e-12)
    with pytest.raises(ValueError):
        harmonic_order(1.0, 0.0, 0.0)


def test_select_nr_rule_and_clamps():
    eig = _solve(ModelParams(phonon_cutoff=1))
    energies = eig.energies
    # orders are [0, 25.2, 68.3, 90.8, 133.9, 159.1]
    assert select_nr(energies, OMEGA_L, max_order=40.0) == 3
    assert select_nr(energies, OMEGA_L, max_order=0.0) == 1
    assert select_nr(energies, OMEGA_L, max_order=1000.0) == 6  # clamp to available
    assert select_nr(energies, OMEGA_L, 45.0, override=1500) == 6
    assert select_nr(energies, OMEGA_L, 45.0, override=2) == 2
    with pytest.raises(ValueError):
        select_nr(np.array([]), OMEGA_L, 45.0)


def test_state_relevance_shape_and_sentinel():
    eig = EigenBasis(
        energies=np.array([0.0, 0.01]),
        vectors=np.eye(2),
        transition=np.array([[0.0, 0.5], [0.5, 0.0]]),
    )
    rel = state_relevance(eig, OMEGA_L)
    assert rel.shape == (2, 2)
    assert rel[0, 1] == -np.inf  # exactly dark state
    assert rel[1, 1] == pytest.approx(np.log10(0.25))
    assert rel[1, 0] == pytest.approx(5.0)


def test_state_relevance_requires_transition():
    eig = EigenBasis(energies=np.zeros(2), vectors=np.eye(2))
    with pytest.raises(ValueError):
        state_relevance(eig, OMEGA_L)


def test_truncated_slices_consistently():
    model = ModelParams(n_cells=1, phonon_cutoff=3)
    basis = BasisIndex(model)
    eig = with_transition(_solve(model), build_position(model, basis))
    cut = eig.truncated(4)
    assert cut.nr == 4
    assert np.array_equal(cut.energies, eig.energies[:4])
    assert np.array_equal(cut.transition, eig.transition[:4, :4])
    assert np.array_equal(cut.gs_transition, eig.gs_transition[:4])
    with pytest.raises(ValueError):
        eig.truncated(0)


def test_degenerate_clusters_grouping():
    e = np.array([0.0, 1e-12, 1e-3, 2e-3, 2e-3 + 5e-10])
    assert degenerate_clusters(e) == [[0, 1], [2], [3, 4]]
