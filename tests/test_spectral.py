"""Eigensolver paths, transition matrix, state selection and relevance ranking."""

import logging
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from parity_reference import parity_projection
from polaron_hhg import spectral
from polaron_hhg.hilbert import BasisIndex, ModelParams
from polaron_hhg.operators import SparseOperator, build_hamiltonian, build_position
from polaron_hhg.spectral import (
    EigenBasis,
    EigensolveError,
    degenerate_clusters,
    eigensolve_lowest,
    harmonic_order,
    lapack_solves,
    select_nr,
    state_relevance,
    transition_matrix,
)

OMEGA_L = 0.002


def _solve(model, count=None, **kw):
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    return eigensolve_lowest(h, count or basis.dim, **kw)


@pytest.mark.parametrize(
    "dim, count, lapack",
    [
        (32, 24, True),  # the Lanczos space would hold the whole operator
        (162, 60, False),
        (162, 121, True),  # more than half the operator
        (512, 384, True),
        (2187, 24, False),  # the paper's sectors
        (2187, 500, True),  # too large for Lanczos to converge on
        (4802, 161, False),
        (4802, 233, True),
        # too large to hold dense: Lanczos keeps every block that leaves
        # 40 levels out
        (12288, 24, False),
        (12288, 200, False),
        (12288, 7000, False),
        (12288, 12260, True),
        (139968, 48, False),  # N=3, L=6 at gamma -0.05
    ],
)
def test_lapack_takes_the_blocks_lanczos_does_badly(dim, count, lapack):
    assert lapack_solves(dim, count) is lapack


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
    dense = eigensolve_lowest(h, basis.dim)
    dense = EigenBasis(energies=dense.energies[:12], vectors=dense.vectors[:, :12])
    krylov = eigensolve_lowest(h, 12)
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


def test_eigensolve_nonconvergence_error(monkeypatch):
    # a degree-1 filter is plain Lanczos, and one restart is too few for 40
    # pairs, so ARPACK gives up under every cut; the error carries the H
    # residuals of the pairs it had converged, with their Rayleigh quotients
    # as energies, not the filter's eigenvalues
    monkeypatch.setattr(spectral, "_FILTER_DEGREE", 1)
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(
        scipy.sparse.linalg,
        "eigsh",
        lambda *args, **kwargs: eigsh(*args, **{**kwargs, "maxiter": 1}),
    )
    model = ModelParams(n_cells=2, phonon_cutoff=3)
    h = build_hamiltonian(model, BasisIndex(model))
    with pytest.raises(EigensolveError) as info:
        eigensolve_lowest(h, 40)
    partial = info.value.__cause__.eigenvectors
    assert partial.shape[1] > 0
    hv = h.matrix @ partial
    energies = np.einsum("ij,ij->j", partial, hv)
    residuals = np.linalg.norm(hv - partial * energies, axis=0)
    np.testing.assert_allclose(info.value.residuals, residuals, rtol=1e-12, atol=0)


def _sector(gamma: float, sector: int = 0) -> SparseOperator:
    """H of an inversion sector (0 even, 1 odd) of N=2, L=3 (dim 162)."""
    model = ModelParams(n_cells=2, phonon_cutoff=3, gamma=gamma)
    basis = BasisIndex(model)
    p = parity_projection(basis, sector)
    h = build_hamiltonian(model, basis).matrix
    return SparseOperator(matrix=(p @ h @ p.T).tocsr())


# the energy of 45 laser quanta, the default max_order
SPAN = 45 * OMEGA_L
_FILTERED_LINE = re.compile(
    r"filtered Lanczos: degree 8, cut E_0 \+ \S+, top level E_0 \+ \S+, "
    r"(\d) raises, worst residual \S+"
)


@pytest.mark.parametrize("gamma", [-0.025, -0.002])
def test_cut_below_a_wanted_level_is_raised(monkeypatch, caplog, gamma):
    # the sector's 24th level lies 72 laser quanta above its lowest, and a
    # first cut at 22.5 holds only a few levels.  There ARPACK converges to
    # true eigenpairs of H that are not the lowest; the solver sees them
    # above the cut, raises it and solves again
    op = _sector(gamma)
    dense = eigensolve_lowest(op, op.dim)
    dense = EigenBasis(energies=dense.energies[:24], vectors=dense.vectors[:, :24])
    blocks = []
    eigsh = scipy.sparse.linalg.eigsh

    def recording(*args, **kwargs):
        result = eigsh(*args, **kwargs)
        if kwargs["which"] == "LA":
            blocks.append(result[1])
        return result

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    monkeypatch.setattr(spectral, "_CUT_SPANS", 0.5)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.spectral"):
        eig = eigensolve_lowest(op, 24, span=SPAN)
    [record] = caplog.records
    raises = int(_FILTERED_LINE.fullmatch(record.getMessage()).group(1))
    assert raises >= 1 and len(blocks) == raises + 1
    first = blocks[0]
    wrong = np.einsum("ij,ij->j", first, op.matrix @ first)
    assert np.linalg.norm(op.matrix @ first - first * wrong, axis=0).max() <= 1e-8
    assert wrong.max() - dense.energies[-1] > 0.1

    assert np.abs(eig.energies - dense.energies).max() <= 1e-12
    # subspaces match: cross-gram is unitary block-diagonal over clusters
    gram = dense.vectors.T @ eig.vectors
    for cluster in degenerate_clusters(dense.energies):
        block = gram[np.ix_(cluster, cluster)]
        assert np.allclose(block @ block.T, np.eye(len(cluster)), atol=1e-10)


def test_filtered_solve_logs_one_line(caplog):
    # at 1.5 spans the cut clears the odd sector's 24 levels at once
    op = _sector(-0.025, sector=1)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.spectral"):
        eigensolve_lowest(op, 24, span=SPAN)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert _FILTERED_LINE.fullmatch(record.getMessage()).group(1) == "0"
    assert "cut E_0 + 0.135," in record.getMessage()


def test_cut_never_cleared_is_an_error(monkeypatch):
    # with the margin the whole height of the cut, no level above E_0 can be
    # kept: after a bounded number of raises, each solve bounded in restarts,
    # the solver gives up instead of returning those levels
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append((kwargs["which"], kwargs.get("maxiter")))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    monkeypatch.setattr(spectral, "_CUT_MARGIN", 1.0)
    with pytest.raises(EigensolveError, match="above the cut") as info:
        eigensolve_lowest(_sector(-0.025), 24, span=SPAN)
    filtered = ("LA", spectral._FILTER_MAXITER)
    assert calls == [("SA", None)] + [filtered] * (spectral._CUT_RAISES + 1)
    assert info.value.residuals.shape == (24,)


def test_block_of_nearly_the_whole_sector():
    # the Lanczos space for 160 of 162 levels is the whole sector, and the
    # filter's cut would have to clear nearly the whole spectrum: LAPACK
    # solves it
    op = _sector(-0.025)
    eig = eigensolve_lowest(op, 160, span=SPAN)
    assert np.abs(eig.energies - np.linalg.eigvalsh(op.to_dense())[:160]).max() <= 1e-12


def test_solve_leaves_the_operator_as_it_was():
    # a SparseOperator is immutable: a solve must not sort the indices of
    # one handed in unsorted, so a second solve reads the same arrays and
    # gives the same bits
    m = _sector(-0.025).matrix
    row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    # each row's entries in reverse order
    flipped = m.indptr[row] + m.indptr[row + 1] - 1 - np.arange(m.nnz)
    matrix = scipy.sparse.csr_matrix(
        (m.data[flipped], m.indices[flipped], m.indptr.copy()), shape=m.shape
    )
    assert not matrix.has_sorted_indices
    op = SparseOperator(matrix=matrix)

    def arrays():
        return [a.tobytes() for a in (matrix.indptr, matrix.indices, matrix.data)]

    before = arrays()
    first = eigensolve_lowest(op, 24, span=SPAN)
    assert arrays() == before
    second = eigensolve_lowest(op, 24, span=SPAN)
    assert first.energies.tobytes() == second.energies.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()


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


def test_transition_matrix_rejects_a_nan_basis():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    eig = _solve(model)
    eig.vectors[0, 1] = np.nan
    with pytest.raises(ValueError, match="asymmetry nan"):
        transition_matrix(eig, build_position(model, BasisIndex(model)))


@pytest.mark.parametrize(
    "energies, vectors, defect",
    [
        ([np.nan, np.nan], np.full((2, 2), np.nan), "orthonormality defect nan"),
        ([0.0, np.nan], np.eye(2), "residuals up to nan"),
    ],
    ids=["nan-vectors", "nan-energy"],
)
def test_verified_basis_rejects_nan(energies, vectors, defect):
    op = SparseOperator(matrix=scipy.sparse.csr_matrix((2, 2)))
    with pytest.raises(EigensolveError, match=defect):
        spectral.verified_basis(op, np.array(energies), np.array(vectors))


def test_transition_matrix_holds_one_row_block_of_x_v():
    # at dim 24576 (N=3, L=4) and nr 40 the sum over row blocks holds, beyond
    # T, less than a quarter of V; the plain product V^T (x V) held all of x V
    model = ModelParams(phonon_cutoff=4)
    basis = BasisIndex(model)
    x = build_position(model, basis)
    nr = 40
    vectors = np.random.default_rng(0).standard_normal((basis.dim, nr)) / np.sqrt(basis.dim)
    eig = EigenBasis(energies=np.arange(nr, dtype=float), vectors=vectors)
    expected = transition_matrix(eig, x)
    tracemalloc.start()
    try:
        t = transition_matrix(eig, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - t.nbytes < vectors.nbytes / 4
    assert np.array_equal(t, expected)
    # within one row block T is the plain product, bit for bit
    rows = spectral._TRANSITION_ROWS
    small = EigenBasis(energies=eig.energies, vectors=vectors[:rows])
    x_small = SparseOperator(matrix=x.matrix[:rows, :rows].tocsr())
    plain = small.vectors.T @ (x_small.matrix @ small.vectors)
    assert np.array_equal(transition_matrix(small, x_small), plain)
    # across blocks the sums are regrouped: equal to rounding
    np.testing.assert_allclose(t, vectors.T @ (x.matrix @ vectors), rtol=0, atol=1e-14)


def test_phases_are_fixed_in_place():
    # the largest magnitude, first in row order among equals, turns positive
    vectors = np.array([[1.0, 0.0, -2.0], [-3.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    fixed = spectral._fix_phases(vectors)
    assert fixed is vectors
    assert np.array_equal(fixed, [[-1.0, 0.0, 2.0], [3.0, 0.0, -2.0], [-3.0, 0.0, -1.0]])


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
    with pytest.raises(ValueError):
        harmonic_order(1.0, 0.0, np.nan)


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


def test_degenerate_clusters_grouping():
    e = np.array([0.0, 1e-12, 1e-3, 2e-3, 2e-3 + 5e-10])
    assert degenerate_clusters(e) == [[0, 1], [2], [3, 4]]
