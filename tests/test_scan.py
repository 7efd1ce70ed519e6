"""Pipeline composition: determinism, decoupled limits, scan drivers, maps."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from polaron_hhg import scan
from polaron_hhg.cli import RunConfig
from polaron_hhg.dynamics import PropagationConfig
from polaron_hhg.hilbert import BasisIndex, ModelParams
from polaron_hhg.operators import SparseOperator, build_hamiltonian
from polaron_hhg.pulse import LaserParams
from polaron_hhg.scan import (
    PointFailure,
    _openblas_thread_controls,
    PointResult,
    ScanSpec,
    convergence_study,
    correlation_map,
    default_gamma_grid,
    gamma_scan,
    run_point,
    solve_eigenbasis,
    spectral_distance,
)
from polaron_hhg.spectral import degenerate_clusters, eigensolve_lowest, select_nr

LASER = LaserParams()
SMALL = ModelParams(n_cells=1, phonon_cutoff=1)
CFG15 = PropagationConfig(n_steps=2**15, record_stride=2**15)
SMALL_SPEC = ScanSpec(model=SMALL, laser=LASER, propagation=CFG15)


def test_default_gamma_grid():
    grid = default_gamma_grid()
    assert grid.shape == (26,)
    assert grid[0] == -0.05 and grid[-1] == 0.0
    assert np.allclose(np.diff(grid), 0.002, rtol=1e-12)


def test_run_point_deterministic():
    a = run_point(SMALL_SPEC)
    b = run_point(SMALL_SPEC)
    assert np.array_equal(a.spectrum.yield_norm, b.spectrum.yield_norm)
    assert np.array_equal(a.timeseries.dipole_full, b.timeseries.dipole_full)
    assert a.eps_gs == b.eps_gs


def test_decoupled_phonons_are_spectators():
    # with gamma = 0 the extra oscillator states carry no ground-state
    # coupling, so the spectrum collapses onto the phononless one; the
    # log-yield comparison is restricted to bins within ten decades of
    # the window peak, where it is conditioned well enough for 1e-8
    cfg = PropagationConfig(n_steps=2**16, record_stride=2**16)
    spec = ScanSpec(laser=LASER, propagation=cfg, max_order=120.0)
    r1 = run_point(replace(spec, model=ModelParams(n_cells=1, phonon_cutoff=1, gamma=0.0)))
    r2 = run_point(replace(spec, model=ModelParams(n_cells=1, phonon_cutoff=2, gamma=0.0)))
    orders = r1.spectrum.orders
    window = (orders >= 0) & (orders <= 40)
    strong = window & (
        r1.spectrum.yield_raw >= r1.spectrum.yield_raw[window].max() - 10.0
    )
    diff = np.abs(r1.spectrum.yield_norm[strong] - r2.spectrum.yield_norm[strong])
    assert diff.max() <= 1e-8

    # structural side: the added states hold an integer number of quanta
    # and are exactly dark from the ground state
    model = ModelParams(n_cells=1, phonon_cutoff=2, gamma=0.0)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER, max_order=120.0))
    total = BasisIndex(model).occupations.sum(axis=0)
    quanta = (eig.vectors**2 * total[:, None]).sum(axis=0)
    assert np.abs(quanta - np.rint(quanta)).max() <= 1e-12
    dark = np.rint(quanta) > 0
    assert np.abs(eig.gs_transition[dark]).max() <= 1e-12


# dim 324 above this threshold: every solve below runs ARPACK, and a
# degenerate result is not handed to LAPACK
ARPACK_MODEL = ModelParams(n_cells=2, phonon_cutoff=3)
ARPACK_THRESHOLD = 100


def test_arpack_solve_is_reproducible():
    spec = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    a = solve_eigenbasis(spec)
    b = solve_eigenbasis(spec)
    assert a.nr == b.nr
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.transition, b.transition)


def test_sector_solve_agrees_with_full_lapack():
    # both parity sectors (dim 162) on the ARPACK path, against LAPACK
    # over the whole space
    spec = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    eig = solve_eigenbasis(spec)
    basis = BasisIndex(ARPACK_MODEL)
    dense = eigensolve_lowest(build_hamiltonian(ARPACK_MODEL, basis), basis.dim)
    assert eig.nr == select_nr(dense.energies, LASER.omega_l, spec.max_order)
    dense = dense.truncated(eig.nr)
    assert np.abs(dense.energies - eig.energies).max() <= 1e-8
    # subspaces match: cross-gram is unitary block-diagonal over clusters
    gram = np.abs(dense.vectors.T @ eig.vectors)
    for cluster in degenerate_clusters(dense.energies):
        block = gram[np.ix_(cluster, cluster)]
        assert np.allclose(block @ block.T, np.eye(len(cluster)), atol=1e-7)
    # every kept state is even or odd, and x couples only opposite parities
    parity = np.einsum("im,im->m", eig.vectors[basis.inversion], eig.vectors)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)
    assert {1.0, -1.0} <= set(np.sign(parity))
    same = np.sign(parity)[:, None] == np.sign(parity)[None, :]
    assert np.all(eig.transition[same] == 0.0)
    assert np.all(eig.transition[~same] != 0.0)


def test_ground_state_is_taken_from_either_sector(monkeypatch):
    # H + delta Pi still commutes with inversion, and it lowers every odd
    # level by 2 delta against the even ones: here far enough that the
    # ground state is odd
    basis = BasisIndex(ARPACK_MODEL)
    dim = basis.dim
    flip = scipy.sparse.csr_matrix((np.ones(dim), basis.inversion, np.arange(dim + 1)))
    h = build_hamiltonian(ARPACK_MODEL, basis).matrix + 0.03 * flip
    shifted = SparseOperator(dim=dim, matrix=h.tocsr())
    monkeypatch.setattr(scan, "build_hamiltonian", lambda model, basis: shifted)
    spec = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    eig = solve_eigenbasis(spec)
    exact = np.linalg.eigvalsh(shifted.to_dense())
    assert eig.nr == select_nr(exact, LASER.omega_l, spec.max_order)
    assert np.abs(eig.energies - exact[: eig.nr]).max() <= 1e-8
    ground = eig.vectors[:, 0]
    assert np.allclose(ground[basis.inversion], -ground, atol=1e-12)


def test_arpack_gamma_scan_worker_count_invariance():
    spec = ScanSpec(
        model=ARPACK_MODEL,
        laser=LASER,
        propagation=CFG15,
        gamma_values=(-0.02, -0.01),
        dense_threshold=ARPACK_THRESHOLD,
    )
    serial = gamma_scan(spec, workers=1)
    parallel = gamma_scan(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.relevance, b.relevance)
        assert np.array_equal(a.spectrum.yield_norm, b.spectrum.yield_norm)


def test_paper_model_gamma_scan_worker_count_invariance():
    # at dim 4374 the pool splits the points between two worker processes,
    # each running OpenBLAS on one thread as the serial path does; the
    # results must not depend on which process computed a point
    spec = ScanSpec(
        model=ModelParams(),
        laser=LASER,
        propagation=PropagationConfig(n_steps=2**12, record_stride=2**6),
        gamma_values=(-0.03, -0.01),
    )
    serial = gamma_scan(spec, workers=1)
    parallel = gamma_scan(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert isinstance(a, PointResult) and isinstance(b, PointResult)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.timeseries.dipole_full, b.timeseries.dipole_full)
        assert np.array_equal(a.timeseries.electron_density, b.timeseries.electron_density)
        assert np.array_equal(a.spectrum.yield_norm, b.spectrum.yield_norm)


def test_serial_scan_restores_blas_threads():
    before = [get() for get, _ in _openblas_thread_controls()]
    spec = ScanSpec(model=SMALL, laser=LASER, propagation=CFG15, gamma_values=(-0.01,))
    gamma_scan(spec, workers=1)
    assert [get() for get, _ in _openblas_thread_controls()] == before


def test_degenerate_window_is_complete():
    # at gamma = 0 the levels are the L=1 chain levels dressed with every
    # phonon configuration, so e0 + 2 omega_ph is 21-fold degenerate (and
    # more levels besides); Lanczos alone keeps only some copies
    model = ModelParams(gamma=0.0)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    chain = ModelParams(phonon_cutoff=1)
    h1 = build_hamiltonian(chain, BasisIndex(chain)).to_dense()
    ns = 2 * model.n_cells
    quanta = np.indices((model.phonon_cutoff,) * ns).reshape(ns, -1).sum(axis=0)
    dressed = np.sort(
        (np.linalg.eigvalsh(h1)[:, None] + model.omega_ph * quanta[None, :]).ravel()
    )
    assert eig.nr == 36
    assert np.abs(eig.energies - dressed[:36]).max() <= 1e-12


def test_gamma_scan_records_failures_and_continues():
    # at gamma = -0.5 the kept levels spread far enough that 2400 steps
    # turn the fastest by 1.01 rad per step, past the stability guard;
    # the other two points turn by about 0.96
    spec = ScanSpec(
        model=ModelParams(n_cells=1, phonon_cutoff=2),
        laser=LASER,
        propagation=PropagationConfig(n_steps=2400, record_stride=2400),
        gamma_values=(-0.01, -0.5, 0.0),
    )
    serial = gamma_scan(spec, workers=1)
    parallel = gamma_scan(spec, workers=2)
    assert isinstance(serial[1], PointFailure)
    assert serial[1].label == "gamma=-0.5"
    assert "stability guard" in serial[1].message
    assert parallel[1] == serial[1]
    for a, b in zip(serial[::2], parallel[::2]):
        assert isinstance(a, PointResult) and isinstance(b, PointResult)
        assert np.array_equal(a.spectrum.yield_norm, b.spectrum.yield_norm)


def test_scan_pool_is_capped_at_the_point_count(monkeypatch):
    # a pool started by fork forks every worker at its first submit, so
    # the pool must not be asked for more workers than there are points
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(scan, "ProcessPoolExecutor", RecordingPool)
    two = replace(SMALL_SPEC, gamma_values=(-0.02, -0.01))
    assert all(isinstance(p, PointResult) for p in gamma_scan(two, workers=64))
    assert sizes == [2]
    # one point takes the serial path, with the serial path's bits
    one = replace(SMALL_SPEC, gamma_values=(-0.01,))
    (wide,) = gamma_scan(one, workers=64)
    (serial,) = gamma_scan(one, workers=1)
    assert sizes == [2]
    assert np.array_equal(wide.spectrum.yield_norm, serial.spectrum.yield_norm)


def test_gamma_scan_worker_count_invariance():
    spec = ScanSpec(
        model=SMALL, laser=LASER, propagation=CFG15, gamma_values=(-0.02, -0.01, 0.0)
    )
    serial = gamma_scan(spec, workers=1)
    parallel = gamma_scan(spec, workers=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.spectrum.yield_norm, b.spectrum.yield_norm)
        assert a.eps_gs == b.eps_gs


def test_convergence_study_small():
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    spec = ScanSpec(model=model, laser=LASER, propagation=CFG15, l_values=(1, 2))
    report = convergence_study(spec)
    assert report.l_values == (1, 2)
    assert report.eps_gs[1] <= report.eps_gs[0] + 1e-12
    assert len(report.spectral_diffs) == 1
    assert np.isfinite(report.spectral_diffs[0])


def test_convergence_study_requires_ascending():
    with pytest.raises(ValueError):
        convergence_study(ScanSpec(model=SMALL, laser=LASER, propagation=CFG15, l_values=(3, 1)))
    with pytest.raises(ValueError):
        convergence_study(ScanSpec(model=SMALL, laser=LASER, propagation=CFG15, l_values=(1, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize(
    "cls,key",
    [
        (ModelParams, "v"),
        (ModelParams, "w"),
        (ModelParams, "gamma"),
        (ModelParams, "omega_ph"),
        (ModelParams, "d"),
        (LaserParams, "a0"),
        (LaserParams, "omega_l"),
        (ScanSpec, "max_order"),
        (ScanSpec, "gamma_values"),
    ],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_settings_refuse_non_finite_values(cls, key, bad):
    value = (-0.01, bad) if key == "gamma_values" else bad
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        cls(**{key: value})


@pytest.mark.parametrize(
    "cls,key,value",
    [
        (ModelParams, "n_cells", 1.5),
        (ModelParams, "n_cells", True),
        (ModelParams, "phonon_cutoff", 3.0),
        (ScanSpec, "nr_override", 2.5),
        (ScanSpec, "nr_override", True),
        (ScanSpec, "l_values", (1.5, 1.7)),
        (ScanSpec, "l_values", (1, 3.0)),
        (LaserParams, "n_cyc", 2.5),
        (LaserParams, "n_cyc", True),
        (PropagationConfig, "n_steps", 1024.0),
        (PropagationConfig, "record_stride", True),
        (ScanSpec, "dense_threshold", float("nan")),
        (ScanSpec, "dense_threshold", 2.5),
        (ScanSpec, "dense_threshold", -3),
        (RunConfig, "correlate_states", (0, 1.5)),
        (RunConfig, "correlate_states", (1, 1)),
        (RunConfig, "correlate_states", (-1,)),
    ],
    ids=str,
)
def test_settings_refuse_non_integer_counts(cls, key, value):
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        cls(**{key: value})


def test_settings_take_numpy_integer_counts():
    ModelParams(n_cells=np.int64(1), phonon_cutoff=np.int32(2))
    ScanSpec(nr_override=np.int64(3), l_values=tuple(np.arange(1, 3)))
    LaserParams(n_cyc=np.int64(4))
    PropagationConfig(n_steps=np.int64(1024), record_stride=np.int32(8))
    RunConfig(dense_threshold=np.int64(0), correlate_states=(np.int64(0), 3))


@pytest.mark.parametrize(
    "key,value",
    [
        ("nr_override", 0),
        ("max_order", -1.0),
        ("l_values", (0,)),
        ("l_values", (2, 1)),
        ("l_values", (1, 2, 2)),
        ("l_values", ()),
        ("gamma_values", (0.1, -0.2)),
        ("gamma_values", (-0.01, -0.02, -0.01)),
        ("gamma_values", (0.0, -0.0)),
        ("gamma_values", ()),
    ],
    ids=str,
)
def test_scan_spec_refuses_what_the_config_reader_refuses(key, value):
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        ScanSpec(**{key: value})


def test_spec_settings_reach_every_point():
    # the selection rule keeps 5 states at L=2 and 7 at L=3, so every
    # point that loses the spec's nr_override on its way comes back with more
    spec = ScanSpec(
        model=ModelParams(n_cells=1, phonon_cutoff=2),
        laser=LASER,
        propagation=CFG15,
        nr_override=3,
        gamma_values=(-0.02, -0.01),
        l_values=(2, 3),
    )
    assert solve_eigenbasis(spec).nr == 3
    assert run_point(spec).nr == 3
    for workers in (1, 2):
        assert [p.nr for p in gamma_scan(spec, workers=workers)] == [3, 3]
    assert [p.nr for p in convergence_study(spec).points] == [3, 3]


def test_spectral_distance_grid_mismatch():
    r1 = run_point(SMALL_SPEC)
    r2 = run_point(
        replace(SMALL_SPEC, propagation=PropagationConfig(n_steps=2**16, record_stride=2**16))
    )
    with pytest.raises(ValueError):
        spectral_distance(r1.spectrum, r2.spectrum)


def test_correlation_map_vacuum_is_zero():
    model = ModelParams(n_cells=1, phonon_cutoff=3, gamma=0.0)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    grid = correlation_map(eig, BasisIndex(model), 0)
    assert grid.shape == (2, 2)
    assert np.abs(grid).max() <= 1e-24


def test_correlation_map_nonnegative_and_bounded(eig3, paper_model):
    basis = BasisIndex(paper_model)
    for m in (0, 1):
        grid = correlation_map(eig3, basis, m)
        assert (grid >= 0.0).all()
        # total quanta jointly with the electron at r cannot exceed the
        # full-lattice capacity times the electron weight there
        electron = np.array(
            [
                (eig3.vectors[:, m] ** 2 * (basis.electron_sites == r)).sum()
                for r in range(6)
            ]
        )
        capacity = (paper_model.phonon_cutoff - 1) * 6
        assert (grid.sum(axis=0) <= capacity * electron + 1e-12).all()


def test_correlation_map_ground_state_peaks_centrally(eig3, paper_model):
    grid = correlation_map(eig3, BasisIndex(paper_model), 0)
    f, r = np.unravel_index(grid.argmax(), grid.shape)
    assert f in (2, 3) and r in (2, 3)


def test_correlation_map_index_range(eig3, paper_model):
    with pytest.raises(ValueError):
        correlation_map(eig3, BasisIndex(paper_model), eig3.nr)
