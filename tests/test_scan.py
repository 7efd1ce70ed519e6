"""Pipeline composition: determinism, decoupled limits, scan drivers, maps."""

import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackError

from parity_reference import parity_projection
from polaron_hhg import scan
from polaron_hhg.cli import RunConfig
from polaron_hhg.dynamics import PropagationConfig
from polaron_hhg.hilbert import BasisIndex, ModelParams
from polaron_hhg.operators import SparseOperator, build_hamiltonian, build_position
from polaron_hhg.pulse import LaserParams
from polaron_hhg.scan import (
    PointFailure,
    _openblas_thread_controls,
    _orbits,
    _sector_operators,
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
from polaron_hhg.spectral import (
    EigenBasis,
    EigensolveError,
    _fix_phases,
    degenerate_clusters,
    eigensolve_lowest,
    select_nr,
)

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


# dim 324 above this threshold: every solve below at gamma != 0 runs
# ARPACK (gamma = 0 is built exactly), and a degenerate result is not
# handed to LAPACK
ARPACK_MODEL = ModelParams(n_cells=2, phonon_cutoff=3)
ARPACK_THRESHOLD = 100


def test_arpack_solve_is_reproducible():
    spec = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    a = solve_eigenbasis(spec)
    b = solve_eigenbasis(spec)
    assert a.nr == b.nr
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.transition, b.transition)


@pytest.mark.parametrize("gamma", [-0.025, -0.002, 0.0])
def test_sector_solve_agrees_with_full_lapack(gamma):
    # both parity sectors (dim 162) on the ARPACK path, against LAPACK
    # over the whole space; at -0.002 levels of one sector lie 6e-7 apart,
    # and 0 takes the exact decoupled construction
    model = replace(ARPACK_MODEL, gamma=gamma)
    spec = ScanSpec(model=model, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    eig = solve_eigenbasis(spec)
    basis = BasisIndex(model)
    dense = eigensolve_lowest(build_hamiltonian(model, basis), basis.dim)
    assert eig.nr == select_nr(dense.energies, LASER.omega_l, spec.max_order)
    dense = EigenBasis(energies=dense.energies[: eig.nr], vectors=dense.vectors[:, : eig.nr])
    assert np.abs(dense.energies - eig.energies).max() <= 1e-8
    # subspaces match: cross-gram is unitary block-diagonal over clusters
    gram = dense.vectors.T @ eig.vectors
    for cluster in degenerate_clusters(dense.energies):
        block = gram[np.ix_(cluster, cluster)]
        assert np.allclose(block @ block.T, np.eye(len(cluster)), atol=1e-7)
    # every kept state is even or odd, and x couples only opposite parities
    parity = np.einsum("im,im->m", eig.vectors[basis.inversion], eig.vectors)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)
    assert {1.0, -1.0} <= set(np.sign(parity))
    same = np.sign(parity)[:, None] == np.sign(parity)[None, :]
    assert np.all(eig.transition[same] == 0.0)
    x = build_position(model, basis).matrix
    assert np.array_equal(eig.transition[~same], (eig.vectors.T @ (x @ eig.vectors))[~same])
    if gamma != 0:
        # at gamma = 0 x keeps the phonon configuration, so most
        # opposite-parity pairs are exactly dark too
        assert np.all(eig.transition[~same] != 0.0)


@pytest.mark.parametrize("gamma", [-0.025, -0.002])
def test_override_past_the_first_cut(gamma):
    # 60 pairs a sector reach 121 laser quanta above the even sector's
    # lowest level, past the first cut at 1.5 max_order (67.5): the cut is
    # raised, and the states kept are still the lowest of the whole space
    model = replace(ARPACK_MODEL, gamma=gamma)
    spec = ScanSpec(model=model, laser=LASER, dense_threshold=ARPACK_THRESHOLD, nr_override=60)
    eig = solve_eigenbasis(spec)
    exact = np.linalg.eigvalsh(build_hamiltonian(model, BasisIndex(model)).to_dense())
    assert eig.nr == 60
    assert np.abs(eig.energies - exact[:60]).max() <= 1e-12


def test_override_too_large_for_lanczos(eig3, caplog):
    # 700 pairs of each 2187-state sector of the paper's point are more than
    # Lanczos converges on, so LAPACK solves them, and says so
    model = ModelParams()
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.scan"):
        eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER, nr_override=700))
    assert [r.getMessage() for r in caplog.records] == [
        "even sector: dim 2187, 700 pairs, lapack",
        "odd sector: dim 2187, 700 pairs, lapack",
    ]
    assert eig.nr == 700
    assert np.abs(eig.energies[: eig3.nr] - eig3.energies).max() <= 1e-10
    h = build_hamiltonian(model, BasisIndex(model)).matrix
    residuals = np.linalg.norm(h @ eig.vectors - eig.vectors * eig.energies, axis=0)
    assert residuals.max() <= 1e-8
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(700)).max() <= 1e-10


def test_zero_max_order_keeps_the_ground_state():
    # a span of 0 gives the filter no height to double, so the first cut
    # goes halfway up the spectrum instead
    model = ARPACK_MODEL
    eig = solve_eigenbasis(
        ScanSpec(model=model, laser=LASER, dense_threshold=ARPACK_THRESHOLD, max_order=0.0)
    )
    exact = np.linalg.eigvalsh(build_hamiltonian(model, BasisIndex(model)).to_dense())
    assert eig.nr == 1
    assert abs(eig.energies[0] - exact[0]) <= 1e-12


@pytest.mark.parametrize("index, nr", [(0, 35), (24, 36)], ids=["gamma-0.05", "gamma-0.002"])
def test_nr_on_the_paper_grid(index, nr):
    # the state count of two default couplings at the paper's cutoff, as the
    # unfiltered Lanczos solver chose it; a level on the max_order boundary
    # would move it
    gamma = float(default_gamma_grid()[index])
    eig = solve_eigenbasis(ScanSpec(model=replace(ModelParams(), gamma=gamma), laser=LASER))
    assert eig.nr == nr


@pytest.mark.parametrize("n_cells, cutoff", [(1, 2), (2, 3), (3, 2)])
def test_orbits_put_each_representative_before_its_mirror(n_cells, cutoff):
    # solve_eigenbasis fixes a lifted vector's sign on its sector block, which
    # holds the values at the representatives; that picks the same entry
    # only if representatives ascend and each precedes its mirror
    basis = BasisIndex(ModelParams(n_cells=n_cells, phonon_cutoff=cutoff))
    reps, mirrors = _orbits(basis)
    assert np.all(np.diff(reps) > 0)
    assert np.all(reps < mirrors)
    assert np.array_equal(mirrors, basis.inversion[reps])
    assert np.array_equal(np.sort(np.concatenate([reps, mirrors])), np.arange(basis.dim))


@pytest.mark.parametrize("n_cells, cutoff", [(1, 2), (2, 3), (3, 2)])
def test_sliced_sectors_are_the_projected_hamiltonian(n_cells, cutoff):
    # H[r, r] +- H[r, m] is P H P^T exactly; the product rounds differently
    # (its 1/2 is sqrt(1/2) squared), so the entries agree within rounding
    model = ModelParams(n_cells=n_cells, phonon_cutoff=cutoff, gamma=-0.025)
    basis = BasisIndex(model)
    h = build_hamiltonian(model, basis)
    for sector, op in enumerate(_sector_operators(h, *_orbits(basis))):
        p = parity_projection(basis, sector)
        assert op.dim == basis.dim // 2
        assert op.matrix.has_canonical_format
        assert np.all(op.matrix.data != 0)
        assert abs(op.matrix - p @ h.matrix @ p.T).max() <= 1e-15


def test_hamiltonian_is_let_go_before_the_sectors_are_solved(monkeypatch):
    # only the sector operators are read after the slicing; the full H would
    # otherwise stay resident through both solves, and in the forked child
    refs = []
    original_build, original_solve = scan.build_hamiltonian, scan._solve_sectors

    def building(model, basis):
        h = original_build(model, basis)
        refs.append(weakref.ref(h.matrix))
        return h

    def solving(spec, basis, jobs):
        assert refs and all(ref() is None for ref in refs)
        return original_solve(spec, basis, jobs)

    monkeypatch.setattr(scan, "build_hamiltonian", building)
    monkeypatch.setattr(scan, "_solve_sectors", solving)
    solve_eigenbasis(ScanSpec(model=replace(ARPACK_MODEL, gamma=-0.025), laser=LASER))


@pytest.mark.parametrize(
    "model",
    [
        replace(ARPACK_MODEL, gamma=-0.025),
        replace(ARPACK_MODEL, gamma=0.0),
        ModelParams(n_cells=3, phonon_cutoff=2),
        ModelParams(v=0.0, w=0.0, gamma=-0.025, n_cells=2, phonon_cutoff=3),
    ],
    ids=["N2-L3", "N2-L3-gamma0", "N3-L2", "v-w-0"],
)
def test_lift_gives_the_bits_of_the_projection(monkeypatch, model):
    # the kept vectors are scattered from the sector bases; they must be,
    # bit for bit and sign of zero included, _fix_phases(P^T E) of the
    # sector bases the solve found
    solved = {}
    original = scan._solve_sectors

    def recording(spec, basis, jobs):
        eigs = original(spec, basis, jobs)
        solved.update((job[0], e) for job, e in zip(jobs, eigs))
        return eigs

    monkeypatch.setattr(scan, "_solve_sectors", recording)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    basis = BasisIndex(model)
    eigs = [solved[0], solved[1]]
    kept = np.argsort(np.concatenate([e.energies for e in eigs]), kind="stable")[: eig.nr]
    vectors = np.empty((basis.dim, eig.nr))
    start = 0
    for sector, e in enumerate(eigs):
        p = parity_projection(basis, sector)
        mine = np.flatnonzero((kept >= start) & (kept < start + e.nr))
        vectors[:, mine] = p.T @ e.vectors[:, kept[mine] - start]
        start += e.nr
    assert eig.vectors.tobytes() == _fix_phases(vectors).tobytes()


def test_assembly_holds_the_result_and_one_half_block(monkeypatch):
    # after the sector solves, at dim 24576 (N=3, L=4) and nr 40, the lift
    # and T hold at most one (dim/2, nr) block beyond the result, where the
    # projection product, its phase-fixed copy and x V each held more
    model = ModelParams(phonon_cutoff=4)
    half, nr = BasisIndex(model).dim // 2, 40
    rng = np.random.default_rng(0)
    bases = [
        EigenBasis(
            energies=np.sort(rng.uniform(-1.0, 0.0, nr)),
            vectors=rng.standard_normal((half, nr)) / np.sqrt(half),
        )
        for _ in range(2)
    ]

    def precomputed(spec, basis, jobs):
        assert [count for *_, count in jobs] == [nr, nr]
        tracemalloc.start()
        return bases

    monkeypatch.setattr(scan, "_solve_sectors", precomputed)
    try:
        eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER, nr_override=nr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = eig.energies.nbytes + eig.vectors.nbytes + eig.transition.nbytes
    assert peak < result + half * nr * 8


def test_ground_state_is_taken_from_either_sector(monkeypatch):
    # H + delta Pi still commutes with inversion, and it lowers every odd
    # level by 2 delta against the even ones: here far enough that the
    # ground state is odd
    basis = BasisIndex(ARPACK_MODEL)
    dim = basis.dim
    flip = scipy.sparse.csr_matrix((np.ones(dim), basis.inversion, np.arange(dim + 1)))
    h = build_hamiltonian(ARPACK_MODEL, basis).matrix + 0.03 * flip
    shifted = SparseOperator(matrix=h.tocsr())
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


def _skip_without_blas_pools():
    # on one CPU OpenBLAS starts no thread pool, so the count reads 1 anyway
    if not os.path.isdir("/proc/self/task") or not hasattr(os, "fork"):
        pytest.skip("needs /proc/self/task and os.fork")
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        pytest.skip("needs two usable CPUs")


_TRY_POINT = scan._try_point
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_fresh(*argv):
    """Output words of a fresh interpreter on the package's source.  Importing
    the package put OPENBLAS_NUM_THREADS into this environment; it is left out."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env={**env, "PYTHONPATH": _SRC}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _point_and_threads(spec, label):
    """A scan point, then the threads of the process that ran it and its
    OpenBLAS thread counts."""
    result = _TRY_POINT(spec, label)
    counts = [get() for get, _ in _openblas_thread_controls()]
    return result, len(os.listdir("/proc/self/task")), counts


_COUNTS = "print(*(get() for get, _ in polaron_hhg.scan._openblas_thread_controls()))"


def test_import_leaves_one_thread():
    # the count is set when the package loads, so before anything can fork
    _skip_without_blas_pools()
    assert set(_run_fresh("-c", "import polaron_hhg; " + _COUNTS)) <= {"1"}


def test_numpy_loaded_first_still_gets_one_thread():
    # numpy's OpenBLAS read its thread count before the package could set
    # the variable, so scan's set call is what brings it to 1
    _skip_without_blas_pools()
    counts = _run_fresh("-c", "import numpy, scipy.linalg, polaron_hhg; " + _COUNTS)
    assert counts and set(counts) == {"1"}


def test_import_starts_no_blas_threads():
    # with the variable set before numpy loads, OpenBLAS starts no thread
    _skip_without_blas_pools()
    code = "import os, polaron_hhg; print(len(os.listdir('/proc/self/task')))"
    assert _run_fresh("-c", code) == ["1"]


def test_pool_workers_keep_one_thread(monkeypatch):
    # the pool is forked after the count is set, so a worker never sets it:
    # a set call after a fork would restart OpenBLAS's thread pools
    _skip_without_blas_pools()
    monkeypatch.setattr(scan, "_try_point", _point_and_threads)
    spec = replace(SMALL_SPEC, gamma_values=(-0.02, -0.01))
    for point, threads, counts in gamma_scan(spec, workers=2):
        assert isinstance(point, PointResult)
        assert threads == 1
        assert set(counts) <= {1}


_FORKSERVER_SCAN = """
import multiprocessing, os
from polaron_hhg import scan
from polaron_hhg.hilbert import ModelParams

_TRY_POINT = scan._try_point


def point_and_threads(spec, label):
    return _TRY_POINT(spec, label), len(os.listdir("/proc/self/task"))


if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    scan._try_point = point_and_threads
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    spec = scan.ScanSpec(model=model, gamma_values=(-0.02, -0.01))
    print(*(threads for _, threads in scan.gamma_scan(spec, workers=2)))
"""


def test_pool_workers_keep_one_thread_under_forkserver(tmp_path):
    # a forkserver worker would not inherit the one-thread setting, and its
    # first solve would leave it with OpenBLAS's threads; the pool forks
    _skip_without_blas_pools()
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the forkserver start method")
    script = tmp_path / "forkserver_scan.py"
    script.write_text(_FORKSERVER_SCAN)
    assert _run_fresh(str(script)) == ["1", "1"]


def test_solve_at_once_leaves_one_thread():
    # in a fresh interpreter, after a solve that forked the odd sector
    _skip_without_blas_pools()
    code = (
        "import os; from polaron_hhg import scan; scan._FORK_MIN_DIM = 0; "
        "from polaron_hhg.hilbert import ModelParams; "
        "model = ModelParams(n_cells=2, phonon_cutoff=3); "
        "assert scan._fork_sectors([1, 1]); "
        "scan.solve_eigenbasis(scan.ScanSpec(model=model, dense_threshold=0)); "
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert _run_fresh("-c", code) == ["1"]


@pytest.mark.parametrize("cutoff", [3, 4])
def test_degenerate_window_is_complete(cutoff):
    # at gamma = 0 the levels are the L=1 chain levels dressed with every
    # phonon configuration, so e0 + 2 omega_ph is 21-fold degenerate (and
    # more levels besides); Lanczos alone keeps only some copies.  gamma = 0
    # is built exactly, so dense_threshold plays no part.
    model = ModelParams(gamma=0.0, phonon_cutoff=cutoff)
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
    # every kept vector is even or odd under chain inversion
    basis = BasisIndex(model)
    parity = np.einsum("im,im->m", eig.vectors[basis.inversion], eig.vectors)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)


@pytest.mark.parametrize("v, w", [(0.0, 0.0), (0.0, -0.104)])
def test_decoupled_solve_with_degenerate_chain_levels(v, w):
    # without hopping every chain level is 2N-fold degenerate, and with
    # v = 0 the two end sites form a degenerate pair of edge levels that
    # inversion swaps; the exact gamma = 0 states must still be sector
    # eigenvectors with the full spectrum's energies
    model = ModelParams(v=v, w=w, gamma=0.0, n_cells=2, phonon_cutoff=2)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    basis = BasisIndex(model)
    exact = np.linalg.eigvalsh(build_hamiltonian(model, basis).to_dense())
    assert np.abs(eig.energies - exact[: eig.nr]).max() <= 1e-12
    parity = np.einsum("im,im->m", eig.vectors[basis.inversion], eig.vectors)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)


def test_degenerate_chain_levels_reach_the_lapack_stand_in(caplog):
    # without hopping every chain level is 2N-fold degenerate at any
    # coupling; Lanczos misses copies, so on sectors of dim 162 LAPACK
    # stands in and the window is complete
    model = ModelParams(v=0.0, w=0.0, gamma=-0.025, n_cells=2, phonon_cutoff=3)
    exact = np.linalg.eigvalsh(build_hamiltonian(model, BasisIndex(model)).to_dense())
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    assert eig.nr == 57
    assert np.abs(eig.energies - exact[:57]).max() <= 1e-12
    # Lanczos alone can miss copies of levels: at N=3, L=2 (sectors of dim
    # 192) it keeps 89 states, not the 103 lowest, and says so.  At N=2,
    # L=3 the filter lets it find every copy through rounding, which
    # nothing promises
    model = replace(model, n_cells=3, phonon_cutoff=2)
    exact = np.linalg.eigvalsh(build_hamiltonian(model, BasisIndex(model)).to_dense())
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    assert eig.nr == 103
    assert np.abs(eig.energies - exact[:103]).max() <= 1e-12
    with caplog.at_level(logging.WARNING, logger="polaron_hhg.scan"):
        lanczos = solve_eigenbasis(ScanSpec(model=model, laser=LASER, dense_threshold=0))
    assert np.abs(lanczos.energies - exact[: lanczos.nr]).max() > 1e-3
    warned = {r.getMessage() for r in caplog.records if r.name == "polaron_hhg.scan"}
    assert warned == {
        f"{name} sector, dim 192: a degenerate cluster is left to Lanczos, which may miss copies"
        for name in ("even", "odd")
    }


def _stand_in_log(caplog) -> list:
    """The filtered Lanczos and stand-in lines of ``caplog``, in order."""
    return [
        r.getMessage()
        for r in caplog.records
        if r.getMessage().startswith("filtered Lanczos: ") or "LAPACK stands in" in r.getMessage()
    ]


def test_lapack_stand_in_is_logged(caplog):
    # the first point above: the first Lanczos block of each sector, 24
    # pairs, holds a degenerate cluster, and LAPACK replaces it once with
    # every level up to 1.5 spans, which leaves the growth loop nothing to ask
    model = ModelParams(v=0.0, w=0.0, gamma=-0.025, n_cells=2, phonon_cutoff=3)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg"):
        solve_eigenbasis(ScanSpec(model=model, laser=LASER))
    lines = _stand_in_log(caplog)
    assert len(lines) == 4
    assert all(line.startswith("filtered Lanczos: ") for line in lines[0::2])
    stand_in = "degenerate cluster in the Lanczos result, dim 162: LAPACK stands in"
    assert lines[1::2] == [stand_in] * 2


def test_lapack_stand_in_keeps_the_pairs_asked_for(caplog):
    # at max_order 20 the stand-in's window, 1.5 spans above each sector's
    # lowest level, holds 20 levels of N=2, L=3 in all; 60 pairs are asked
    # of each sector (dim 162, so Lanczos runs first), and all 60 lowest are kept
    model = ModelParams(v=0.0, w=0.0, gamma=-0.025, n_cells=2, phonon_cutoff=3)
    exact = np.linalg.eigvalsh(build_hamiltonian(model, BasisIndex(model)).to_dense())
    assert np.count_nonzero(exact <= exact[0] + 1.5 * 20 * LASER.omega_l) == 20
    spec = ScanSpec(model=model, laser=LASER, max_order=20.0, nr_override=60)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg"):
        eig = solve_eigenbasis(spec)
    assert sum("LAPACK stands in" in line for line in _stand_in_log(caplog)) == 2
    assert eig.nr == 60
    assert np.abs(eig.energies - exact[:60]).max() <= 1e-12


def test_default_grid_reaches_no_stand_in(gamma_results):
    # the stand-in is for degenerate chain levels: no point of the default
    # N=3, L=3 grid off gamma = 0 keeps a degenerate cluster
    for gamma, result in zip(default_gamma_grid(), gamma_results):
        assert isinstance(result, PointResult)
        if gamma != 0:
            assert len(degenerate_clusters(result.energies, 1e-9)) == result.nr


@pytest.mark.parametrize(
    "model, calls",
    [
        (ModelParams(), 2),
        (ModelParams(phonon_cutoff=4, gamma=-0.05), 2),
        (ModelParams(phonon_cutoff=4, gamma=0.0), 0),
    ],
    ids=["paper", "L4-gamma-0.05", "L4-gamma0"],
)
def test_one_lanczos_call_per_sector(monkeypatch, caplog, model, calls):
    # the first block of each sector reaches max_order, so no sector grows;
    # gamma = 0 is built without Lanczos.  A forked child's calls are not
    # seen here, so they are counted with the sectors solved in turn
    counts = []
    original = scan.eigensolve_lowest

    def counting(op, count, *args, **kwargs):
        counts.append(count)
        return original(op, count, *args, **kwargs)

    # no sector LAPACK could stand in for, so sectors of every dim may fork
    spec = ScanSpec(model=model, laser=LASER, dense_threshold=0)
    with monkeypatch.context() as m:
        m.setattr(scan, "_fork_sectors", lambda dims: False)
        m.setattr(scan, "eigensolve_lowest", counting)
        solve_eigenbasis(spec)
    assert counts == [scan._INITIAL_COUNT] * calls
    # solved at once, each sector still logs one block and no growth
    monkeypatch.setattr(scan, "_FORK_MIN_DIM", 0)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.scan"):
        solve_eigenbasis(spec)
    lines = [r.getMessage() for r in caplog.records]
    assert [line.split(":")[0] for line in lines] == ["even sector", "odd sector"]
    assert all(f" {scan._INITIAL_COUNT} pairs" in line for line in lines)


def test_sector_solves_are_logged(caplog):
    spec = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.scan"):
        solve_eigenbasis(spec)
        solve_eigenbasis(replace(spec, model=replace(ARPACK_MODEL, gamma=0.0)))
    assert [r.getMessage() for r in caplog.records] == [
        "even sector: dim 162, 24 pairs, ncv 64",
        "odd sector: dim 162, 24 pairs, ncv 64",
        "even sector: dim 162, 24 pairs, decoupled",
        "odd sector: dim 162, 24 pairs, decoupled",
    ]


def test_whole_sector_solves_are_logged_as_lapack(caplog):
    # at N=2, L=2 a sector holds 32 states: 24 pairs would take a Lanczos
    # space of the whole sector, so LAPACK solves it
    spec = ScanSpec(model=ModelParams(n_cells=2, phonon_cutoff=2), laser=LASER)
    with caplog.at_level(logging.DEBUG, logger="polaron_hhg.scan"):
        solve_eigenbasis(spec)
    assert [r.getMessage() for r in caplog.records] == [
        "even sector: dim 32, 24 pairs, lapack",
        "odd sector: dim 32, 24 pairs, lapack",
    ]


def _forking(monkeypatch) -> list:
    """Solve every pair of sectors at once; returns the pids forked."""
    monkeypatch.setattr(scan, "_FORK_MIN_DIM", 0)
    if not scan._fork_sectors([1, 1]):
        pytest.skip("needs os.fork and two usable CPUs")
    forks = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def _assert_no_child_left(forks):
    # every process the solve forked is reaped; other children of this
    # process, such as multiprocessing's resource tracker, do not count
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


ARPACK_SPEC = ScanSpec(model=ARPACK_MODEL, laser=LASER, dense_threshold=ARPACK_THRESHOLD)


@pytest.mark.parametrize("gamma", [-0.025, 0.0])
def test_sectors_solved_at_once_give_the_same_bits(monkeypatch, gamma):
    spec = replace(ARPACK_SPEC, model=replace(ARPACK_MODEL, gamma=gamma))
    serial = solve_eigenbasis(spec)
    forks = _forking(monkeypatch)
    forked = solve_eigenbasis(spec)
    assert len(forks) == 1
    assert np.array_equal(forked.energies, serial.energies)
    assert np.array_equal(forked.vectors, serial.vectors)
    assert np.array_equal(forked.transition, serial.transition)
    _assert_no_child_left(forks)


def test_sectors_lapack_may_stand_in_for_are_solved_in_turn(monkeypatch):
    # a stand-in window holds more pairs than asked, which the forked
    # child's shared mapping, sized for the pairs asked, could not take
    model = ModelParams(v=0.0, w=0.0, gamma=-0.025, n_cells=2, phonon_cutoff=3)
    spec = ScanSpec(model=model, laser=LASER)
    serial = solve_eigenbasis(spec)
    forks = _forking(monkeypatch)
    assert np.array_equal(solve_eigenbasis(spec).energies, serial.energies)
    assert forks == []


def test_forked_sector_failure_reaches_the_caller(monkeypatch):
    forks = _forking(monkeypatch)
    original = scan._sector_lowest

    def failing(spec, basis, sector, *args):
        if sector == 1:
            raise EigensolveError(
                f"odd sector failed in process {os.getpid()}", residuals=np.array([1e-3, 2e-7])
            )
        return original(spec, basis, sector, *args)

    monkeypatch.setattr(scan, "_sector_lowest", failing)
    with pytest.raises(EigensolveError) as info:
        solve_eigenbasis(ARPACK_SPEC)
    assert type(info.value) is EigensolveError
    assert str(info.value) == f"odd sector failed in process {forks[0]}"
    assert np.array_equal(info.value.residuals, [1e-3, 2e-7])
    _assert_no_child_left(forks)


class _TwoArgumentError(Exception):
    """Pickled by its message alone, which its ``__init__`` cannot take back."""

    def __init__(self, point, reason):
        super().__init__(f"{point}: {reason}")


def _error_holding_a_lambda():
    exc = ValueError("bad point")
    exc.retry = lambda: None
    return exc


@pytest.mark.parametrize(
    "make, message",
    [
        # cannot be pickled in the child
        (_error_holding_a_lambda, "ValueError: bad point"),
        # pickled in the child, cannot be unpickled here
        (lambda: _TwoArgumentError("gamma -0.01", "diverged"), "_TwoArgumentError: gamma -0.01: diverged"),
    ],
    ids=["unpicklable", "not-unpicklable"],
)
def test_forked_child_error_that_does_not_round_trip_is_named(capfd, make, message):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")

    def target(conn):
        raise make()

    child = scan.ForkedChild(target, lambda status: RuntimeError(f"lost, status {status}"))
    pid = child._process.pid
    with pytest.raises(RuntimeError) as info:
        child.wait()
    assert type(info.value) is RuntimeError
    assert str(info.value) == message
    _assert_no_child_left([pid])
    assert capfd.readouterr().err == ""


def test_arpack_error_reads_the_same_in_turn_and_at_once(monkeypatch):
    # an ArpackError does not survive pickling, so the odd sector's must
    # reach the caller as the same EigensolveError from a forked child
    parent = os.getpid()
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def odd_fails(*args, **kwargs):
        calls.append(os.getpid())
        # in turn the second call solves the odd sector; at once the child does
        if os.getpid() != parent or len(calls) == 2:
            raise ArpackError(-9999)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", odd_fails)
    errors = []
    for at_once in (False, True):
        calls.clear()
        forks = _forking(monkeypatch) if at_once else []
        with pytest.raises(EigensolveError) as info:
            solve_eigenbasis(ARPACK_SPEC)
        errors.append((type(info.value), str(info.value)))
        _assert_no_child_left(forks)
    assert len(forks) == 1
    assert errors == [
        (EigensolveError, "ARPACK failed for k=24, dim=162: ARPACK error -9999: Unknown error")
    ] * 2


@pytest.mark.parametrize(
    "die,status",
    [
        (lambda: os._exit(3), 3),
        # what the kernel's OOM killer sends
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ],
    ids=["exit", "sigkill"],
)
def test_silent_child_exit_names_the_odd_sector(monkeypatch, die, status):
    forks = _forking(monkeypatch)
    parent = os.getpid()
    original = scan._sector_lowest

    def dying(spec, basis, sector, *args):
        if sector == 1 and os.getpid() != parent:
            die()
        return original(spec, basis, sector, *args)

    monkeypatch.setattr(scan, "_sector_lowest", dying)
    with pytest.raises(EigensolveError, match=f"^odd sector: .* status {status}$"):
        solve_eigenbasis(ARPACK_SPEC)
    assert len(forks) == 1
    _assert_no_child_left(forks)


def test_failed_even_sector_does_not_wait_for_the_child(monkeypatch):
    forks = _forking(monkeypatch)

    def even_fails(spec, basis, sector, *args):
        if sector == 1:
            time.sleep(60)
        raise ValueError("even sector failed")

    monkeypatch.setattr(scan, "_sector_lowest", even_fails)
    start = time.monotonic()
    with pytest.raises(ValueError, match="even sector failed"):
        solve_eigenbasis(ARPACK_SPEC)
    assert time.monotonic() - start < 10.0
    assert len(forks) == 1
    _assert_no_child_left(forks)


def test_interrupted_wait_kills_the_child(monkeypatch):
    # an exception raised in this process while it waits for the odd
    # sector, here by a timer set once the even sector is solved, kills the
    # sleeping child instead of waiting for it
    forks = _forking(monkeypatch)
    parent = os.getpid()
    original = scan._sector_lowest

    class Alarm(BaseException):
        pass

    def ring(signum, frame):
        raise Alarm

    def odd_sleeps(spec, basis, sector, *args):
        if os.getpid() != parent:
            time.sleep(60)
        eig = original(spec, basis, sector, *args)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        return eig

    monkeypatch.setattr(scan, "_sector_lowest", odd_sleeps)
    previous = signal.signal(signal.SIGALRM, ring)
    start = time.monotonic()
    try:
        with pytest.raises(Alarm):
            solve_eigenbasis(ARPACK_SPEC)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10.0
    assert len(forks) == 1
    _assert_no_child_left(forks)


@pytest.mark.parametrize("method", [None, "spawn"], ids=["default", "spawn"])
def test_pool_workers_solve_sectors_in_turn(method):
    # the pool already uses the CPUs, so its workers never fork a sector,
    # whichever way they were started
    large = [10**9, 10**9]
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(scan._fork_sectors, large).result() is False
    # while this process, on two CPUs, forks for the same dims
    if hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2:
        assert scan._fork_sectors(large) is True


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
        def __init__(self, max_workers, mp_context=None):
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
    nan_grid = replace(r1.spectrum, orders=np.full_like(r1.spectrum.orders, np.nan))
    with pytest.raises(ValueError, match="different grids"):
        spectral_distance(r1.spectrum, nan_grid)


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
