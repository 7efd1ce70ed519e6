"""End-to-end pipeline runs, coupling scans and cutoff convergence studies.

A point is one :class:`ScanSpec`.  ``run_point`` composes the full chain
— basis, sparse assembly, eigensolve, state selection, propagation,
spectrum — for it and returns one flat :class:`PointResult`.  The scan
drivers give each coupling or cutoff a copy of their spec with that
value in its model, record per-point failures instead of aborting, and
gather results by point index so the output is independent of worker
count and execution order.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np
import scipy

from .dynamics import PropagationConfig, TimeSeries, propagate
from .hilbert import BasisIndex, ModelParams, is_integer
from .operators import SparseOperator, build_hamiltonian, build_position
from .pulse import LaserParams
from .spectral import (
    DENSE_THRESHOLD_DEFAULT,
    EigenBasis,
    _fix_phases,
    eigensolve_lowest,
    harmonic_order,
    select_nr,
    state_relevance,
    warn_near_degenerate_ground,
    with_transition,
)
from .spectrum import SpectrumResult, acceleration, yield_spectrum

# pairs first computed in each parity sector
_INITIAL_COUNT = 32
# harmonic orders over which a convergence study compares consecutive cutoffs
CONVERGENCE_WINDOW = (2.0, 40.0)


def default_gamma_grid(n_points: int = 26) -> np.ndarray:
    """Uniform coupling grid over [-0.05, 0], weakest coupling last."""
    return np.linspace(-0.05, 0.0, n_points)


@dataclass(frozen=True)
class ScanSpec:
    """Every setting of a pipeline run; the defaults are the reference set.

    One spec is one point: :func:`solve_eigenbasis` and :func:`run_point`
    read every setting they use from it.  ``dense_threshold`` is the
    largest parity-sector dim (half the space, see
    :func:`solve_eigenbasis`) at which LAPACK replaces an ARPACK result
    holding a degenerate cluster (see ``eigensolve_lowest``).
    ``gamma_values`` are the couplings of :func:`gamma_scan` and
    ``l_values`` the cutoffs of :func:`convergence_study`; those run one
    point per value, on a copy of the spec whose model holds that value.
    The CLI's ``RunConfig`` extends this class, and each of these fields
    is a key of the CLI's config.

    A ValueError naming the field is raised unless ``nr_override`` is
    None or an integer >= 1, ``max_order`` is finite and >= 0,
    ``dense_threshold`` is an integer >= 0,
    ``gamma_values`` holds one or more distinct finite couplings <= 0, and
    ``l_values`` one or more strictly ascending integer cutoffs >= 1; so
    every scan point is valid.
    """

    model: ModelParams = field(default_factory=ModelParams)
    laser: LaserParams = field(default_factory=LaserParams)
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    nr_override: int | None = None
    max_order: float = 45.0
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT
    gamma_values: tuple[float, ...] = field(
        default_factory=lambda: tuple(default_gamma_grid().tolist())
    )
    l_values: tuple[int, ...] = (1, 3, 5, 6)

    def __post_init__(self):
        if self.nr_override is not None and not (
            is_integer(self.nr_override) and self.nr_override >= 1
        ):
            raise ValueError(f"nr_override must be an integer >= 1, got {self.nr_override!r}")
        if not 0 <= self.max_order < np.inf:
            raise ValueError(f"max_order must be finite and >= 0, got {self.max_order}")
        if not is_integer(self.dense_threshold) or self.dense_threshold < 0:
            raise ValueError(
                f"dense_threshold must be an integer >= 0, got {self.dense_threshold!r}"
            )
        gammas, cutoffs = self.gamma_values, self.l_values
        if len(gammas) == 0 or not all(-np.inf < g <= 0 for g in gammas):
            raise ValueError(f"gamma_values must be one or more finite values <= 0, got {gammas}")
        if len(set(gammas)) < len(gammas):
            raise ValueError(f"gamma_values repeats a coupling: {gammas}")
        if len(cutoffs) == 0 or not all(is_integer(l) and l >= 1 for l in cutoffs):
            raise ValueError(f"l_values must be one or more integer cutoffs >= 1, got {cutoffs}")
        if not all(a < b for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError(f"l_values must be strictly ascending, got {cutoffs}")


@dataclass(frozen=True)
class PointResult:
    """One point's kept energies (ascending), their :func:`state_relevance`
    rows, its propagation record and its harmonic spectrum."""

    energies: np.ndarray = field(repr=False)
    relevance: np.ndarray = field(repr=False)
    timeseries: TimeSeries = field(repr=False)
    spectrum: SpectrumResult = field(repr=False)

    @property
    def eps_gs(self) -> float:
        return float(self.energies[0])

    @property
    def nr(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class PointFailure:
    label: str
    message: str


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count entry points of the bundled OpenBLAS builds.

    Looks in the OpenBLAS libraries that numpy and scipy ship, once per
    process; the tuple is empty where there are none (another BLAS, or a
    system build).
    """
    controls = []
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libs.glob("lib*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for prefix, suffix in product(("scipy_openblas", "openblas"), ("64_", "")):
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


def _one_blas_thread_worker() -> None:
    """Pool initializer: this worker runs OpenBLAS on one thread."""
    for _, put in _openblas_thread_controls():
        put(1)


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore the count."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def _parity_projections(basis: BasisIndex) -> tuple:
    """(P+, P-): the even and odd sectors under chain inversion Pi.

    Each is a (dim/2, dim) CSR isometry whose row k is
    (e_i +- e_Pi(i)) / sqrt(2) for the k-th orbit representative
    i < Pi(i).  Pi fixes no basis state, so the two sectors split the
    space in equal halves.
    """
    inv = basis.inversion
    reps = np.flatnonzero(np.arange(basis.dim) < inv)
    cols = np.column_stack([reps, inv[reps]]).ravel()
    rows = np.arange(0, cols.size + 1, 2)
    amp = np.sqrt(0.5)
    return tuple(
        scipy.sparse.csr_matrix(
            (np.tile([amp, sign * amp], reps.size), cols, rows), shape=(reps.size, basis.dim)
        )
        for sign in (1.0, -1.0)
    )


def solve_eigenbasis(spec: ScanSpec) -> EigenBasis:
    """Lowest states of both chain-inversion parity sectors, merged and
    truncated to the selected state count, with the transition matrix.

    H commutes with inversion, so each sector H+- = P+- H P+-^T is solved
    on its own by :func:`eigensolve_lowest`, at half the dim.  A sector's
    block starts at ``_INITIAL_COUNT`` pairs (or ``spec.nr_override``) and
    doubles until its top energy lies ``spec.max_order`` laser quanta
    above the ground state, the lowest level of either sector, or it
    holds the whole sector.  ARPACK computes each block unless it spans
    nearly the whole sector or, up to ``spec.dense_threshold`` sector
    states, holds a degenerate level; then LAPACK does.  The merged
    energies choose ``nr``, and only the kept vectors are lifted back to
    the site basis.  x flips the parity, so T between two states of the
    same sector is set to its exact value, 0.  Every BLAS call runs on
    one thread, so each mode gives the same bits for the same point.
    """
    with _one_blas_thread():
        omega_l, nr_override = spec.laser.omega_l, spec.nr_override
        basis = BasisIndex(spec.model)
        h = build_hamiltonian(spec.model, basis)
        x = build_position(spec.model, basis)
        projections = _parity_projections(basis)
        sectors = [SparseOperator(dim=p.shape[0], matrix=p @ h.matrix @ p.T) for p in projections]

        count = max(_INITIAL_COUNT, nr_override or 1)
        eigs = [eigensolve_lowest(op, min(count, op.dim), spec.dense_threshold) for op in sectors]
        while nr_override is None:
            e_gs = min(e.energies[0] for e in eigs)
            short = [
                k
                for k, (op, e) in enumerate(zip(sectors, eigs))
                if e.nr < op.dim and harmonic_order(e.energies[-1], e_gs, omega_l) < spec.max_order
            ]
            if not short:
                break
            for k in short:
                count = min(2 * eigs[k].nr, sectors[k].dim)
                eigs[k] = eigensolve_lowest(sectors[k], count, spec.dense_threshold)

        # kept[j] indexes the sectors' states laid end to end
        energies = np.concatenate([e.energies for e in eigs])
        order = np.argsort(energies, kind="stable")
        energies = energies[order]
        warn_near_degenerate_ground(energies)
        nr = select_nr(energies, omega_l, spec.max_order, nr_override)
        kept = order[:nr]
        vectors = np.empty((basis.dim, nr))
        start = 0
        for p, e in zip(projections, eigs):
            mine = np.flatnonzero((kept >= start) & (kept < start + e.nr))
            vectors[:, mine] = p.T @ e.vectors[:, kept[mine] - start]
            start += e.nr
        eig = EigenBasis(energies=energies[:nr], vectors=_fix_phases(vectors))
        eig = with_transition(eig, x)
        # H keeps the parity and x flips it: same-parity entries are exactly 0
        even = kept < eigs[0].nr
        eig.transition[even[:, None] == even] = 0.0
        return eig


def run_point(spec: ScanSpec) -> PointResult:
    """Deterministic end-to-end run for one parameter set, on one BLAS
    thread throughout (see :func:`solve_eigenbasis`)."""
    with _one_blas_thread():
        basis = BasisIndex(spec.model)
        eig = solve_eigenbasis(spec)
        ts = propagate(eig, basis, spec.laser, spec.propagation)
    omega_l = spec.laser.omega_l
    spectrum = yield_spectrum(acceleration(ts.dipole_full, ts.dt), ts.dt, omega_l)
    return PointResult(
        energies=eig.energies.copy(),
        relevance=state_relevance(eig, omega_l),
        timeseries=ts,
        spectrum=spectrum,
    )


def _try_point(spec: ScanSpec, label: str) -> PointResult | PointFailure:
    """:func:`run_point` on ``spec``, or the failure it raised, recorded
    under ``label``."""
    try:
        return run_point(spec)
    except Exception as exc:  # recorded, scan continues
        return PointFailure(label=label, message=f"{type(exc).__name__}: {exc}")


def gamma_scan(spec: ScanSpec, workers: int = 1) -> list[PointResult | PointFailure]:
    """One pipeline run per coupling in ``spec.gamma_values``; failures recorded in place.

    Results come back ordered by grid index whatever the worker count.
    Every point runs OpenBLAS on one thread, as in every other mode (see
    :func:`run_point`), so a point's bits do not depend on the worker
    count or on the process that computed it.  Pool workers also start
    on one thread, so that workers sharing the cores never spin idle
    BLAS threads against each other.
    """
    gammas = [float(g) for g in spec.gamma_values]
    specs = [replace(spec, model=replace(spec.model, gamma=g)) for g in gammas]
    labels = [f"gamma={g:.15g}" for g in gammas]
    # no more workers than points: a fork-started pool forks them all at its first submit
    workers = min(workers, len(specs))
    if workers <= 1:
        return list(map(_try_point, specs, labels))
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread_worker) as pool:
        return list(pool.map(_try_point, specs, labels))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-cutoff results and consecutive spectral distances."""

    l_values: tuple[int, ...]
    points: tuple[PointResult | PointFailure, ...] = field(repr=False)
    eps_gs: tuple[float, ...] = ()
    # max |Y_N(L_i) - Y_N(L_{i+1})| over CONVERGENCE_WINDOW, per consecutive pair
    spectral_diffs: tuple[float, ...] = ()


def spectral_distance(
    a: SpectrumResult, b: SpectrumResult, window: tuple[float, float] = CONVERGENCE_WINDOW
) -> float:
    """Max-abs difference of the normalized yields over an order window."""
    if a.orders.shape != b.orders.shape or np.abs(a.orders - b.orders).max() > 1e-9:
        raise ValueError("spectra live on different grids")
    sel = (a.orders >= window[0]) & (a.orders <= window[1])
    return float(np.abs(a.yield_norm[sel] - b.yield_norm[sel]).max())


def convergence_study(spec: ScanSpec) -> ConvergenceReport:
    """Run the pipeline per phonon cutoff in ``spec.l_values`` (strictly
    ascending, see :class:`ScanSpec`) and report ground energies plus
    max-abs normalized-yield differences between consecutive cutoffs."""
    points = [
        _try_point(replace(spec, model=replace(spec.model, phonon_cutoff=l)), f"L={l}")
        for l in spec.l_values
    ]
    eps = tuple(p.eps_gs if isinstance(p, PointResult) else float("nan") for p in points)
    diffs = []
    for a, b in zip(points, points[1:]):
        if isinstance(a, PointResult) and isinstance(b, PointResult):
            diffs.append(spectral_distance(a.spectrum, b.spectrum))
        else:
            diffs.append(float("nan"))
    return ConvergenceReport(
        l_values=spec.l_values,
        points=tuple(points),
        eps_gs=eps,
        spectral_diffs=tuple(diffs),
    )


def correlation_map(eig: EigenBasis, basis: BasisIndex, m: int) -> np.ndarray:
    """Joint phonon-site/electron-site occupation of eigenstate ``m``.

    Entry [f, r] is <m| n_ph,f n_e,r |m>; both operators are diagonal in
    the site basis, so this is a weighted histogram of the squared
    eigenvector amplitudes.  All entries are non-negative.
    """
    if not 0 <= m < eig.nr:
        raise ValueError(f"state index {m} outside [0, {eig.nr})")
    prob = eig.vectors[:, m] ** 2
    ns = basis.n_sites
    sites = basis.electron_sites
    out = np.empty((ns, ns))
    for f in range(ns):
        out[f] = np.bincount(sites, weights=prob * basis.occupations[f], minlength=ns)
    return out
