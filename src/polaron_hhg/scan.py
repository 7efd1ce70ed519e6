"""End-to-end pipeline runs, coupling scans and cutoff convergence studies.

A point is one :class:`ScanSpec`.  ``run_point`` composes the full chain
— basis, sparse assembly, eigensolve, state selection, propagation,
spectrum — for it and returns one flat :class:`PointResult`.  The scan
drivers give each coupling or cutoff a copy of their spec with that
value in its model, record per-point failures instead of aborting, and
gather results by point index so the output is independent of worker
count and execution order.

A point's two chain-inversion parity sectors are solved at the same
time when each holds at least ``_FORK_MIN_DIM`` states and the process
may use two CPUs: the odd sector in a forked ``multiprocessing`` child,
the even one in the calling process.  A ``multiprocessing`` child, such as
a gamma-scan pool worker, solves them in turn, since its parent already
uses the CPUs.  Either way each sector is solved by the same code on one
BLAS thread, so the bits are the same, and the child is reaped before the
solve returns or raises, on every path.
"""

from __future__ import annotations

import ctypes
import logging
import mmap
import multiprocessing
import os
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
    EigensolveError,
    _fix_phases,
    eigensolve_lowest,
    harmonic_order,
    lanczos_ncv,
    select_nr,
    state_relevance,
    verified_basis,
    warn_near_degenerate_ground,
    with_transition,
)
from .spectrum import SpectrumResult, acceleration, yield_spectrum

logger = logging.getLogger(__name__)

# pairs first computed in each parity sector; at max_order 45 no sector of
# the N=3, L<=4 grids needs more than 22
_INITIAL_COUNT = 24
# smallest sector dim at which the two sectors of a point are solved at
# once, the odd one in a forked child (see _solve_forked).  A fork costs
# about 0.2 s of CPU whatever the dim: OpenBLAS stops its thread pools for
# the fork, and setting the thread count back afterwards starts them again,
# each new thread spinning about 0.1 s before it sleeps.  One
# solve_eigenbasis in a fresh interpreter, process wall / CPU in s, serial
# -> forked, on a 2-CPU host: sector dim 2187 (the paper's point) 0.96 /
# 1.15 -> 1.05 / 1.30, 4802 1.31 / 1.46 -> 1.32 / 1.62, 8192 1.82 / 2.01 ->
# 1.46 / 2.20, 12288 2.61 / 2.80 -> 1.95 / 2.99.
_FORK_MIN_DIM = 8192
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
    holding a degenerate cluster (see ``eigensolve_lowest``).  No point
    of the default coupling grids at N=3, L=3 or 4 reaches that
    stand-in: there no sector at gamma != 0 holds a cluster within 1e-9,
    and gamma = 0 is built exactly.  The key stays because the
    benchmark's smoke workload sets it.
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


def _decoupled_lowest(
    model: ModelParams, basis: BasisIndex, sector: int, projection, op: SparseOperator, count: int
) -> EigenBasis:
    """Lowest ``count`` eigenpairs of parity sector ``sector`` (0 even,
    1 odd; ``projection`` is its P and ``op`` its H) at gamma = 0, built
    exactly, in sector coordinates.

    Without coupling H commutes with every site's phonon number, so its
    eigenstates are the 2N-site chain eigenvectors phi_k (parity p_k)
    times a Fock configuration n, at energy e_k + omega_ph (|n| + N).
    Sector s (+-1) holds |k,n> for a palindromic n with p_k = s, and
    (|k,n> + s p_k |k,rev n>) / sqrt(2) for every other orbit {n, rev n}.
    The candidates are ordered by chain level (even ones first), then by
    configuration code, and a stable sort by energy picks the lowest, so
    which copy of a degenerate level is kept never depends on rounding.
    The result is checked against ``op`` like any solver's (see
    ``verified_basis``).
    """
    ns = basis.n_sites
    sign = (1.0, -1.0)[sector]
    # the chain's hopping (v on even bonds, w on odd ones), diagonalised in
    # the mirror-symmetric and -antisymmetric site combinations, so every
    # phi_k has a parity even where levels are degenerate
    hop = np.where(np.arange(ns - 1) % 2 == 0, model.v, model.w)
    h1 = np.diag(hop, 1) + np.diag(hop, -1)
    half = np.arange(ns // 2)
    e, phi, parity = [], [], []
    for p in (1.0, -1.0):
        u = np.zeros((ns, ns // 2))
        u[half, half], u[ns - 1 - half, half] = np.sqrt(0.5), p * np.sqrt(0.5)
        ek, ck = np.linalg.eigh(u.T @ h1 @ u)
        e.append(ek)
        phi.append(u @ ck)
        parity.append(np.full(ek.size, p))
    e, phi, parity = np.concatenate(e), np.hstack(phi), np.concatenate(parity)

    # configuration c occupies indices c*ns .. c*ns + ns-1; rev[c] is its mirror
    configs = np.arange(basis.dim // ns)
    rev = basis.inversion[configs * ns] // ns
    quanta = basis.occupations[:, ::ns].sum(axis=0)
    k, c = (a.ravel() for a in np.meshgrid(np.arange(ns), configs[configs <= rev], indexing="ij"))
    allowed = (rev[c] != c) | (parity[k] == sign)
    k, c = k[allowed], c[allowed]
    energies = e[k] + model.omega_ph * (quanta[c] + ns / 2)
    pick = np.argsort(energies, kind="stable")[:count]
    k, c, energies = k[pick], c[pick], energies[pick]

    # a palindrome's two halves add up to |k,n>
    amp = np.where(rev[c] == c, 0.5, np.sqrt(0.5))[:, None] * phi[:, k].T
    rows = np.arange(count)[:, None]
    sites = np.arange(ns)
    vectors = np.zeros((count, basis.dim))
    vectors[rows, c[:, None] * ns + sites] += amp
    vectors[rows, rev[c][:, None] * ns + sites] += (sign * parity[k])[:, None] * amp
    return verified_basis(op, energies, projection @ vectors.T)


def _sector_lowest(
    spec: ScanSpec, basis: BasisIndex, sector: int, projection, op: SparseOperator, count: int
) -> EigenBasis:
    """Lowest ``count`` pairs of parity sector ``sector`` (projection P,
    operator H = P H P^T): built exactly at gamma = 0, else from
    :func:`eigensolve_lowest`."""
    if spec.model.gamma == 0:
        return _decoupled_lowest(spec.model, basis, sector, projection, op, count)
    return eigensolve_lowest(op, count, spec.dense_threshold)


def _fork_sectors(dims) -> bool:
    """Whether :func:`_solve_sectors` solves sectors of these dims at once:
    two of them, each of at least ``_FORK_MIN_DIM`` states, in a process
    that can fork, has two CPUs to use and is no ``multiprocessing``
    child, such as a gamma-scan pool worker, whose parent uses them."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return (
        len(dims) == 2
        and min(dims) >= _FORK_MIN_DIM
        and hasattr(os, "fork")
        and cpus >= 2
        and multiprocessing.parent_process() is None
    )


def _solve_sectors(spec: ScanSpec, basis: BasisIndex, jobs: list) -> list[EigenBasis]:
    """:func:`_sector_lowest` for each ``(sector, projection, op, count)``
    of ``jobs``, in order; two large sectors are solved at once (see
    :func:`_solve_forked`), any others one after the other."""
    for sector, _, op, count in jobs:
        name = ("even", "odd")[sector]
        if spec.model.gamma == 0:
            logger.debug("%s sector: dim %d, %d pairs, decoupled", name, op.dim, count)
        else:
            ncv = lanczos_ncv(op.dim, count)
            logger.debug("%s sector: dim %d, %d pairs, ncv %d", name, op.dim, count, ncv)
    if _fork_sectors([op.dim for _, _, op, _ in jobs]):
        return _solve_forked(spec, basis, *jobs)
    return [_sector_lowest(spec, basis, *job) for job in jobs]


def _solve_child(report, shared: np.ndarray, spec: ScanSpec, basis: BasisIndex, job) -> None:
    """:func:`_solve_forked`'s child: solve sector ``job`` into ``shared``
    (energies, then vectors) and send None, or the exception, to ``report``."""
    count = job[3]
    try:
        eig = _sector_lowest(spec, basis, *job)
        shared[:count] = eig.energies
        shared[count:] = eig.vectors.ravel()
    except Exception as exc:
        report.send(exc)
    else:
        report.send(None)


def _solve_forked(spec: ScanSpec, basis: BasisIndex, here, there) -> list[EigenBasis]:
    """Solve sector job ``here`` in this process and ``there`` in a forked
    child, at the same time; same bits as solving them in turn.

    The child is a ``multiprocessing`` process started by fork, so it
    inherits every input and nothing is serialised on the way in.  It
    writes its energies and vectors into an anonymous shared mapping, so
    they do not go through the pipe either: this process would then hold
    their serialised bytes and the arrays rebuilt from them at once.  A
    one-way pipe carries its report: None on success, else its exception,
    which is raised here with its type, message and residuals.  A child
    that dies without reporting is an ``EigensolveError`` naming the
    sector and its exit status.  The child is reaped before this returns
    or raises; if this process's own solve fails, the child is killed
    first.

    OpenBLAS's fork handler stops its thread pools first, so unless the
    caller runs threads of its own the process forks with one thread.
    Both processes then solve on the one BLAS thread that
    :func:`solve_eigenbasis` set, without pools.  Neither sets the count
    again here: that would restart the pools, whose new threads spin
    while the two solves run.
    """
    sector, _, op, count = there
    shared = np.frombuffer(mmap.mmap(-1, 8 * count * (op.dim + 1)), dtype=np.float64)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_solve_child, args=(sender, shared, spec, basis, there))
    child.start()
    # with this process's write end closed, recv() sees EOF once the child is gone
    sender.close()
    try:
        mine = _sector_lowest(spec, basis, *here)
        try:
            report = receiver.recv()
        except EOFError:
            child.join()
            report = EigensolveError(
                f"{('even', 'odd')[sector]} sector: solver process exited with status "
                f"{child.exitcode}"
            )
    except BaseException:
        child.kill()
        raise
    finally:
        child.join()
        receiver.close()
    if report is not None:
        # sent by this process's own child
        raise report
    theirs = EigenBasis(
        energies=shared[:count].copy(), vectors=shared[count:].reshape(op.dim, count).copy()
    )
    return [mine, theirs]


def solve_eigenbasis(spec: ScanSpec) -> EigenBasis:
    """Lowest states of both chain-inversion parity sectors, merged and
    truncated to the selected state count, with the transition matrix.

    H commutes with inversion, so each sector H+- = P+- H P+-^T is solved
    on its own, at half the dim.  A sector's block starts at
    ``_INITIAL_COUNT`` pairs (or ``spec.nr_override``) and doubles until
    its top energy lies ``spec.max_order`` laser quanta above the ground
    state, the lowest level of either sector, or it holds the whole
    sector; at the default ``max_order`` one block suffices.  At gamma
    != 0 :func:`eigensolve_lowest` computes each block with ARPACK (LAPACK
    only for a block spanning nearly the whole sector).  At gamma = 0
    the phonons decouple and each level is degenerate over the phonon
    configurations of equal quanta, copies that single-vector Lanczos
    would find only through rounding; the block is then built exactly
    from the chain levels (``_decoupled_lowest``) and checked against
    H+- like a solver's.  No point of the default grids at N=3, L=3 or
    4 reaches the ``spec.dense_threshold`` stand-in.  The merged energies choose
    ``nr``, and only the kept vectors are lifted back to the site basis.
    x flips the parity, so T between two states of the same sector is
    set to its exact value, 0.  Every BLAS call runs on one thread, so
    each mode gives the same bits for the same point.

    When both sectors of a block hold at least ``_FORK_MIN_DIM`` states
    and the process may use two CPUs (a ``multiprocessing`` child, such
    as a gamma-scan pool worker, never forks: its parent already uses
    them), the odd sector is solved in a forked child while this process
    solves the even one.  Each sector is computed by the same code on one
    BLAS thread either way, so the bits are the same, and the child is
    reaped before this returns or raises, on every path.
    """
    with _one_blas_thread():
        omega_l, nr_override = spec.laser.omega_l, spec.nr_override
        basis = BasisIndex(spec.model)
        h = build_hamiltonian(spec.model, basis)
        x = build_position(spec.model, basis)
        projections = _parity_projections(basis)
        sectors = [SparseOperator(dim=p.shape[0], matrix=p @ h.matrix @ p.T) for p in projections]

        count = max(_INITIAL_COUNT, nr_override or 1)
        jobs = [
            (k, p, op, min(count, op.dim)) for k, (p, op) in enumerate(zip(projections, sectors))
        ]
        eigs = _solve_sectors(spec, basis, jobs)
        while nr_override is None:
            e_gs = min(e.energies[0] for e in eigs)
            short = [
                k
                for k, (op, e) in enumerate(zip(sectors, eigs))
                if e.nr < op.dim and harmonic_order(e.energies[-1], e_gs, omega_l) < spec.max_order
            ]
            if not short:
                break
            jobs = [
                (k, projections[k], sectors[k], min(2 * eigs[k].nr, sectors[k].dim)) for k in short
            ]
            for k, eig in zip(short, _solve_sectors(spec, basis, jobs)):
                eigs[k] = eig

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
    count or on the process that computed it.  Pool workers need no
    initializer: :func:`run_point` sets the one thread, and a worker, as
    a ``multiprocessing`` child, solves each point's sectors in turn (see
    :func:`_fork_sectors`).
    """
    gammas = [float(g) for g in spec.gamma_values]
    specs = [replace(spec, model=replace(spec.model, gamma=g)) for g in gammas]
    labels = [f"gamma={g:.15g}" for g in gammas]
    # no more workers than points: a fork-started pool forks them all at its first submit
    workers = min(workers, len(specs))
    if workers <= 1:
        return list(map(_try_point, specs, labels))
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    """Max-abs difference of the normalized yields over an order window;
    nan when the window holds no order of the grid, as for a pair of
    cutoffs that cannot be compared."""
    if a.orders.shape != b.orders.shape or np.abs(a.orders - b.orders).max() > 1e-9:
        raise ValueError("spectra live on different grids")
    sel = (a.orders >= window[0]) & (a.orders <= window[1])
    if not sel.any():
        return float("nan")
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
