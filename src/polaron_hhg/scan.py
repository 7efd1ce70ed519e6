"""End-to-end pipeline runs, coupling scans and cutoff convergence studies.

A point is one :class:`ScanSpec`.  ``run_point`` composes the full chain
— basis, sparse assembly, eigensolve, state selection, propagation,
spectrum — for it and returns one flat :class:`PointResult`.  The scan
drivers give each coupling or cutoff a copy of their spec with that
value in its model, record per-point failures instead of aborting, and
gather results by point index so the output is independent of worker
count and execution order.

A point's H is sliced into its two chain-inversion parity sectors,
solved at once when each holds at least ``_FORK_MIN_DIM`` states and the
process may use two CPUs: the odd one in a :class:`ForkedChild`, the
even one in the calling process.  A ``multiprocessing`` child, such as a
gamma-scan pool worker, solves them in turn, since its parent already
uses the CPUs.  Either way each sector is solved by the same code on one
BLAS thread, so the bits are the same.  :class:`ForkedChild` alone knows
how a forked child, this one or the CLI's time-series writer, reports,
dies and is reaped.  The kept states are then scattered from the sector
bases straight into the site basis, and T is summed over row blocks, so
the point's eigenbasis is assembled without a full-size temporary.

Every bundled OpenBLAS runs one thread, for good, so every mode gives
the same bits: serial, with a point's sectors solved at once, or in a
gamma-scan pool.  Importing the package sets ``OPENBLAS_NUM_THREADS`` to
1 unless it is set already, so an OpenBLAS loaded after that starts no
thread pool; importing this module then sets the count of every bundled
build to 1, for a process that loaded numpy first.  Every process the
package forks starts after the import, so it inherits the count and
never sets it: after a fork a set call would restart the thread pools
that OpenBLAS's fork handler stopped, and their new threads would spin.
"""

from __future__ import annotations

import ctypes
import logging
import mmap
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np
import scipy.linalg

from .dynamics import PropagationConfig, TimeSeries, propagate
from .hilbert import BasisIndex, ModelParams, is_integer
from .operators import SparseOperator, build_hamiltonian, build_position
from .pulse import LaserParams
from .spectral import (
    _CUT_SPANS,
    _DEGENERACY_TOL,
    EigenBasis,
    EigensolveError,
    degenerate_clusters,
    eigensolve_lowest,
    harmonic_order,
    lanczos_ncv,
    lapack_solves,
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
# once, the odd one in a forked child (see _solve_sectors).  One
# solve_eigenbasis at gamma -0.024 in a fresh interpreter, process wall /
# CPU in s, median of 5, serial -> at once, on a 2-CPU host: sector dim
# 2187 (the paper's point) 0.60 / 0.83 -> 0.61 / 0.88, 4802 0.79 / 1.01 ->
# 0.79 / 1.05, 8192 1.08 / 1.29 -> 1.00 / 1.39, 12288 1.15 / 1.37 -> 0.94 /
# 1.34 (1.95 / 2.20 -> 1.40 / 2.34 without the Chebyshev filter).  Below
# 8192 the wall saved is within the host's drift, and forking at 2187 raised
# the paper run's CPU time in each of 3 benchmark pairs.
_FORK_MIN_DIM = 8192
# harmonic orders over which a convergence study compares consecutive cutoffs
CONVERGENCE_WINDOW = (2.0, 40.0)


def default_gamma_grid() -> np.ndarray:
    """Uniform 26-point coupling grid over [-0.05, 0], weakest coupling last."""
    return np.linspace(-0.05, 0.0, 26)


@dataclass(frozen=True)
class ScanSpec:
    """Every setting of a pipeline run; the defaults are the reference set.

    One spec is one point: :func:`solve_eigenbasis` and :func:`run_point`
    read every setting they use from it.  ``dense_threshold`` is the
    largest parity-sector dim at which LAPACK may stand in for Lanczos
    (see ``_sector_lowest``).
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
    dense_threshold: int = 5000
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


# one thread for good, before any fork (see the module docstring)
for _, _put in _openblas_thread_controls():
    _put(1)


@cache
def _malloc_trim() -> Callable | None:
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _orbits(basis: BasisIndex) -> tuple:
    """(reps, mirrors): the basis states i < Pi(i) in ascending order, the
    orbit representatives of chain inversion Pi, and their images Pi(i).
    Pi fixes no basis state, so each array holds half the space."""
    reps = np.flatnonzero(np.arange(basis.dim) < basis.inversion)
    return reps, basis.inversion[reps]


def _sector_operators(h: SparseOperator, reps, mirrors) -> list[SparseOperator]:
    """[H+, H-], H[r, r] +- H[r, m] of the even and odd parity sectors (see
    :func:`solve_eigenbasis`), in canonical CSR."""
    rows = h.matrix[reps]
    same, mirrored = rows[:, reps], rows[:, mirrors]
    return [SparseOperator(m) for m in (same + mirrored, same - mirrored)]


def _decoupled_lowest(
    model: ModelParams, basis: BasisIndex, sector: int, op: SparseOperator, count: int
) -> EigenBasis:
    """Lowest ``count`` eigenpairs of parity sector ``sector`` (0 even,
    1 odd; ``op`` is its H) at gamma = 0, built exactly, in sector
    coordinates.

    Without coupling H commutes with every site's phonon number, so its
    eigenstates are the 2N-site chain eigenvectors phi_k (parity p_k)
    times a Fock configuration n, at energy e_k + omega_ph (|n| + N).
    Sector s (+-1) holds |k,n> for a palindromic n with p_k = s, and
    (|k,n> + s p_k |k,rev n>) / sqrt(2) for every other orbit {n, rev n}.
    The candidates are ordered by chain level (even ones first), then by
    configuration code, and a stable sort by energy picks the lowest, so
    which copy of a degenerate level is kept never depends on rounding.
    The picked states' sector coordinates (v[r] +- v[m]) / sqrt(2) are
    gathered from their site vectors v (see :func:`_orbits`) and checked
    against ``op`` like any solver's (see ``verified_basis``).
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
    cols = np.arange(count)[:, None]
    sites = np.arange(ns)
    vectors = np.zeros((basis.dim, count))
    vectors[c[:, None] * ns + sites, cols] += amp
    vectors[rev[c][:, None] * ns + sites, cols] += (sign * parity[k])[:, None] * amp
    reps, mirrors = _orbits(basis)
    coords = np.sqrt(0.5) * vectors[reps]
    coords += sign * np.sqrt(0.5) * vectors[mirrors]
    # gone before the checks, which copy the sector block
    del vectors
    return verified_basis(op, energies, coords)


def _sector_lowest(
    spec: ScanSpec, basis: BasisIndex, sector: int, op: SparseOperator, count: int
) -> EigenBasis:
    """Lowest ``count`` pairs of parity sector ``sector`` (0 even, 1 odd),
    whose H is ``op``, or more; every degenerate level is handled here.

    At gamma = 0 each level is degenerate over the phonon configurations
    of equal quanta, and the block is built exactly
    (:func:`_decoupled_lowest`).  Elsewhere :func:`eigensolve_lowest`
    solves it, its levels expected to span ``spec.max_order`` laser
    quanta.  Single-vector Lanczos can miss copies of an exactly
    degenerate level, as degenerate chain levels give (v = w = 0, say).
    So when a Lanczos block, not a LAPACK one (see ``lapack_solves``),
    holds a degenerate cluster in a sector of at most
    ``spec.dense_threshold`` states, LAPACK stands in, once: it returns
    every pair up to the filter's first cut, ``_CUT_SPANS`` spans above
    the sector's lowest level, and up to the block's top level, which
    lies at or above the sector's ``count``-th (Cauchy interlacing), so at
    least ``count``.  The cut lies beyond ``spec.max_order`` quanta above
    the ground state, so the growth loop of :func:`solve_eigenbasis` asks
    nothing more of the sector unless no level of the window reaches that
    order; then it doubles the block, as for any other.  A larger sector
    keeps the Lanczos block, with a warning.  The default coupling grids
    at N=3, L=3 or 4 hold no cluster within 1e-9 at gamma != 0.
    """
    if spec.model.gamma == 0:
        return _decoupled_lowest(spec.model, basis, sector, op, count)
    span = spec.max_order * spec.laser.omega_l
    eig = eigensolve_lowest(op, count, span)
    if lapack_solves(op.dim, count) or len(degenerate_clusters(eig.energies)) == eig.nr:
        return eig
    if op.dim > spec.dense_threshold:
        logger.warning(
            "%s sector, dim %d: a degenerate cluster is left to Lanczos, which may miss copies",
            ("even", "odd")[sector], op.dim,
        )
        return eig
    logger.debug("degenerate cluster in the Lanczos result, dim %d: LAPACK stands in", op.dim)
    upper = max(eig.energies[0] + _CUT_SPANS * span, eig.energies[-1] + _DEGENERACY_TOL)
    window = scipy.linalg.eigh(op.to_dense(), subset_by_value=(-np.inf, upper), check_finite=False)
    return verified_basis(op, *window)


def may_fork() -> bool:
    """Whether this process may hand work to a forked child: it can fork,
    has two CPUs to use and is no ``multiprocessing`` child, such as a
    gamma-scan pool worker, whose parent already uses them."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2 and multiprocessing.parent_process() is None


class ForkedChild:
    """``target(conn)`` run in a ``multiprocessing`` child started by fork.

    The child inherits every input, so nothing is serialised on the way
    in.  ``conn`` is the child's end of a duplex pipe, and :attr:`conn`
    this process's end.  Once ``target`` returns, the child reports
    through the pipe: None, or the exception ``target`` raised.
    :meth:`wait` takes that report, reaps the child and raises the
    exception here, with its type, message and attributes.  A child that
    exits without a report, killed or crashed or failing to send it,
    reads as the exception ``lost(exitcode)``, raised the same way.  If
    this process is interrupted while it waits, by any exception, the
    child is killed and reaped before that exception goes on.
    :meth:`kill` ends and reaps the child at once, for a caller that
    gives up on it; after :meth:`wait` it does nothing more.  So a caller
    that calls :meth:`kill` on every path that does not reach
    :meth:`wait` leaves no child behind.
    """

    def __init__(self, target: Callable, lost: Callable):
        context = multiprocessing.get_context("fork")
        self.conn, theirs = context.Pipe()
        self._lost = lost
        self._process = context.Process(target=self._run, args=(target, theirs))
        self._process.start()
        # with this process's copy of the child's end closed, the pipe reads
        # EOF once the child is gone
        theirs.close()

    def _run(self, target: Callable, conn) -> None:
        # in the child
        self.conn.close()
        try:
            target(conn)
        except Exception as exc:
            conn.send(exc)
        else:
            conn.send(None)

    def wait(self) -> None:
        """Wait for the child's report, reap it, and raise what it raised."""
        try:
            report = self.conn.recv()
        except (EOFError, OSError):
            # gone without a report
            self._process.join()
            report = self._lost(self._process.exitcode)
        except BaseException:
            self._process.kill()
            raise
        finally:
            self._process.join()
            self.conn.close()
        if report is not None:
            # sent by this process's own child
            raise report

    def kill(self) -> None:
        """End the child, if it still runs, and reap it."""
        self._process.kill()
        self._process.join()
        self.conn.close()


def _fork_sectors(dims) -> bool:
    """Whether :func:`_solve_sectors` solves sectors of these dims at once."""
    return len(dims) == 2 and min(dims) >= _FORK_MIN_DIM and may_fork()


def _solve_sectors(spec: ScanSpec, basis: BasisIndex, jobs: list) -> list[EigenBasis]:
    """:func:`_sector_lowest` for each ``(sector, op, count)`` of ``jobs``,
    in order: the sector (0 even, 1 odd), its H and the pairs wanted.

    Two sectors of at least ``_FORK_MIN_DIM`` states each, too large for
    LAPACK to stand in for (more than ``spec.dense_threshold``), are
    solved at the same time when :func:`may_fork` allows it (see
    :func:`_fork_sectors`); any others are solved one after the other.
    At once, this process solves the even sector and a
    :class:`ForkedChild` the odd one.  The child writes its energies and
    vectors straight into an anonymous shared mapping, whose views are
    the odd sector's result, so they do not go through the pipe: this
    process would then hold their serialised bytes and the arrays rebuilt
    from them at once.  The child's failure is raised here as it raised
    it, residuals included, and a child that dies without reporting is an
    ``EigensolveError`` naming the odd sector and its exit status.  If
    this process's own solve fails, the child is killed, not waited for.

    OpenBLAS's fork handler stops its thread pools first, so unless the
    caller runs threads of its own the process forks with one thread.
    """
    for sector, op, count in jobs:
        # the solver that runs: see _sector_lowest and eigensolve_lowest
        if spec.model.gamma == 0:
            solver = "decoupled"
        elif lapack_solves(op.dim, count):
            solver = "lapack"
        else:
            solver = f"ncv {lanczos_ncv(op.dim, count)}"
        name = ("even", "odd")[sector]
        logger.debug("%s sector: dim %d, %d pairs, %s", name, op.dim, count, solver)
    dims = [op.dim for _, op, _ in jobs]
    # a stand-in window (see _sector_lowest) would not fit the shared mapping
    if min(dims) <= spec.dense_threshold or not _fork_sectors(dims):
        return [_sector_lowest(spec, basis, *job) for job in jobs]

    even, odd = jobs
    _, op, count = odd
    shared = np.frombuffer(mmap.mmap(-1, 8 * count * (op.dim + 1)), dtype=np.float64)
    theirs = EigenBasis(energies=shared[:count], vectors=shared[count:].reshape(op.dim, count))

    def solve_odd(conn):
        eig = _sector_lowest(spec, basis, *odd)
        theirs.energies[:] = eig.energies
        theirs.vectors[:] = eig.vectors

    child = ForkedChild(
        solve_odd,
        lambda status: EigensolveError(f"odd sector: solver process exited with status {status}"),
    )
    try:
        mine = _sector_lowest(spec, basis, *even)
    except BaseException:
        child.kill()
        raise
    child.wait()
    return [mine, theirs]


def solve_eigenbasis(spec: ScanSpec) -> EigenBasis:
    """Lowest states of both chain-inversion parity sectors, merged and
    truncated to the selected state count, with the transition matrix.

    H commutes with inversion, so each sector is solved on its own, at
    half the dim.  Its H+- = H[r, r] +- H[r, m] is sliced out of H at the
    orbit representatives r and their mirrors m (see ``_orbits``): in the
    basis (e_r +- e_m) / sqrt(2) the entry between orbits k and l is
    (H[r_k, r_l] +- H[r_k, m_l] +- H[m_k, r_l] + H[m_k, m_l]) / 2, and
    inversion maps the last two terms onto the first two.  H is let go
    before the sectors are solved.  A sector's block starts at the larger
    of ``_INITIAL_COUNT`` and ``spec.nr_override`` pairs and doubles until
    its top energy lies ``spec.max_order`` laser quanta above the ground
    state, the lowest level of either sector, or it holds the whole
    sector; at the default ``max_order`` one block suffices.  At gamma
    != 0 :func:`eigensolve_lowest` computes each block with ARPACK on a
    Chebyshev filter of H+- (Zhou & Saad, *SIAM J. Matrix Anal. Appl.*
    29, 954 (2007); Saad, *Numerical Methods for Large Eigenvalue
    Problems*, 2nd ed., ch. 8), handed the energy of ``spec.max_order``
    laser quanta as the span its levels are expected to cover, which
    places the filter's first cut.  LAPACK solves a block spanning nearly
    the whole sector, or, in a sector small enough to hold dense, one too
    large for Lanczos, as a large ``spec.nr_override`` asks (see
    ``lapack_solves``).  Degenerate levels, which single-vector Lanczos
    can miss copies of, are handled in ``_sector_lowest``: at gamma = 0
    the block is built exactly, and elsewhere LAPACK may stand in for it.

    The merged energies choose ``nr``, and only the kept vectors are
    lifted back to the site basis: each sector's kept columns, scaled by
    sqrt(1/2), are scattered to the orbit representatives and, times the
    sector's parity, to their mirrors.  T is summed over row blocks
    (:func:`transition_matrix`), so beyond its result the assembly holds
    at most one (dim/2, nr) block at a time.  x flips the parity, so T
    between two states of the same sector is set to its exact value, 0.
    """
    omega_l, nr_override = spec.laser.omega_l, spec.nr_override
    basis = BasisIndex(spec.model)
    x = build_position(spec.model, basis)
    reps, mirrors = _orbits(basis)
    sectors = _sector_operators(build_hamiltonian(spec.model, basis), reps, mirrors)

    count = max(_INITIAL_COUNT, nr_override or 1)
    jobs = [(k, op, min(count, op.dim)) for k, op in enumerate(sectors)]
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
        jobs = [(k, sectors[k], min(2 * eigs[k].nr, sectors[k].dim)) for k in short]
        # let the old blocks go before the solve: held through it, they kept
        # ~50 MB more resident at N=3, L=6, here and in the forked child
        for k in short:
            eigs[k] = None
        for k, eig in zip(short, _solve_sectors(spec, basis, jobs)):
            eigs[k] = eig
    # the solves' workspaces are freed, but glibc keeps the heap they grew,
    # and the lift and T would stack on it: at N=3, L=6, gamma = 0 handing
    # it back takes the process from 197 to 123 MB resident
    trim = _malloc_trim()
    if trim is not None:
        trim(0)

    # kept[j] indexes the sectors' states laid end to end
    energies = np.concatenate([e.energies for e in eigs])
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    warn_near_degenerate_ground(energies)
    nr = select_nr(energies, omega_l, spec.max_order, nr_override)
    kept = order[:nr]
    # the sector blocks scattered to the site basis, each column with its
    # block's phase: representatives ascend and precede their mirrors, and
    # the scaling keeps the block's leading entry largest
    vectors = np.empty((basis.dim, nr))
    start = 0
    for parity, e in zip((1.0, -1.0), eigs):
        mine = np.flatnonzero((kept >= start) & (kept < start + e.nr))
        block = e.vectors[:, kept[mine] - start]
        block *= np.sqrt(0.5)
        vectors[np.ix_(reps, mine)] = block
        block *= parity
        vectors[np.ix_(mirrors, mine)] = block
        # gone before the next sector's block, and before T
        del block
        start += e.nr
    # a sparse product would sum each entry into 0.0, turning -0.0 into 0.0;
    # so does this, and the bits, signs of zero included, are the product's
    vectors += 0.0
    eig = with_transition(EigenBasis(energies=energies[:nr], vectors=vectors), x)
    # H keeps the parity and x flips it: same-parity entries are exactly 0
    even = kept < eigs[0].nr
    eig.transition[even[:, None] == even] = 0.0
    return eig


def run_point(spec: ScanSpec, on_samples: Callable | None = None) -> PointResult:
    """Deterministic end-to-end run for one parameter set; ``on_samples``
    goes to :func:`propagate`."""
    basis = BasisIndex(spec.model)
    eig = solve_eigenbasis(spec)
    ts = propagate(eig, basis, spec.laser, spec.propagation, on_samples=on_samples)
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

    Results come back ordered by grid index whatever the worker count,
    and a point's bits do not depend on it.  The pool is started by fork
    wherever ``os.fork`` exists, whatever the default start method, so
    its workers inherit the one BLAS thread (see the module docstring).
    """
    gammas = [float(g) for g in spec.gamma_values]
    specs = [replace(spec, model=replace(spec.model, gamma=g)) for g in gammas]
    labels = [f"gamma={g:.15g}" for g in gammas]
    # no more workers than points: a fork-started pool forks them all at its first submit
    workers = min(workers, len(specs))
    if workers <= 1:
        return list(map(_try_point, specs, labels))
    context = multiprocessing.get_context("fork" if hasattr(os, "fork") else None)
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_try_point, specs, labels))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-cutoff results and consecutive spectral distances."""

    l_values: tuple[int, ...]
    points: tuple[PointResult | PointFailure, ...] = field(repr=False)
    eps_gs: tuple[float, ...] = ()
    # max |Y_N(L_i) - Y_N(L_{i+1})| over CONVERGENCE_WINDOW, per consecutive pair
    spectral_diffs: tuple[float, ...] = ()


def spectral_distance(a: SpectrumResult, b: SpectrumResult) -> float:
    """Max-abs difference of the normalized yields over
    ``CONVERGENCE_WINDOW``; nan when the window holds no order of the
    grid, as for a pair of cutoffs that cannot be compared."""
    if a.orders.shape != b.orders.shape or not np.abs(a.orders - b.orders).max() <= 1e-9:
        raise ValueError("spectra live on different grids")
    sel = (a.orders >= CONVERGENCE_WINDOW[0]) & (a.orders <= CONVERGENCE_WINDOW[1])
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
