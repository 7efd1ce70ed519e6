"""Lowest eigenpairs of the field-free Hamiltonian and the dipole transition matrix.

Eigenpairs come from ARPACK's implicitly restarted Lanczos (Lehoucq,
Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998) run on a Chebyshev
polynomial filter p(H) instead of H (Y. Zhou & Y. Saad, *SIAM J. Matrix
Anal. Appl.* 29, 954 (2007); Y. Saad, *Numerical Methods for Large
Eigenvalue Problems*, 2nd ed., SIAM 2011, ch. 8).  p is at most 1 in
magnitude over the unwanted part of the spectrum, above a cut, and
grows steeply below it, so the wanted levels become p's largest
eigenvalues, well separated from the rest: ARPACK then needs 1-4
iterations where it needed 14-29, for a few cheap sparse matvecs more
per Lanczos step.  Energies are the Rayleigh quotients of H.  The cut is
placed from the caller's energy span and checked after the solve, and
raised when a level returned does not lie clearly below it (see
``_arpack_lowest``).  ARPACK starts from one fixed generic vector, so
every call gives the same bits, with a search space of ``count + 40``
Lanczos vectors (see :func:`lanczos_ncv`).  The pipeline hands in one
chain-inversion parity sector at a time (see ``scan.solve_eigenbasis``),
so no start vector has to reach both the even and the odd states.
Single-vector Lanczos finds the extra copies of an exactly degenerate
level only through rounding, which the filter amplifies but does not
make reliable; the pipeline decides what to do about such levels (see
``scan._sector_lowest``), not this module's solver.

LAPACK (dense, lowest-``count`` subset) solves where the Lanczos search
space would hold the whole operator, ``count + 40 >= dim``: there Lanczos
would be a dense solve at greater cost, and the filter cannot help,
since its cut would have to clear nearly the whole spectrum.  In an
operator small enough to hold dense, it also solves a block of more
than half the operator, and one too large for Lanczos to converge on
reliably (see :func:`lapack_solves`, the one statement of this rule).
Every path returns ascending energies, orthonormal vectors with a fixed
sign convention, and verified residuals (:func:`verified_basis`); every
failure is an :class:`EigensolveError`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from .operators import SparseOperator

logger = logging.getLogger(__name__)

# Lanczos vectors beyond the wanted pairs: with scipy's default of
# 2 count + 1 (49 at 24 pairs) a sector solve near gamma = 0 restarts so
# often that it takes 3-6 times longer
_NCV_SLACK = 40
# states up to which LAPACK may also take a large block (see lapack_solves):
# its dense matrix is at most 200 MB, as for the stand-in of
# scan._sector_lowest at its default dense_threshold.  Whatever the count,
# one BLAS thread, s: dim 1250 0.4-0.6, 2187 1.4-1.6, 2592 2.0-2.7, 4802
# 9.3-10.7, with a peak RSS of 508 MB; dim 139968 would need 157 GB
_LAPACK_MAX_DIM = 5000
# count * sqrt(dim) above which a block of a sector of at most
# _LAPACK_MAX_DIM states goes to LAPACK.  The filter's cut lands near a
# wanted level, and its raises overshoot, more often the larger the block.
# Both sectors at gamma -0.01, -0.025 and -0.05 of dims 1250, 2187, 2592
# and 4802, one BLAS thread: above the bound (loads 1.6e4 and 2.4e4)
# Lanczos failed on 25 of 42 blocks, after 2-11 s, and took 2.1-4.3 s
# where it converged (2.4-2.8 s at dim 4802, where LAPACK takes 10 s);
# below it (200 pairs, and loads 1.1e4) it failed on 3 of 48, all at
# gamma -0.01
_LANCZOS_MAX_LOAD = 16000

# Degree d of the Chebyshev filter.  Both sectors of N=3, L=4 (dim 12288
# each) at gamma -0.024 / -0.002, one BLAS thread, s, min of 2: d = 4
# 0.66 / 0.86, 6 0.46 / 0.77, 8 0.40 / 0.63, 12 0.37 / 0.58, 16 0.43 / 0.74;
# unfiltered Lanczos 1.36 / 2.52
_FILTER_DEGREE = 8
# first cut above E_0, in spans of the caller.  At 1.5 spans of max_order
# 45 (order 67.5) the 24 pairs of each sector lie below order 54, at most
# 0.8 of the cut's height: at every gamma != 0 of the N=3, L=3 and L=4
# grids, and at gamma -0.025 / -0.002 for L=5, -0.025 for L=6
_CUT_SPANS = 1.5
# share of the cut's height above E_0 by which every level kept lies below it
_CUT_MARGIN = 0.05
# times the cut is raised before the solve fails
_CUT_RAISES = 3
# ARPACK iterations allowed under one cut.  At 1.5 spans the sector solves
# of N=3, L=3 to 6 take 1-4 (4 at gamma -0.002); unfiltered, L=4 took
# 14-29.  With the cut on a wanted level each iteration gains little, so
# a small bound wastes little before the cut is raised
_FILTER_MAXITER = 10

# rows of V per block of T = V^T x V (see transition_matrix): at dim 24576
# a block's x V is about a fifth of V, and the paper's dim 4374 is one block
_TRANSITION_ROWS = 5000

_RESIDUAL_TOL = 1e-8
_ORTHO_TOL = 1e-10
_DEGENERACY_TOL = 1e-9


class EigensolveError(RuntimeError):
    """Eigensolver failed to converge; carries the residual norms seen."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class EigenBasis:
    """Lowest eigenpairs, optionally completed with the transition matrix.

    energies        ascending eigenvalues, shape (nr,)
    vectors         orthonormal columns in the site basis, shape (dim, nr)
    transition      dipole matrix T_mn = <m|x|n>, shape (nr, nr), or None
    """

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    transition: np.ndarray | None = field(default=None, repr=False)

    @property
    def nr(self) -> int:
        return self.energies.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def gs_transition(self) -> np.ndarray | None:
        """Row 0 of ``transition`` (the ground state), or None."""
        return self.transition[0] if self.transition is not None else None


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive, the
    first in row order among equals, in place; returns ``vectors``.

    The leading components are found a column at a time: ``np.abs`` of
    the whole array, and numpy's argmax down its columns, would each copy
    it.  A zero column is left as it is.
    """
    lead = np.array([np.abs(col).argmax() for col in vectors.T], dtype=np.intp)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def lanczos_ncv(dim: int, count: int) -> int:
    """Size of the Lanczos search space for ``count`` pairs of a ``dim``-state operator."""
    return min(dim, count + _NCV_SLACK)


def lapack_solves(dim: int, count: int) -> bool:
    """Whether :func:`eigensolve_lowest` hands ``count`` pairs of a
    ``dim``-state operator to LAPACK, not to Lanczos.

    LAPACK solves where the Lanczos search space would hold the whole
    operator.  In an operator of at most ``_LAPACK_MAX_DIM`` states, whose
    dense matrix is small, it also solves a block of more than half of
    it, whose filter's first cuts fall below its top level and each cost
    a failed ARPACK run (384 of 512 levels took 1.05 s filtered, 0.59 s
    unfiltered and 0.09 s by LAPACK), and a block too large for Lanczos
    to converge on reliably, ``count * sqrt(dim)`` above
    ``_LANCZOS_MAX_LOAD``.  A larger operator keeps Lanczos for every
    block that leaves it 40 levels out.
    """
    large = 2 * count > dim or count * dim**0.5 > _LANCZOS_MAX_LOAD
    return lanczos_ncv(dim, count) >= dim or (dim <= _LAPACK_MAX_DIM and large)


def _verify(h, energies: np.ndarray, vectors: np.ndarray) -> None:
    """Raise :class:`EigensolveError` unless ``vectors`` are orthonormal
    and the pairs' residuals are small (see :func:`verified_basis`).

    Orthonormality, a property of the vectors alone, is checked first: a
    nan in the vectors is then an orthonormality defect, and a nan energy
    with sound vectors a residual one.
    """
    norms = np.linalg.norm(h @ vectors - vectors * energies, axis=0)
    gram = vectors.T @ vectors
    off = np.abs(gram - np.eye(gram.shape[0])).max()
    if not off <= _ORTHO_TOL:
        raise EigensolveError(f"orthonormality defect {off:.3e}", residuals=norms)
    bound = _RESIDUAL_TOL * np.maximum(1.0, np.abs(energies))
    if not np.all(norms <= bound):
        raise EigensolveError(
            f"eigenpair residuals up to {norms.max():.3e} exceed tolerance",
            residuals=norms,
        )


def _lapack_lowest(op: SparseOperator, count: int):
    return scipy.linalg.eigh(
        op.to_dense(), subset_by_index=(0, count - 1), check_finite=False
    )


def _rayleigh(h, vectors: np.ndarray):
    """Rayleigh quotients v^T H v of unit ``vectors``, and the norms of
    their residuals H v - (v^T H v) v."""
    hv = h @ vectors
    energies = np.einsum("ij,ij->j", vectors, hv)
    return energies, np.linalg.norm(hv - vectors * energies, axis=0)


def _chebyshev_filter(h, cut: float, e_max: float):
    """p(H) = +-T_d((H - c) / r), c = (e_max + cut) / 2, r = (e_max - cut) / 2,
    d = ``_FILTER_DEGREE``, by the three-term recurrence.

    Where H's spectrum lies in [cut, e_max], |p| <= 1; below the cut p
    exceeds 1 and grows as the level falls (the sign makes it positive
    for odd d), so p's largest eigenvalues belong to H's lowest levels.
    """
    c, r = (e_max + cut) / 2, (e_max - cut) / 2

    def apply(x):
        prev = x.ravel()
        cur = (h @ prev - c * prev) / r
        for _ in range(_FILTER_DEGREE - 1):
            nxt = h @ cur
            nxt -= c * cur
            nxt *= 2 / r
            nxt -= prev
            prev, cur = cur, nxt
        return -cur if _FILTER_DEGREE % 2 else cur

    return scipy.sparse.linalg.LinearOperator(h.shape, matvec=apply, dtype=np.float64)


def _arpack_lowest(op: SparseOperator, count: int, span: float):
    """Lowest ``count`` eigenpairs of ``op`` by ARPACK on the Chebyshev
    filter p(H) of :func:`_chebyshev_filter`, energies as Rayleigh
    quotients of H.

    The cut starts ``_CUT_SPANS`` spans above E_0, which a 1-pair
    Lanczos solve estimates, but never above the middle of [E_0, E_max],
    E_max being H's Gershgorin bound; a ``span`` that is not positive
    puts it there.  Every level returned must lie below the cut by
    ``_CUT_MARGIN`` of its height above E_0: a level above the cut has
    |p| <= 1 and may have been taken in place of a lower one.  If one
    does not, or ARPACK needs more than ``_FILTER_MAXITER`` iterations,
    as it does with the cut on a wanted level, the cut's height is
    doubled, but the cut goes at most halfway to E_max, and the block is
    solved again, at most ``_CUT_RAISES`` times.
    """
    h = op.matrix
    # a fixed start vector makes every call give the same bits; a generic one
    # has weight on every eigenvector of the operator it is handed
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
    try:
        e0 = scipy.sparse.linalg.eigsh(
            h, k=1, which="SA", tol=1e-6, ncv=min(op.dim, 20), v0=v0,
            return_eigenvectors=False,
        )[0]
        # |H| shares the caller's indices: abs(h) would sort them in place
        magnitudes = scipy.sparse.csr_matrix((np.abs(h.data), h.indices, h.indptr), h.shape)
        width = magnitudes.sum(axis=1).max() - e0
        # the cut's height above E_0; each raise goes at most halfway to E_max,
        # where p would lift E_0 beyond what double precision resolves near the cut
        height = min(_CUT_SPANS * span if span > 0 else np.inf, width / 2)
        for raises in range(_CUT_RAISES + 1):
            if raises:
                height = min(2 * height, (height + width) / 2)
            cut = e0 + height
            try:
                _, vectors = scipy.sparse.linalg.eigsh(
                    _chebyshev_filter(h, cut, e0 + width),
                    k=count,
                    which="LA",
                    tol=1e-10,
                    ncv=lanczos_ncv(op.dim, count),
                    v0=v0,
                    maxiter=_FILTER_MAXITER,
                )
            except ArpackNoConvergence:
                if raises == _CUT_RAISES:
                    raise
                continue
            energies, residuals = _rayleigh(h, vectors)
            if energies.max() <= cut - _CUT_MARGIN * height:
                logger.debug(
                    "filtered Lanczos: degree %d, cut E_0 + %.4g, top level E_0 + %.4g, "
                    "%d raises, worst residual %.2e",
                    _FILTER_DEGREE, height, energies.max() - e0, raises, residuals.max(),
                )
                return energies, vectors
        raise EigensolveError(
            f"Lanczos kept levels above the cut for k={count}, dim={op.dim} "
            f"after {_CUT_RAISES} raises",
            residuals=residuals,
        )
    except ArpackNoConvergence as exc:
        _, residuals = _rayleigh(h, exc.eigenvectors)
        raise EigensolveError(
            f"Lanczos did not converge for k={count}, dim={op.dim}",
            residuals=residuals if residuals.size else None,
        ) from exc
    except ArpackError as exc:
        # ArpackError does not survive pickling, as from a forked sector solve
        raise EigensolveError(f"ARPACK failed for k={count}, dim={op.dim}: {exc}") from exc


def eigensolve_lowest(op: SparseOperator, count: int, span: float = np.inf) -> EigenBasis:
    """Lowest ``count`` eigenpairs of a symmetric operator, ascending.

    ARPACK Lanczos on a Chebyshev filter of the operator, from a fixed
    start vector, in a search space of :func:`lanczos_ncv` vectors (see
    ``_arpack_lowest``), and LAPACK where :func:`lapack_solves` says so:
    where that space would hold the whole operator, or, in a small
    operator, the block is more than half of it or too large for Lanczos
    to converge on reliably.  ``span`` is the energy above the lowest
    level that the caller expects the ``count`` levels to cover.  It
    places the filter's first cut; the default, no estimate, puts it
    halfway up the operator's Gershgorin range.  A cut below a wanted
    level is raised, a bounded number of times.  Raises
    :class:`EigensolveError` on non-convergence, on a cut it cannot
    clear, or on bad residuals.
    """
    dim = op.dim
    if not 1 <= count <= dim:
        raise ValueError(f"count {count} outside [1, {dim}]")
    if lapack_solves(dim, count):
        return verified_basis(op, *_lapack_lowest(op, count))
    return verified_basis(op, *_arpack_lowest(op, count, span))


def verified_basis(op: SparseOperator, energies: np.ndarray, vectors: np.ndarray) -> EigenBasis:
    """Eigenpairs of ``op`` sorted ascending (stable), phase-fixed, and
    checked: orthonormality within 1e-10 and residuals within 1e-8 of
    max(1, |E|), a nan failing either, else :class:`EigensolveError`.
    The sort copies ``vectors``, and the phases are fixed in that copy,
    so the caller's array is left as it was."""
    order = np.argsort(energies, kind="stable")
    energies = np.ascontiguousarray(energies[order])
    vectors = _fix_phases(np.ascontiguousarray(vectors[:, order]))
    _verify(op.matrix, energies, vectors)
    return EigenBasis(energies=energies, vectors=vectors)


def warn_near_degenerate_ground(energies: np.ndarray) -> None:
    """Log a warning when the two lowest of the ascending ``energies`` lie
    within the degeneracy tolerance: the ground state is then not unique."""
    if len(energies) > 1 and energies[1] - energies[0] < _DEGENERACY_TOL:
        logger.warning(
            "near-degenerate ground state: e1 - e0 = %.3e", energies[1] - energies[0]
        )


def transition_matrix(eig: EigenBasis, x_op: SparseOperator) -> np.ndarray:
    """T_mn = <m| x |n> over the retained states; verified symmetric.

    T = V^T x V is summed over blocks of ``_TRANSITION_ROWS`` rows,
    V_b^T (x_b V), so beyond T only one block's (rows, nr) product is
    held, not all of x V.  A basis of at most that many states is one
    block, the plain product.
    """
    if x_op.dim != eig.dim:
        raise ValueError(f"operator dim {x_op.dim} != basis dim {eig.dim}")
    v, x, step = eig.vectors, x_op.matrix, _TRANSITION_ROWS
    t = v[:step].T @ (x[:step] @ v)
    for start in range(step, eig.dim, step):
        t += v[start:start + step].T @ (x[start:start + step] @ v)
    asym = np.abs(t - t.T).max() if t.size else 0.0
    if not asym <= 1e-12:
        raise ValueError(f"transition matrix asymmetry {asym:.3e}")
    return t


def with_transition(eig: EigenBasis, x_op: SparseOperator) -> EigenBasis:
    """Return a copy of ``eig`` completed with T."""
    return replace(eig, transition=transition_matrix(eig, x_op))


def harmonic_order(energy: float, energy_gs: float, omega_l: float):
    """Map an energy to laser-frequency units, (e - e_gs) / omega_l."""
    if not omega_l > 0:
        raise ValueError(f"omega_l must be > 0, got {omega_l}")
    return (energy - energy_gs) / omega_l


def select_nr(
    energies: np.ndarray,
    omega_l: float,
    max_order: float,
    override: int | None = None,
) -> int:
    """Smallest state count whose top energy reaches ``max_order``.

    Clamps to the number of available energies; an explicit ``override``
    wins (also clamped).  The cut may still fall inside a degenerate
    cluster, keeping only some of its copies: at gamma = 0 the top kept
    state can be one of several dark phonon copies of a level, and the
    order in which ``scan`` builds the decoupled states, not a solver's
    gauge, fixes which copy that is.
    """
    n = len(energies)
    if n == 0:
        raise ValueError("no energies given")
    if override is not None:
        return max(1, min(int(override), n))
    orders = harmonic_order(np.asarray(energies), energies[0], omega_l)
    idx = int(np.searchsorted(orders, max_order, side="left"))
    return min(idx + 1, n)


def state_relevance(eig: EigenBasis, omega_l: float) -> np.ndarray:
    """Per-state (harmonic_order, log10 T_gs^2) pairs, shape (nr, 2).

    States with an exactly zero ground-state coupling get -inf.
    """
    if eig.gs_transition is None:
        raise ValueError("transition matrix not attached")
    orders = harmonic_order(eig.energies, eig.energies[0], omega_l)
    tgs2 = eig.gs_transition**2
    with np.errstate(divide="ignore"):
        logs = np.log10(tgs2)
    return np.column_stack([orders, logs])


def degenerate_clusters(energies: np.ndarray, tol: float = _DEGENERACY_TOL):
    """Group indices of energies lying within ``tol`` of their neighbor.

    Individual eigenvectors inside such a cluster are gauge-dependent;
    comparisons of T entries should aggregate over these groups.
    """
    clusters = []
    current = [0]
    for i in range(1, len(energies)):
        if energies[i] - energies[i - 1] < tol:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters
