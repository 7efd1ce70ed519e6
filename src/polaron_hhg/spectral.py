"""Lowest eigenpairs of the field-free Hamiltonian and the dipole transition matrix.

Eigenpairs come from ARPACK's implicitly restarted Lanczos (Lehoucq,
Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998), started from one
fixed generic vector so that every call gives the same bits, with a
search space of ``count + 40`` Lanczos vectors (see :func:`lanczos_ncv`).
The pipeline hands in one chain-inversion parity sector at a time (see
``scan.solve_eigenbasis``), so no start vector has to reach both the
even and the odd states.  Single-vector Lanczos finds the extra copies
of an exactly degenerate level only through rounding; the one regime
where the pipeline meets such levels, the decoupled point gamma = 0, is
built exactly in ``scan`` and never reaches this module's solver.

LAPACK (dense, lowest-``count`` subset) stands in where ARPACK cannot
run, ``count >= dim - 1``, and, up to ``dense_threshold`` states of the
operator handed in, when the Lanczos result holds a degenerate cluster.
No point of the default coupling grids at N=3, L=3 or 4 reaches that
second stand-in any more: there no sector at gamma != 0 holds a cluster
within 1e-9, and gamma = 0 is exact.  It stays until a benchmark
change, because the benchmark's smoke workload sets ``dense_threshold``.  Every path returns ascending energies,
orthonormal vectors with a fixed sign convention, and verified
residuals (:func:`verified_basis`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from .operators import SparseOperator

logger = logging.getLogger(__name__)

# largest dim at which LAPACK may stand in for ARPACK on a degenerate result
DENSE_THRESHOLD_DEFAULT = 5000

# Lanczos vectors beyond the wanted pairs: with scipy's default of
# 2 count + 1 (49 at 24 pairs) a sector solve near gamma = 0 restarts so
# often that it takes 3-6 times longer
_NCV_SLACK = 40

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

    def truncated(self, nr: int) -> "EigenBasis":
        """Keep the lowest ``nr`` states (transition matrix sliced if present)."""
        if not 1 <= nr <= self.nr:
            raise ValueError(f"nr {nr} outside [1, {self.nr}]")
        t = self.transition[:nr, :nr] if self.transition is not None else None
        return replace(self, energies=self.energies[:nr],
                       vectors=self.vectors[:, :nr], transition=t)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def lanczos_ncv(dim: int, count: int) -> int:
    """Size of the Lanczos search space for ``count`` pairs of a ``dim``-state operator."""
    return min(dim, count + _NCV_SLACK)


def _verify(h, energies: np.ndarray, vectors: np.ndarray) -> None:
    resid = h @ vectors - vectors * energies
    norms = np.linalg.norm(resid, axis=0)
    bound = _RESIDUAL_TOL * np.maximum(1.0, np.abs(energies))
    if np.any(norms > bound):
        raise EigensolveError(
            f"eigenpair residuals up to {norms.max():.3e} exceed tolerance",
            residuals=norms,
        )
    gram = vectors.T @ vectors
    off = np.abs(gram - np.eye(gram.shape[0])).max()
    if off > _ORTHO_TOL:
        raise EigensolveError(f"orthonormality defect {off:.3e}", residuals=norms)


def _lapack_lowest(op: SparseOperator, count: int):
    return scipy.linalg.eigh(
        op.to_dense(), subset_by_index=(0, count - 1), check_finite=False
    )


def _arpack_lowest(op: SparseOperator, count: int, max_iterations: int | None):
    # a fixed start vector makes every call give the same bits; a generic one
    # has weight on every eigenvector of the operator it is handed
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
    try:
        return scipy.sparse.linalg.eigsh(
            op.matrix,
            k=count,
            which="SA",
            tol=1e-10,
            ncv=lanczos_ncv(op.dim, count),
            maxiter=max_iterations,
            v0=v0,
        )
    except ArpackNoConvergence as exc:
        res = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            res = np.linalg.norm(
                op.matrix @ exc.eigenvectors - exc.eigenvectors * exc.eigenvalues,
                axis=0,
            )
        raise EigensolveError(
            f"Lanczos did not converge for k={count}, dim={op.dim}", residuals=res
        ) from exc


def eigensolve_lowest(
    op: SparseOperator,
    count: int,
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT,
    max_iterations: int | None = None,
) -> EigenBasis:
    """Lowest ``count`` eigenpairs of a symmetric operator, ascending.

    ARPACK Lanczos from a fixed start vector, in a search space of
    :func:`lanczos_ncv` vectors, wherever it can run
    (``count < dim - 1``).  LAPACK takes over where ARPACK cannot give
    the answer: for ``count >= dim - 1``, and, when ``dim <=
    dense_threshold``, for a Lanczos result holding a degenerate cluster,
    whose other copies Lanczos may have missed.  ``dense_threshold`` is
    compared with the dim of ``op``, which is one parity sector when
    ``scan.solve_eigenbasis`` calls.  Above it the Lanczos result stands
    as it is.  Raises :class:`EigensolveError` on non-convergence or bad
    residuals.
    """
    dim = op.dim
    if not 1 <= count <= dim:
        raise ValueError(f"count {count} outside [1, {dim}]")

    if count >= dim - 1:
        energies, vectors = _lapack_lowest(op, count)
    else:
        energies, vectors = _arpack_lowest(op, count, max_iterations)
        if dim <= dense_threshold and any(
            len(c) > 1 for c in degenerate_clusters(np.sort(energies))
        ):
            energies, vectors = _lapack_lowest(op, count)
    return verified_basis(op, energies, vectors)


def verified_basis(op: SparseOperator, energies: np.ndarray, vectors: np.ndarray) -> EigenBasis:
    """Eigenpairs of ``op`` sorted ascending (stable), phase-fixed, and
    checked: residuals within 1e-8 of max(1, |E|) and orthonormality
    within 1e-10, else :class:`EigensolveError`."""
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
    """T_mn = <m| x |n> over the retained states; verified symmetric."""
    if x_op.dim != eig.dim:
        raise ValueError(f"operator dim {x_op.dim} != basis dim {eig.dim}")
    t = eig.vectors.T @ (x_op.matrix @ eig.vectors)
    asym = np.abs(t - t.T).max() if t.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"transition matrix asymmetry {asym:.3e}")
    return t


def with_transition(eig: EigenBasis, x_op: SparseOperator) -> EigenBasis:
    """Return a copy of ``eig`` completed with T."""
    return replace(eig, transition=transition_matrix(eig, x_op))


def harmonic_order(energy: float, energy_gs: float, omega_l: float):
    """Map an energy to laser-frequency units, (e - e_gs) / omega_l."""
    if omega_l <= 0:
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
