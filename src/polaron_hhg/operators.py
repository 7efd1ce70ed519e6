"""Sparse assembly of the field-free Hamiltonian and the position operator.

All operators are real symmetric and assembled in the site basis fixed
by :class:`~polaron_hhg.hilbert.BasisIndex`.  Assembly is fully
vectorized over basis indices; every builder returns an immutable
:class:`SparseOperator`.  The site densities are diagonal in this basis
and are read straight off the ``BasisIndex`` tables where they are used
(``dynamics._rotated_densities``, ``scan.correlation_map``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .hilbert import BasisIndex, ModelParams


@dataclass(frozen=True)
class SparseOperator:
    """Real symmetric operator stored as CSR with both triangles materialized.

    Duplicate coordinates are summed during assembly and explicit zeros
    dropped, so ``matrix`` holds one entry per nonzero coordinate.
    """

    matrix: sparse.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _assemble(dim: int, rows, cols, vals) -> SparseOperator:
    rows = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    cols = np.concatenate([np.asarray(c, dtype=np.int64) for c in cols])
    vals = np.concatenate([np.asarray(v, dtype=np.float64) for v in vals])
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return SparseOperator(mat)


def _diagonal(diag: np.ndarray) -> SparseOperator:
    dim = diag.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    return _assemble(dim, [idx], [idx], [diag])


def build_h_electron(params: ModelParams, basis: BasisIndex) -> SparseOperator:
    """Nearest-neighbor hopping on the open chain.

    Bond r..r+1 carries amplitude v for even r (intra-cell) and w for
    odd r (inter-cell); phonon occupations are untouched, so the matrix
    is block-tridiagonal within each phonon configuration.
    """
    idx = np.arange(basis.dim, dtype=np.int64)
    sites = basis.electron_sites
    rows, cols, vals = [], [], []
    for r in range(basis.n_sites - 1):
        amp = params.v if r % 2 == 0 else params.w
        i = idx[sites == r]
        j = i + 1
        rows += [i, j]
        cols += [j, i]
        vals += [np.full(i.size, amp), np.full(i.size, amp)]
    return _assemble(basis.dim, rows, cols, vals)


def build_h_phonon(params: ModelParams, basis: BasisIndex) -> SparseOperator:
    """Oscillator energy omega_ph * sum_f (n_f + 1/2), diagonal."""
    total = basis.occupations.sum(axis=0)
    diag = params.omega_ph * (total + basis.n_sites / 2.0)
    return _diagonal(diag)


def build_h_eph(params: ModelParams, basis: BasisIndex) -> SparseOperator:
    """Local coupling gamma * n_e,r (b_r + b_r^dagger).

    With one electron the number operator picks out the electron's site,
    so each basis state couples only to the states with one quantum more
    or less at that site, with the usual ladder elements sqrt(n+1) and
    sqrt(n).  Creation out of level L-1 is dropped (hard truncation).
    """
    idx = np.arange(basis.dim, dtype=np.int64)
    sites = basis.electron_sites
    occ_here = basis.occupations[sites, idx]
    stride = basis.phonon_stride(sites)
    up = occ_here + 1 < basis.cutoff
    i = idx[up]
    j = i + stride[up]
    amp = params.gamma * np.sqrt(occ_here[up] + 1.0)
    return _assemble(basis.dim, [i, j], [j, i], [amp, amp])


def build_hamiltonian(params: ModelParams, basis: BasisIndex) -> SparseOperator:
    """Field-free Hamiltonian: hopping + oscillator energy + local coupling."""
    # a sum of canonical CSR parts is canonical, with no explicit zeros
    h = (
        build_h_electron(params, basis).matrix
        + build_h_phonon(params, basis).matrix
        + build_h_eph(params, basis).matrix
    )
    return SparseOperator(h)


def build_position(params: ModelParams, basis: BasisIndex) -> SparseOperator:
    """Electron position d*(r - (2N-1)/2) about the chain center, diagonal."""
    center = (basis.n_sites - 1) / 2.0
    diag = params.d * (basis.electron_sites - center)
    return _diagonal(diag.astype(np.float64))

