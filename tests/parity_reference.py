"""Reference chain-inversion parity sectors built as projections.

The pipeline slices each sector's H out of H at index arrays; the tests
build the (dim/2, dim) isometry P of each sector explicitly, to check the
slices and the lift against P H P^T and P^T E.
"""

import numpy as np
import scipy.sparse

from polaron_hhg.hilbert import BasisIndex


def parity_projection(basis: BasisIndex, sector: int) -> scipy.sparse.csr_matrix:
    """P of the even (0) or odd (1) sector: row k is (e_i +- e_Pi(i)) / sqrt(2)
    for the k-th basis state i < Pi(i) in ascending order."""
    reps = np.flatnonzero(np.arange(basis.dim) < basis.inversion)
    cols = np.column_stack([reps, basis.inversion[reps]]).ravel()
    amp = np.sqrt(0.5) * np.array([1.0, (1.0, -1.0)[sector]])
    return scipy.sparse.csr_matrix(
        (np.tile(amp, reps.size), cols, np.arange(0, cols.size + 1, 2)),
        shape=(reps.size, basis.dim),
    )
