"""High-harmonic generation of a dimerized chain with local electron-phonon coupling.

The pipeline: enumerate the electron ⊗ truncated-oscillator product
basis, assemble the field-free Hamiltonian and observables as sparse
operators, diagonalize for the low-lying states, propagate the driven
amplitudes through one laser pulse, and Fourier-analyze the dipole
acceleration into a normalized harmonic yield.
"""

import os

# before the first numpy import: the bundled OpenBLAS builds then start no
# thread pool at load (see the scan module docstring)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .dynamics import (
    PropagationConfig,
    PropagationDivergedError,
    TimeSeries,
    propagate,
)
from .hilbert import (
    BasisIndex,
    BasisState,
    DimensionOverflowError,
    InvalidStateError,
    ModelParams,
    total_dim,
)
from .operators import (
    SparseOperator,
    build_h_electron,
    build_h_eph,
    build_h_phonon,
    build_hamiltonian,
    build_position,
)
from .pulse import LaserParams, electric_field, vector_potential
from .scan import (
    ConvergenceReport,
    PointFailure,
    PointResult,
    ScanSpec,
    convergence_study,
    correlation_map,
    default_gamma_grid,
    gamma_scan,
    run_point,
    solve_eigenbasis,
)
from .spectral import (
    EigenBasis,
    EigensolveError,
    eigensolve_lowest,
    harmonic_order,
    select_nr,
    state_relevance,
    transition_matrix,
    with_transition,
)
from .spectrum import SpectrumResult, acceleration, hann_window, yield_spectrum

__all__ = [
    "__version__",
    "BasisIndex",
    "BasisState",
    "ConvergenceReport",
    "DimensionOverflowError",
    "EigenBasis",
    "EigensolveError",
    "InvalidStateError",
    "LaserParams",
    "ModelParams",
    "PointFailure",
    "PointResult",
    "PropagationConfig",
    "PropagationDivergedError",
    "ScanSpec",
    "SparseOperator",
    "SpectrumResult",
    "TimeSeries",
    "acceleration",
    "build_h_electron",
    "build_h_eph",
    "build_h_phonon",
    "build_hamiltonian",
    "build_position",
    "convergence_study",
    "correlation_map",
    "default_gamma_grid",
    "eigensolve_lowest",
    "electric_field",
    "gamma_scan",
    "hann_window",
    "harmonic_order",
    "propagate",
    "run_point",
    "select_nr",
    "solve_eigenbasis",
    "state_relevance",
    "total_dim",
    "transition_matrix",
    "vector_potential",
    "with_transition",
    "yield_spectrum",
]
