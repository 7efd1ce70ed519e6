"""Composite electron ⊗ truncated-phonon Hilbert space: enumeration and indexing.

One electron lives on a chain of 2N sites (N two-site cells, flattened
A1=0, B1=1, A2=2, ..., B_N=2N-1).  Each site carries a local oscillator
truncated to L levels, so a basis state is a tuple of 2N occupations in
[0, L-1] plus the electron site.  States are indexed by a mixed-radix
code with the electron site as the fastest digit and the occupation of
site 0 as the most significant digit.  That makes electron-hopping
blocks contiguous and keeps every phonon-diagonal operator diagonal in
contiguous runs.

Chain inversion maps site r to 2N-1-r and carries each oscillator along
with its site.  It commutes with the Hamiltonian and flips the position,
and since 2N is even it fixes no basis state: the space splits into an
even and an odd half of exactly dim/2 states each.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest dimension representable as a signed 64-bit index.
_MAX_DIM = 2**63 - 1


class DimensionOverflowError(OverflowError):
    """Composite dimension exceeds the supported 64-bit index range."""


class InvalidStateError(ValueError):
    """Occupation or electron site outside the truncated space."""


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings and lattice geometry, all in atomic units (hbar = 1).

    v, w        intra-cell / inter-cell hopping energies (finite, <= 0)
    gamma       local electron-phonon coupling (finite, <= 0; 0 decouples
                the phonons)
    omega_ph    oscillator quantum (finite, > 0)
    n_cells     number of two-site cells N (integer, >= 1)
    phonon_cutoff   oscillator levels kept per site, L (integer, >= 1)
    d           average ion spacing (finite, > 0)
    """

    v: float = -0.073
    w: float = -0.104
    gamma: float = -0.025
    omega_ph: float = 0.036
    n_cells: int = 3
    phonon_cutoff: int = 3
    d: float = 2.0

    def __post_init__(self):
        # each test is false for nan, and a bound excludes inf
        for name in ("v", "w", "gamma"):
            if not -np.inf < getattr(self, name) <= 0:
                raise ValueError(f"{name} must be finite and <= 0, got {getattr(self, name)}")
        for name in ("omega_ph", "d"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("n_cells", "phonon_cutoff"):
            if not is_integer(getattr(self, name)) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")

    def n_sites(self) -> int:
        return 2 * self.n_cells


def is_integer(value) -> bool:
    """True for an integer (numpy's included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class BasisState:
    """One basis element: per-site phonon occupations plus the electron site."""

    phonon_occ: tuple[int, ...]
    electron_site: int


def total_dim(params: ModelParams) -> int:
    """Dimension of the composite space, 2N * L**(2N).

    Computed in exact integer arithmetic; combinations that do not fit a
    64-bit index are rejected rather than wrapped.
    """
    ns = params.n_sites()
    dim = ns * params.phonon_cutoff**ns
    if dim > _MAX_DIM:
        raise DimensionOverflowError(
            f"dimension {dim} exceeds the 64-bit index range "
            f"(n_cells={params.n_cells}, phonon_cutoff={params.phonon_cutoff})"
        )
    return dim


class BasisIndex:
    """Bijection between :class:`BasisState` and dense indices [0, dim).

    encode/decode use pure integer arithmetic.  The vectorized site and
    occupation tables used by operator assembly are built lazily and
    cached; the object is immutable afterwards and safe to share.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.n_sites = params.n_sites()
        self.cutoff = params.phonon_cutoff
        self.dim = total_dim(params)

    def phonon_stride(self, site: int | np.ndarray) -> int | np.ndarray:
        """Index stride of one occupation quantum at the given site(s)."""
        return self.n_sites * self.cutoff ** (self.n_sites - 1 - site)

    def encode(self, state: BasisState) -> int:
        if len(state.phonon_occ) != self.n_sites:
            raise InvalidStateError(
                f"expected {self.n_sites} occupations, got {len(state.phonon_occ)}"
            )
        if not 0 <= state.electron_site < self.n_sites:
            raise InvalidStateError(
                f"electron site {state.electron_site} outside [0, {self.n_sites})"
            )
        code = 0
        for n_f in state.phonon_occ:
            if not 0 <= n_f < self.cutoff:
                raise InvalidStateError(
                    f"occupation {n_f} outside [0, {self.cutoff})"
                )
            code = code * self.cutoff + n_f
        return code * self.n_sites + state.electron_site

    def decode(self, index: int) -> BasisState:
        if not 0 <= index < self.dim:
            raise InvalidStateError(f"index {index} outside [0, {self.dim})")
        code, site = divmod(index, self.n_sites)
        occ = [0] * self.n_sites
        for f in range(self.n_sites - 1, -1, -1):
            code, occ[f] = divmod(code, self.cutoff)
        return BasisState(phonon_occ=tuple(occ), electron_site=site)

    @cached_property
    def electron_sites(self) -> np.ndarray:
        """Electron site of every index, shape (dim,)."""
        sites = np.arange(self.dim, dtype=np.int64) % self.n_sites
        sites.flags.writeable = False
        return sites

    @cached_property
    def occupations(self) -> np.ndarray:
        """Phonon occupations of every index, shape (n_sites, dim)."""
        code = np.arange(self.dim, dtype=np.int64) // self.n_sites
        occ = np.empty((self.n_sites, self.dim), dtype=np.int64)
        for f in range(self.n_sites - 1, -1, -1):
            occ[f] = code % self.cutoff
            code //= self.cutoff
        occ.flags.writeable = False
        return occ

    @cached_property
    def inversion(self) -> np.ndarray:
        """Index of the chain-inverted state, shape (dim,).

        Inversion puts the electron on site 2N-1-r and reverses the
        occupation tuple.  The map is an involution without fixed points.
        """
        # the reversed tuple makes occupation f the digit of weight L**f
        weights = self.cutoff ** np.arange(self.n_sites, dtype=np.int64)
        code = weights @ self.occupations
        inv = code * self.n_sites + (self.n_sites - 1 - self.electron_sites)
        inv.flags.writeable = False
        return inv
