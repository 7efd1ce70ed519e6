"""Basis enumeration: dimension counts, encode/decode bijection, validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_hhg.hilbert import (
    BasisIndex,
    BasisState,
    DimensionOverflowError,
    InvalidStateError,
    ModelParams,
    total_dim,
)


def _params(n_cells, cutoff):
    return ModelParams(n_cells=n_cells, phonon_cutoff=cutoff)


@pytest.mark.parametrize(
    "n_cells,cutoff,expected",
    [(3, 1, 6), (3, 3, 4374), (3, 5, 93750), (1, 1, 2)],
)
def test_total_dim_counts(n_cells, cutoff, expected):
    assert total_dim(_params(n_cells, cutoff)) == expected


def test_total_dim_monotone_in_cutoff():
    for n in (1, 2, 3):
        dims = [total_dim(_params(n, l)) for l in range(1, 6)]
        assert all(a < b for a, b in zip(dims, dims[1:]))


def test_total_dim_overflow():
    with pytest.raises(DimensionOverflowError):
        total_dim(_params(20, 10))


def test_encode_examples():
    basis = BasisIndex(_params(1, 2))
    assert basis.encode(BasisState((0, 0), 0)) == 0
    assert basis.encode(BasisState((0, 0), 1)) == 1
    assert basis.encode(BasisState((1, 1), 1)) == 7


def test_decode_examples():
    basis = BasisIndex(_params(1, 2))
    assert basis.decode(0) == BasisState((0, 0), 0)
    assert basis.decode(7) == BasisState((1, 1), 1)


@pytest.mark.parametrize("n_cells,cutoff", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_bijection_exhaustive(n_cells, cutoff):
    basis = BasisIndex(_params(n_cells, cutoff))
    # decode then encode is the identity on the full index range
    for i in range(basis.dim):
        assert basis.encode(basis.decode(i)) == i
    # every valid state maps to a distinct in-range index
    ns = 2 * n_cells
    seen = set()
    for occ in itertools.product(range(cutoff), repeat=ns):
        for r in range(ns):
            idx = basis.encode(BasisState(occ, r))
            assert 0 <= idx < basis.dim
            seen.add(idx)
    assert len(seen) == basis.dim


@given(data=st.data(), n_cells=st.integers(1, 3), cutoff=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_roundtrip_random_states(data, n_cells, cutoff):
    basis = BasisIndex(_params(n_cells, cutoff))
    ns = 2 * n_cells
    occ = tuple(
        data.draw(st.integers(0, cutoff - 1), label=f"occ{f}") for f in range(ns)
    )
    site = data.draw(st.integers(0, ns - 1), label="site")
    state = BasisState(occ, site)
    assert basis.decode(basis.encode(state)) == state


def test_encode_rejects_invalid():
    basis = BasisIndex(_params(1, 2))
    with pytest.raises(InvalidStateError):
        basis.encode(BasisState((2, 0), 0))  # occupation at cutoff
    with pytest.raises(InvalidStateError):
        basis.encode(BasisState((0, 0), 2))  # site out of range
    with pytest.raises(InvalidStateError):
        basis.encode(BasisState((0, 0, 0), 0))  # wrong occupation count
    with pytest.raises(InvalidStateError):
        basis.encode(BasisState((-1, 0), 0))


def test_decode_rejects_out_of_range():
    basis = BasisIndex(_params(1, 2))
    for bad in (-1, 8, 100):
        with pytest.raises(InvalidStateError):
            basis.decode(bad)


def test_site_tables_match_decode():
    basis = BasisIndex(_params(2, 3))
    for i in range(0, basis.dim, 7):
        state = basis.decode(i)
        assert basis.electron_sites[i] == state.electron_site
        assert tuple(basis.occupations[:, i]) == state.phonon_occ


def test_phonon_stride_matches_index_shift():
    basis = BasisIndex(_params(2, 3))
    state = BasisState((1, 0, 2, 1), 3)
    i = basis.encode(state)
    for f in range(4):
        occ = list(state.phonon_occ)
        if occ[f] + 1 < basis.cutoff:
            occ[f] += 1
            j = basis.encode(BasisState(tuple(occ), state.electron_site))
            assert j - i == basis.phonon_stride(f)


def test_params_n_sites_and_dim_methods():
    p = _params(3, 3)
    assert p.n_sites() == 6
    assert total_dim(p) == 4374


@pytest.mark.parametrize(
    "kwargs",
    [
        {"v": 0.1},
        {"w": 0.2},
        {"gamma": 0.01},
        {"omega_ph": 0.0},
        {"omega_ph": -1.0},
        {"n_cells": 0},
        {"phonon_cutoff": 0},
        {"d": 0.0},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_zero_couplings_allowed():
    # gamma = 0 decouples the phonons; v = w = 0 is the pinned-electron limit
    ModelParams(gamma=0.0)
    ModelParams(v=0.0, w=0.0)


@pytest.mark.parametrize("n_cells,cutoff", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_inversion_is_a_fixed_point_free_involution(n_cells, cutoff):
    basis = BasisIndex(_params(n_cells, cutoff))
    inv = basis.inversion
    idx = np.arange(basis.dim)
    assert np.array_equal(np.sort(inv), idx)  # a permutation
    assert np.array_equal(inv[inv], idx)
    assert not np.any(inv == idx)
    # so the representatives i < inv[i] are exactly half the space
    assert 2 * np.count_nonzero(idx < inv) == basis.dim


@pytest.mark.parametrize("n_cells,cutoff", [(1, 2), (2, 3), (3, 2)])
def test_inversion_mirrors_site_and_reverses_occupations(n_cells, cutoff):
    basis = BasisIndex(_params(n_cells, cutoff))
    ns = basis.n_sites
    for i in range(0, basis.dim, 5):
        state = basis.decode(i)
        image = basis.decode(int(basis.inversion[i]))
        assert image.electron_site == ns - 1 - state.electron_site
        assert image.phonon_occ == state.phonon_occ[::-1]
