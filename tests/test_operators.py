"""Operator assembly against dense Kronecker-product oracles and pinned examples."""

import numpy as np
import pytest

from polaron_hhg.hilbert import BasisIndex, BasisState, ModelParams
from polaron_hhg.operators import (
    build_h_electron,
    build_h_eph,
    build_h_phonon,
    build_hamiltonian,
    build_position,
)

V, W, GAMMA, OMEGA = -0.073, -0.104, -0.025, 0.036


def _model(n_cells, cutoff, **kw):
    kw.setdefault("v", V)
    kw.setdefault("w", W)
    kw.setdefault("gamma", GAMMA)
    kw.setdefault("omega_ph", OMEGA)
    return ModelParams(n_cells=n_cells, phonon_cutoff=cutoff, **kw)


def _chain_matrix(n_sites, v, w):
    h = np.zeros((n_sites, n_sites))
    for r in range(n_sites - 1):
        amp = v if r % 2 == 0 else w
        h[r, r + 1] = h[r + 1, r] = amp
    return h


def _kron_oracle(model):
    """Dense reference Hamiltonian built from explicit tensor products.

    The index layout (electron site fastest, site-0 occupation most
    significant) makes the full operator kron(phonon_part, electron_part).
    """
    ns = 2 * model.n_cells
    l = model.phonon_cutoff
    ident_e = np.eye(ns)
    h_e = _chain_matrix(ns, model.v, model.w)

    ladder = np.zeros((l, l))
    number = np.diag(np.arange(l, dtype=float))
    for n in range(l - 1):
        ladder[n, n + 1] = ladder[n + 1, n] = np.sqrt(n + 1.0)
    ident_ph = np.eye(l)

    def site_op(op, f):
        out = np.array([[1.0]])
        for g in range(ns):
            out = np.kron(out, op if g == f else ident_ph)
        return out

    dim_ph = l**ns
    h_ph = np.zeros((dim_ph, dim_ph))
    for f in range(ns):
        h_ph += OMEGA * (site_op(number, f) + 0.5 * site_op(ident_ph, f))

    full = np.kron(np.eye(dim_ph), h_e) + np.kron(h_ph, ident_e)
    for f in range(ns):
        proj = np.zeros((ns, ns))
        proj[f, f] = 1.0
        full += model.gamma * np.kron(site_op(ladder, f), proj)
    return full


@pytest.mark.parametrize("n_cells,cutoff", [(1, 3), (2, 2), (1, 2)])
def test_full_hamiltonian_against_kron_oracle(n_cells, cutoff):
    model = _model(n_cells, cutoff)
    basis = BasisIndex(model)
    built = build_hamiltonian(model, basis).to_dense()
    assert np.allclose(built, _kron_oracle(model), atol=1e-15)


def test_h_electron_two_site():
    model = _model(1, 1)
    h = build_h_electron(model, BasisIndex(model)).to_dense()
    assert np.array_equal(h, np.array([[0.0, V], [V, 0.0]]))
    assert np.allclose(np.linalg.eigvalsh(h), [-0.073, 0.073], atol=1e-15)


def test_h_electron_six_site_pattern():
    model = _model(3, 1)
    h = build_h_electron(model, BasisIndex(model)).to_dense()
    assert np.array_equal(h, _chain_matrix(6, V, W))


def test_h_electron_preserves_phonons():
    for n_cells, cutoff in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        model = _model(n_cells, cutoff)
        basis = BasisIndex(model)
        op = build_h_electron(model, basis)
        coo = op.matrix.tocoo()
        assert np.array_equal(basis.occupations[:, coo.row], basis.occupations[:, coo.col])


def test_h_phonon_diagonal_values():
    model = _model(3, 3)
    basis = BasisIndex(model)
    diag = build_h_phonon(model, basis).to_dense().diagonal()
    vacuum = basis.encode(BasisState((0,) * 6, 0))
    assert diag[vacuum] == pytest.approx(0.108, abs=1e-15)
    two_quanta = basis.encode(BasisState((2, 0, 0, 0, 0, 0), 0))
    assert diag[two_quanta] == pytest.approx(0.180, abs=1e-15)


def test_h_phonon_is_zero_point_identity_at_cutoff_one():
    model = _model(3, 1)
    h = build_h_phonon(model, BasisIndex(model)).to_dense()
    assert np.allclose(h, 0.108 * np.eye(6), atol=1e-15)


def test_h_eph_vanishes_at_cutoff_one():
    model = _model(3, 1)
    op = build_h_eph(model, BasisIndex(model))
    assert op.matrix.nnz == 0


def test_h_eph_ladder_elements():
    model = _model(1, 3)
    basis = BasisIndex(model)
    h = build_h_eph(model, basis).to_dense()
    i = basis.encode(BasisState((0, 0), 0))
    j = basis.encode(BasisState((1, 0), 0))
    k = basis.encode(BasisState((2, 0), 0))
    assert h[i, j] == pytest.approx(GAMMA, abs=1e-18)
    assert h[j, k] == pytest.approx(GAMMA * np.sqrt(2.0), abs=1e-18)
    # no coupling to the empty site's oscillator
    j_other = basis.encode(BasisState((0, 1), 0))
    assert h[i, j_other] == 0.0


def test_h_eph_diagonal_in_electron_site():
    model = _model(2, 2)
    basis = BasisIndex(model)
    coo = build_h_eph(model, basis).matrix.tocoo()
    assert coo.nnz > 0
    assert np.array_equal(basis.electron_sites[coo.row], basis.electron_sites[coo.col])


def test_hamiltonian_sum_and_symmetry():
    model = _model(2, 3)
    basis = BasisIndex(model)
    total = build_hamiltonian(model, basis)
    parts = (
        build_h_electron(model, basis).to_dense()
        + build_h_phonon(model, basis).to_dense()
        + build_h_eph(model, basis).to_dense()
    )
    assert np.array_equal(total.to_dense(), parts)
    assert (total.matrix - total.matrix.T).nnz == 0
    assert total.dim == basis.dim


def test_hamiltonian_two_site_eigenvalues():
    model = _model(1, 1)
    h = build_hamiltonian(model, BasisIndex(model)).to_dense()
    assert np.allclose(np.linalg.eigvalsh(h), [-0.037, 0.109], atol=1e-15)


def test_decoupled_spectrum_is_phonon_shifted_copies():
    # gamma = 0: eigenvalues are the electronic ones plus phonon multiples
    model = _model(1, 2, gamma=0.0)
    h = build_hamiltonian(model, BasisIndex(model)).to_dense()
    got = np.sort(np.linalg.eigvalsh(h))
    elec = np.linalg.eigvalsh(_chain_matrix(2, V, W)) + OMEGA  # zero point
    expected = np.sort(
        [e + OMEGA * (n0 + n1) for e in elec for n0 in (0, 1) for n1 in (0, 1)]
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_gamma_to_zero_limit_recovers_cutoff_one_spectrum():
    # at gamma = 0 the L=3 spectrum is the L=1 chain levels dressed with
    # every phonon configuration n_f in {0, 1, 2}; with omega_ph below the
    # chain gap the one-phonon replicas interleave with the chain levels,
    # so the whole spectrum is compared, not only its lowest part
    model0 = _model(2, 3, gamma=0.0)
    h = build_hamiltonian(model0, BasisIndex(model0)).to_dense()
    model1 = _model(2, 1)
    h1 = build_hamiltonian(model1, BasisIndex(model1)).to_dense()
    ns = 2 * model0.n_cells
    quanta = np.indices((3,) * ns).reshape(ns, -1).sum(axis=0)
    dressed = np.linalg.eigvalsh(h1)[:, None] + OMEGA * quanta[None, :]
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(h)), np.sort(dressed.ravel()), atol=1e-10
    )


def test_position_diagonals():
    model = _model(3, 1, d=2.0)
    x = build_position(model, BasisIndex(model)).to_dense()
    assert np.allclose(np.diag(x), [-5, -3, -1, 1, 3, 5], atol=1e-15)
    model = _model(1, 1, d=2.0)
    x = build_position(model, BasisIndex(model)).to_dense()
    assert np.allclose(np.diag(x), [-1, 1], atol=1e-15)


def test_position_traceless_per_phonon_block():
    model = _model(2, 2)
    basis = BasisIndex(model)
    diag = build_position(model, basis).to_dense().diagonal()
    ns = basis.n_sites
    for block in diag.reshape(-1, ns):
        assert abs(block.sum()) < 1e-14


def test_row_degree_bound():
    # 2 hops + diagonal + 2 ladder entries at most
    model = _model(2, 3)
    op = build_hamiltonian(model, BasisIndex(model))
    assert np.diff(op.matrix.indptr).max() <= 5


@pytest.mark.parametrize("gamma", [GAMMA, 0.0], ids=["coupled", "decoupled"])
@pytest.mark.parametrize("n_cells,cutoff", [(1, 2), (2, 3), (3, 3)])
def test_chain_inversion_is_a_symmetry(n_cells, cutoff, gamma):
    # Pi H Pi = H and Pi x Pi = -x entry by entry: the parity sectors of
    # scan.solve_eigenbasis rest on both
    model = _model(n_cells, cutoff, gamma=gamma)
    basis = BasisIndex(model)
    inv = basis.inversion
    h = build_hamiltonian(model, basis).matrix
    x = build_position(model, basis).matrix
    assert (h[inv][:, inv] != h).nnz == 0
    assert (x[inv][:, inv] != -x).nnz == 0

