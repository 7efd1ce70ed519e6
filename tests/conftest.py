"""Shared fixtures: the expensive reference runs are computed once per session,
and every test is checked to leave no ``multiprocessing`` child behind."""

import multiprocessing

import numpy as np
import pytest

import polaron_hhg as ph

# Propagation with sparse density sampling; the dipole (and hence the
# spectrum) is always recorded at full step resolution.
_SCAN_CFG = ph.PropagationConfig(n_steps=2**16, record_stride=64)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a ``multiprocessing`` child unreaped."""
    yield
    assert not multiprocessing.active_children()


@pytest.fixture(scope="session")
def paper_model():
    return ph.ModelParams()


@pytest.fixture(scope="session")
def paper_laser():
    return ph.LaserParams()


@pytest.fixture(scope="session")
def default_cfg():
    return ph.PropagationConfig()


@pytest.fixture(scope="session")
def eig3(paper_model, paper_laser):
    """Default-model eigenbasis with transition matrix attached."""
    return ph.solve_eigenbasis(ph.ScanSpec(model=paper_model, laser=paper_laser))


@pytest.fixture(scope="session")
def run_l3(paper_model, paper_laser, default_cfg):
    """Full default pipeline run (densities at every step)."""
    return ph.run_point(
        ph.ScanSpec(model=paper_model, laser=paper_laser, propagation=default_cfg)
    )


@pytest.fixture(scope="session")
def run_l1(paper_model, paper_laser, default_cfg):
    """Phononless run with the state count picked by the selection rule."""
    model = ph.ModelParams(phonon_cutoff=1)
    return ph.run_point(ph.ScanSpec(model=model, laser=paper_laser, propagation=default_cfg))


@pytest.fixture(scope="session")
def run_l1_nr6(paper_laser, default_cfg):
    """Phononless run keeping all six states."""
    model = ph.ModelParams(phonon_cutoff=1)
    return ph.run_point(
        ph.ScanSpec(model=model, laser=paper_laser, propagation=default_cfg, nr_override=6)
    )


@pytest.fixture(scope="session")
def run_l5(paper_laser):
    model = ph.ModelParams(phonon_cutoff=5)
    return ph.run_point(ph.ScanSpec(model=model, laser=paper_laser, propagation=_SCAN_CFG))


@pytest.fixture(scope="session")
def run_l6(paper_laser):
    model = ph.ModelParams(phonon_cutoff=6)
    return ph.run_point(ph.ScanSpec(model=model, laser=paper_laser, propagation=_SCAN_CFG))


@pytest.fixture(scope="session")
def gamma_results(paper_model, paper_laser):
    """Pipeline runs over the default coupling grid (26 points)."""
    spec = ph.ScanSpec(model=paper_model, laser=paper_laser, propagation=_SCAN_CFG)
    return ph.gamma_scan(spec, workers=2)


@pytest.fixture(scope="session")
def gs_energy_by_cutoff(run_l1, run_l3):
    """Ground-state energy for phonon cutoffs 1..5 at the default coupling."""
    table = {1: run_l1.eps_gs, 3: run_l3.eps_gs}
    for l in (2, 4, 5):
        eig = ph.solve_eigenbasis(ph.ScanSpec(model=ph.ModelParams(phonon_cutoff=l)))
        table[l] = float(eig.energies[0])
    return table
