"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy reference runs are shared session fixtures (see conftest).
Criteria are asserted at their stated tolerances; the printed line
carries the measured numbers either way.
"""

import numpy as np
import pytest
import scipy.stats

import polaron_hhg as ph
from phononless_reference import reference_yield_norm
from polaron_hhg.scan import spectral_distance

OMEGA_L = 0.002


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _band(spectrum, lo, hi, stat):
    sel = (spectrum.orders >= lo) & (spectrum.orders <= hi)
    return stat(spectrum.yield_norm[sel])


def test_criterion_01_dimension_formula():
    got = [
        ph.total_dim(ph.ModelParams(n_cells=3, phonon_cutoff=l)) for l in (1, 3, 5)
    ]
    ok = got == [6, 4374, 93750]
    _report(1, ok, f"dims for L=1,3,5: {got}")
    assert ok


def test_criterion_02_phononless_equivalence(run_l1_nr6):
    orders, y_ref = reference_yield_norm()
    spec = run_l1_nr6.spectrum
    assert np.abs(spec.orders - orders).max() <= 1e-9
    window = orders <= 40.0
    linear = np.abs(10.0 ** spec.yield_norm[window] - 10.0 ** y_ref[window])
    # log10 amplifies an absolute rounding error d in the power to
    # d / (P ln 10), so the log-scale bound only holds where the yield is
    # well above the rounding floor of the normalized spectrum
    strong = window & (y_ref >= -6.0)
    diff = np.abs(spec.yield_norm[strong] - y_ref[strong])
    ok = linear.max() <= 1e-11 and diff.max() <= 1e-8
    _report(
        2,
        ok,
        f"max linear-scale deviation over [0,40] = {linear.max():.3e} (tolerance 1e-11); "
        f"max|dY_N| on {strong.sum()} bins with Y_N >= -6 = {diff.max():.3e} (tolerance 1e-8)",
    )
    assert ok, (
        f"linear normalized spectra differ by {linear.max():.3e}; "
        f"log-yield deviation on strong bins {diff.max():.3e}"
    )


def test_criterion_03_polaron_binding(gs_energy_by_cutoff):
    table = gs_energy_by_cutoff
    binding = table[3] < table[1]
    seq = [table[l] for l in (1, 2, 3, 4, 5)]
    monotone = all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
    ok = binding and monotone
    _report(3, ok, "eps_gs(L=1..5) = " + ", ".join(f"{e:.8f}" for e in seq))
    assert ok


def test_criterion_04_atomic_limit_oracle():
    model = ph.ModelParams(
        v=0.0, w=0.0, gamma=-0.025, omega_ph=0.036, n_cells=1, phonon_cutoff=12
    )
    basis = ph.BasisIndex(model)
    eig = ph.eigensolve_lowest(ph.build_hamiltonian(model, basis), 1)
    exact = 0.036 - 0.025**2 / 0.036  # zero point minus the displaced-well shift
    err = abs(eig.energies[0] - exact)
    ok = err <= 1e-6
    _report(4, ok, f"|eps_gs - (zero point - gamma^2/omega)| = {err:.3e} at L=12")
    assert ok


def test_criterion_05_first_excited_location(run_l1):
    energies = run_l1.energies
    order = ph.harmonic_order(energies[1], energies[0], OMEGA_L)
    ok = 18.0 <= order <= 22.0
    _report(5, ok, f"harmonic_order(eps_1) = {order:.4f}, required within [18, 22]")
    assert ok, f"first excited state sits at order {order:.4f}, outside [18, 22]"


def test_criterion_06_phonon_enhancement(run_l1, run_l3):
    band1 = _band(run_l1.spectrum, 11.0, 15.0, np.mean)
    band3 = _band(run_l3.spectrum, 11.0, 15.0, np.mean)
    gain = band3 - band1
    ok = gain >= 1.5
    _report(
        6, ok, f"mean Y_N over [11,15]: L=3 {band3:.2f} vs L=1 {band1:.2f} -> +{gain:.2f} decades"
    )
    assert ok


def test_criterion_07_cutoff_convergence(run_l1, run_l3, run_l5, run_l6):
    d35 = spectral_distance(run_l3.spectrum, run_l5.spectrum)
    d56 = spectral_distance(run_l5.spectrum, run_l6.spectrum)
    d13 = spectral_distance(run_l1.spectrum, run_l3.spectrum)
    converged = d35 <= 0.5
    ordered = d56 < d13
    ok = converged and ordered
    _report(
        7,
        ok,
        f"max|Y_N| diffs over [2,40]: L3-L5 = {d35:.2f} (tolerance 0.5), "
        f"L5-L6 = {d56:.2f} < L1-L3 = {d13:.2f}: {ordered}",
    )
    assert ok, (
        f"L3-L5 distance {d35:.2f} exceeds 0.5 decades "
        f"(L5-L6 = {d56:.2f}, L1-L3 = {d13:.2f})"
    )


def test_criterion_08_gamma_scan_trends(gamma_results):
    grid = ph.default_gamma_grid()
    # walk gamma downward from 0 to -0.04
    sel = [i for i in range(len(grid)) if grid[i] >= -0.04 - 1e-12]
    sel = sel[::-1]
    gammas = grid[sel]
    assert all(isinstance(gamma_results[i], ph.PointResult) for i in sel)
    low = np.array([_band(gamma_results[i].spectrum, 11.0, 15.0, np.max) for i in sel])
    high = np.array([_band(gamma_results[i].spectrum, 25.0, 35.0, np.max) for i in sel])

    # A band maximum read off the bin grid can sit up to half a bin from
    # the true peak, where the Hann window passes less power than on-bin
    # (its scalloping loss, 1.42 dB); only a step against the trend by
    # more than that counts as a violation.
    n = 2 * (gamma_results[sel[0]].spectrum.orders.shape[0] - 1)
    w = ph.hann_window(np.ones(n))
    half_bin = abs(np.sum(w * np.exp(-1j * np.pi * np.arange(n) / n))) / w.sum()
    ripple = -2.0 * np.log10(half_bin)
    low_violations = int(np.sum(np.diff(low) < -ripple))
    high_violations = int(np.sum(np.diff(high) > ripple))
    rho_low, p_low = scipy.stats.spearmanr(-gammas, low)
    rho_high, p_high = scipy.stats.spearmanr(-gammas, high)
    ok = (
        low_violations <= 1
        and high_violations <= 1
        and rho_low > 0
        and p_low < 0.05
        and rho_high < 0
        and p_high < 0.05
    )
    _report(
        8,
        ok,
        f"band peaks vs decreasing gamma: [11,15] rho={rho_low:.3f} "
        f"(violations {low_violations}), [25,35] rho={rho_high:.3f} "
        f"(violations {high_violations}); steps within {ripple:.3f} decades "
        "of scalloping ripple not counted",
    )
    assert ok


def test_criterion_09_norm_conservation_and_rk4_order(
    run_l1, run_l1_nr6, run_l3, run_l5, run_l6, gamma_results
):
    drifts = [
        abs(r.timeseries.norm_final - 1.0)
        for r in (run_l1, run_l1_nr6, run_l3, run_l5, run_l6)
    ]
    drifts += [
        abs(r.timeseries.norm_final - 1.0)
        for r in gamma_results
        if isinstance(r, ph.PointResult)
    ]
    worst = max(drifts)

    model = ph.ModelParams(n_cells=1, phonon_cutoff=1)
    laser = ph.LaserParams()
    eig = ph.solve_eigenbasis(ph.ScanSpec(model=model, laser=laser, nr_override=2))
    basis = ph.BasisIndex(model)
    finals = {
        n: ph.propagate(
            eig, basis, laser, ph.PropagationConfig(n_steps=n, record_stride=n)
        ).a_final
        for n in (2**15, 2**16, 2**17)
    }
    err_coarse = np.linalg.norm(finals[2**15] - finals[2**17])
    err_fine = np.linalg.norm(finals[2**16] - finals[2**17])
    order = float(np.log2(err_coarse / err_fine))

    ok = worst <= 1e-6 and order >= 3.8
    _report(
        9,
        ok,
        f"worst |norm-1| over {len(drifts)} propagations = {worst:.2e}; "
        f"RK4 effective order = {order:.2f}",
    )
    assert ok


def test_criterion_10_relevance_ranking(run_l3):
    rel = run_l3.relevance  # columns: order, log10 Tgs^2
    candidates = [
        m for m in range(1, run_l3.nr) if rel[m, 0] <= 40.0
    ]
    top3 = sorted(sorted(candidates, key=lambda m: rel[m, 1], reverse=True)[:3])
    ok = top3 == [1, 7, 12]
    if not ok:
        # index labels may shift under degeneracies: accept the same three
        # (order, strength) pairs within half a harmonic order
        expected = sorted((rel[m, 0], rel[m, 1]) for m in (1, 7, 12))
        got = sorted((rel[m, 0], rel[m, 1]) for m in top3)
        ok = all(
            abs(a[0] - b[0]) <= 0.5 and np.isclose(a[1], b[1], atol=1e-6)
            for a, b in zip(expected, got)
        )
    detail = ", ".join(f"m={m} (order {rel[m, 0]:.2f})" for m in top3)
    _report(10, ok, f"strongest ground-state transitions: {detail}")
    assert ok


def test_criterion_11_density_tracking(run_l3):
    ts = run_l3.timeseries
    tf = ph.LaserParams().t_final()
    central = (ts.times >= tf / 4) & (ts.times <= 3 * tf / 4)
    phonon_dev = ts.phonon_density[central] - ts.phonon_density[0]
    electron_dev = ts.electron_density[central] - ts.electron_density[0]
    r = float(np.corrcoef(phonon_dev.ravel(), electron_dev.ravel())[0, 1])
    ok = r >= 0.5
    _report(11, ok, f"Pearson(phonon shift, electron shift) = {r:.3f} over central half-pulse")
    assert ok
