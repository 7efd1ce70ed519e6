"""Output checks, run after each pass and outside its timed region.

A check returns the number of failed points and a list of problems.  A
problem that concerns the whole invocation (bad exit code, missing
artifact) fails every point of the pass; a problem in one heatmap block
fails that coupling only.

Tolerances are fixed from float64 precision (eps = 2.2e-16), not fitted to
observed differences:

- NORM_TOL: the norm column must stay within 1e-6 of 1, the program's own
  acceptance tolerance for RK4 norm drift.
- ENERGY_ATOL: LAPACK's backward error for one eigenvalue is about
  dim * eps * ||H||; with dim = 4374 and ||H|| < 0.5 that is 2e-13, so
  1e-12 leaves a factor of 5.
- YIELD_ATOL: rounding in the amplitudes accumulates over at most
  n_steps = 65536 RK4 steps, about 65536 * eps = 1.5e-11 relative, and the
  yield is a power, which doubles it to 3e-11 of the fundamental's power.
  The yield is compared on the linear scale (10**Y_N, 1 at the fundamental),
  where deep minima cannot magnify harmless differences as the log does.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

NORM_TOL = 1e-6
ENERGY_ATOL = 1e-12
YIELD_ATOL = 1e-10
REFERENCE_WINDOW = (2.0, 40.0)
SPECTRUM_MAX_ORDER = 50.0
_GAMMA_TOL = 1e-12

EXPECTED_ARTIFACTS = {
    "levels": ("resolved.ini", "levels.txt"),
    "run": ("resolved.ini", "levels.txt", "timeseries.txt", "spectrum.txt"),
    "gamma-scan": ("resolved.ini", "heatmap.txt", "relevance.txt"),
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _rows(path: Path):
    """Tab-separated data rows of a CLI artifact, comment lines skipped."""
    with open(path) as fh:
        for line in fh:
            if line and not line.startswith("#"):
                yield line.rstrip("\n").split("\t")


def read_levels(path: Path) -> list[float]:
    return [float(r[1]) for r in _rows(path)]


def read_spectrum(path: Path) -> tuple[list[float], list[float]]:
    orders, yields = [], []
    for r in _rows(path):
        orders.append(float(r[0]))
        yields.append(float(r[1]))
    return orders, yields


def read_heatmap(path: Path) -> list[tuple[float, list[float], list[float]]]:
    """Blocks of consecutive rows sharing a coupling: (gamma, orders, yields)."""
    blocks: list[tuple[float, list[float], list[float]]] = []
    for r in _rows(path):
        g = float(r[0])
        if not blocks or blocks[-1][0] != g:
            blocks.append((g, [], []))
        blocks[-1][1].append(float(r[1]))
        blocks[-1][2].append(float(r[2]))
    return blocks


def check_manifest(out_dir: Path, mode: str) -> list[str]:
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt missing"]
    listed = [n for n in manifest.read_text().split("\n") if n]
    problems = [f"{n} not in manifest" for n in EXPECTED_ARTIFACTS[mode] if n not in listed]
    for name in listed:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} listed in manifest but missing or empty")
    return problems


def check_levels(path: Path) -> list[str]:
    energies = read_levels(path)
    if not energies:
        return [f"{path.name}: no levels"]
    if not all(math.isfinite(e) for e in energies):
        return [f"{path.name}: non-finite energy"]
    bad = [i for i in range(1, len(energies)) if energies[i] < energies[i - 1]]
    return [f"{path.name}: levels not ascending at index {bad[0]}"] if bad else []


def check_timeseries(path: Path, n_samples: int) -> list[str]:
    count, worst = 0, 0.0
    for r in _rows(path):
        count += 1
        worst = max(worst, abs(float(r[3]) - 1.0))
    problems = []
    if count != n_samples:
        problems.append(f"{path.name}: {count} samples, expected {n_samples}")
    if not worst <= NORM_TOL:
        problems.append(f"{path.name}: norm off 1 by {worst:.3e} > {NORM_TOL:g}")
    return problems


def check_yield(label: str, orders: list[float], yields: list[float]) -> list[str]:
    """Y_N is exactly 0 at the fundamental and finite up to order 50."""
    if not orders:
        return [f"{label}: empty spectrum"]
    problems = []
    fund = min(range(len(orders)), key=lambda i: abs(orders[i] - 1.0))
    if yields[fund] != 0.0:
        problems.append(f"{label}: Y_N = {yields[fund]!r} at the fundamental")
    step = orders[1] - orders[0] if len(orders) > 1 else 1.0
    if orders[-1] < SPECTRUM_MAX_ORDER - step:
        problems.append(f"{label}: spectrum stops at order {orders[-1]:g}")
    if not all(math.isfinite(y) for y in yields):
        problems.append(f"{label}: non-finite Y_N below order {SPECTRUM_MAX_ORDER:g}")
    return problems


def check_heatmap(path: Path, gammas) -> tuple[set[int], list[str]]:
    """One block per scan coupling; returns the failed point indices."""
    blocks = read_heatmap(path)
    failed: set[int] = set()
    problems = []
    for i, g in enumerate(gammas):
        found = [b for b in blocks if abs(b[0] - g) <= _GAMMA_TOL]
        if len(found) != 1:
            failed.add(i)
            problems.append(f"heatmap: {len(found)} blocks for gamma={g!r}")
            continue
        p = check_yield(f"heatmap gamma={g!r}", found[0][1], found[0][2])
        if p:
            failed.add(i)
            problems += p
    if len(blocks) != len(gammas):
        problems.append(f"heatmap: {len(blocks)} blocks for {len(gammas)} couplings")
        failed.update(range(len(gammas)))
    return failed, problems


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def reference_from_outputs(out_dir: Path) -> dict:
    """Reference values of a paper run: ground energy and Y_N over the window."""
    orders, yields = read_spectrum(out_dir / "spectrum.txt")
    lo, hi = REFERENCE_WINDOW
    sel = [i for i, o in enumerate(orders) if lo <= o <= hi]
    return {
        "ground_energy": read_levels(out_dir / "levels.txt")[0],
        "orders": [orders[i] for i in sel],
        "yield_norm_log10": [yields[i] for i in sel],
    }


def check_reference(out_dir: Path, reference: dict) -> list[str]:
    got = reference_from_outputs(out_dir)
    problems = []
    de = abs(got["ground_energy"] - reference["ground_energy"])
    if not de <= ENERGY_ATOL:
        problems.append(f"ground energy off the reference by {de:.3e} > {ENERGY_ATOL:g}")
    if len(got["orders"]) != len(reference["orders"]) or any(
        abs(a - b) > 1e-9 for a, b in zip(got["orders"], reference["orders"])
    ):
        return problems + ["spectrum orders differ from the reference grid"]
    worst, at = 0.0, None
    for o, y, y_ref in zip(got["orders"], got["yield_norm_log10"], reference["yield_norm_log10"]):
        lin, lin_ref = 10.0**y, 10.0**y_ref
        err = abs(lin - lin_ref) / max(1.0, abs(lin_ref))
        if not err <= worst:
            worst, at = err, o
    if not worst <= YIELD_ATOL:
        problems.append(f"linear yield off the reference by {worst:.3e} at order {at:g}")
    return problems


def check_pass(p, out_dir: Path, returncode: int, reference: dict | None = None):
    """Check one pass's outputs; returns (failed_points, problems)."""
    problems = check_manifest(out_dir, p.mode)  # each fails the whole pass
    point_problems: list[str] = []  # each fails the couplings in ``failed``
    failed: set[int] = set()
    if p.mode == "levels":
        if (out_dir / "levels.txt").is_file():
            problems += check_levels(out_dir / "levels.txt")
    elif p.mode == "run":
        if all((out_dir / n).is_file() for n in EXPECTED_ARTIFACTS["run"]):
            problems += check_levels(out_dir / "levels.txt")
            problems += check_timeseries(out_dir / "timeseries.txt", p.n_samples)
            problems += check_yield("spectrum.txt", *read_spectrum(out_dir / "spectrum.txt"))
            if p.reference:
                problems += check_reference(out_dir, reference or load_reference())
    elif p.mode == "gamma-scan":
        failures = out_dir / "failures.txt"
        if failures.is_file():
            for r in _rows(failures):
                g = float(r[0].split("=", 1)[1])
                failed.update(i for i, x in enumerate(p.gammas) if abs(x - g) <= _GAMMA_TOL)
                point_problems.append(f"failures.txt: {' '.join(r)}")
        if (out_dir / "heatmap.txt").is_file():
            f, pr = check_heatmap(out_dir / "heatmap.txt", p.gammas)
            failed |= f
            point_problems += pr
    else:
        raise ValueError(f"no output check for mode {p.mode!r}")
    # A non-zero exit is pinned to the couplings in failures.txt when it names
    # any; otherwise it fails the whole pass.
    if returncode != 0 and not failed:
        problems.append(f"exit code {returncode}")
    if problems:
        failed = set(range(len(p.gammas)))
    return len(failed), problems + point_problems
