"""Workload definitions: the seeded CLI invocations each benchmark run makes.

A run is a closed loop with one client: it starts one CLI invocation
(a *pass*), waits for it to exit, checks its outputs, and only then starts
the next.  Every workload yields an endless, seed-determined sequence of
passes; the runner takes passes until its measuring time is used up.

Couplings are drawn from the 26-point default grid over [-0.05, 0] with
stratified sampling: the grid is cut into contiguous strata and each
stratum contributes one draw in turn.  The cost of a point depends on the
coupling (ARPACK needs more restarts as gamma approaches 0), so covering
every stratum keeps the cost of a run nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GAMMA_GRID = tuple(round(-0.05 + 0.002 * i, 3) for i in range(26))

# Physics of the source paper, written out so that the workloads stay fixed
# if the program's defaults change.  Algorithm settings (dense_threshold,
# nr_override) are left to the program, so that changing them shows.
_PAPER_MODEL = {
    "v": -0.073,
    "w": -0.104,
    "gamma": -0.025,
    "omega_ph": 0.036,
    "n_cells": 3,
    "phonon_cutoff": 3,
    "d": 2.0,
}
_PAPER_LASER = {"a0": 0.183, "omega_l": 0.002, "n_cyc": 5}
_PAPER_STEPS = 2**16
_MAX_ORDER = 45.0


@dataclass(frozen=True)
class Pass:
    """One CLI invocation and what its outputs must show.

    mode       CLI mode
    config     INI text handed to the program
    gammas     couplings covered, one point each
    workers    ``--workers`` argument
    n_samples  expected time-series rows (``run`` mode), else None
    reference  compare with the recorded paper-run reference values
    """

    mode: str
    config: str
    gammas: tuple[float, ...]
    workers: int = 1
    n_samples: int | None = None
    reference: bool = False

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.mode, "--config", config_path, "--out", out_dir]
        if self.workers != 1:
            argv += ["--workers", str(self.workers)]
        return argv


def _ini(sections: dict[str, dict]) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _config(model=None, propagation=None, run=None) -> str:
    return _ini(
        {
            "model": {**_PAPER_MODEL, **(model or {})},
            "laser": dict(_PAPER_LASER),
            "propagation": {"n_steps": _PAPER_STEPS, "record_stride": 1, **(propagation or {})},
            "run": {"max_order": _MAX_ORDER, **(run or {})},
        }
    )


def _strata(n: int) -> list[tuple[float, ...]]:
    """Cut the grid into ``n`` contiguous, near-equal strata."""
    size = len(GAMMA_GRID)
    return [GAMMA_GRID[i * size // n:(i + 1) * size // n] for i in range(n)]


def _stratified(rng: random.Random, n: int) -> tuple[float, ...]:
    """One coupling per stratum, in grid order."""
    return tuple(rng.choice(s) for s in _strata(n))


def paper_run(seed: int, smoke: bool = False):
    """The paper's headline run; the seed does not change it."""
    if smoke:
        config = _config(
            model={"n_cells": 1, "phonon_cutoff": 2},
            propagation={"n_steps": 2**14},
            run={"max_order": 20.0},
        )
        steps, reference = 2**14, False
    else:
        config, steps, reference = _config(), _PAPER_STEPS, True
    p = Pass("run", config, (_PAPER_MODEL["gamma"],), n_samples=steps, reference=reference)
    while True:
        yield p


def coupling_scan(seed: int, smoke: bool = False):
    """gamma-scan over two stratified couplings per pass, two workers."""
    rng = random.Random(seed)
    n_points = 2
    while True:
        gammas = _stratified(rng, n_points)
        grid = ", ".join(repr(g) for g in gammas)
        if smoke:
            config = _config(
                model={"n_cells": 1, "phonon_cutoff": 2},
                propagation={"n_steps": 2**14, "record_stride": 64},
                run={"max_order": 20.0, "gamma_values": grid},
            )
        else:
            config = _config(
                model={"n_cells": 2, "phonon_cutoff": 4},
                propagation={"record_stride": 64},
                run={"gamma_values": grid},
            )
        yield Pass("gamma-scan", config, gammas, workers=2)


# Strata of near-equal ARPACK cost: neighbouring pairs of grid points, but
# the last two points stand alone, because the cost changes steeply there
# (about 8 s at gamma = -0.002 and 3.6 s at gamma = 0 on a 2-core machine).
_LEVEL_STRATA = tuple(GAMMA_GRID[i:i + 2] for i in range(0, 24, 2)) + tuple(
    (g,) for g in GAMMA_GRID[24:]
)
# A fixed visiting order that spreads every prefix over the whole range: a
# run covers the range evenly however many passes fit in it, and the seed
# only picks within strata.
_LEVEL_ORDER = (0, 13, 6, 12, 3, 9, 1, 11, 7, 4, 10, 2, 8, 5)


def sparse_levels(seed: int, smoke: bool = False):
    """levels invocations on the sparse (ARPACK) side of dense_threshold."""
    rng = random.Random(seed)
    while True:
        for i in _LEVEL_ORDER:
            gamma = rng.choice(_LEVEL_STRATA[i])
            if smoke:
                # dim 324 above a lowered threshold still takes the ARPACK path
                config = _config(
                    model={"n_cells": 2, "phonon_cutoff": 3, "gamma": gamma},
                    run={"dense_threshold": 100},
                )
            else:
                config = _config(model={"n_cells": 3, "phonon_cutoff": 4, "gamma": gamma})
            yield Pass("levels", config, (gamma,))


WORKLOADS = {
    "paper_run": paper_run,
    "coupling_scan": coupling_scan,
    "sparse_levels": sparse_levels,
}
