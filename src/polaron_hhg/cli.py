"""Command-line front end: config parsing, pipeline invocation, file emission.

Runs are driven by a flat INI file with sections [model], [laser],
[propagation] and [run]; every key is optional and defaults to the
reference parameter set.  Unknown sections or keys are errors.  All
artifacts land inside the chosen output directory, each starting with a
comment header that records the tool version and a hash of the fully
resolved configuration; the resolved configuration itself is echoed to
``resolved.ini`` and a ``manifest.txt`` lists the completed artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .dynamics import PropagationConfig, export_timeseries
from .hilbert import BasisIndex, ModelParams
from .pulse import LaserParams
from .scan import (
    PointFailure,
    ScanSpec,
    convergence_study,
    correlation_map,
    default_gamma_grid,
    export_convergence,
    export_heatmap,
    export_relevance,
    gamma_scan,
    run_point,
    solve_eigenbasis,
)
from .spectral import DENSE_THRESHOLD_DEFAULT, export_levels, state_relevance
from .spectrum import export_spectrum

MODES = ("levels", "run", "gamma-scan", "converge", "correlate")

_EXPORT_MAX_ORDER = 50.0


class ConfigError(ValueError):
    """Malformed, unknown or constraint-violating configuration input."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    laser: LaserParams = field(default_factory=LaserParams)
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    nr_override: int | None = None
    max_order: float = 45.0
    # largest dim at which LAPACK replaces an ARPACK result holding a
    # degenerate cluster; everywhere else ARPACK runs unless count >= dim - 1
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT
    output_dir: str = "out"
    gamma_values: tuple[float, ...] = field(default_factory=lambda: tuple(default_gamma_grid()))
    l_values: tuple[int, ...] = (1, 3, 5, 6)
    correlate_states: tuple[int, ...] | None = None  # None = ground + top-3 coupled


_SCHEMA = {
    "model": {"v", "w", "gamma", "omega_ph", "n_cells", "phonon_cutoff", "d"},
    "laser": {"a0", "omega_l", "n_cyc"},
    "propagation": {"n_steps", "record_stride"},
    "run": {
        "nr_override",
        "max_order",
        "dense_threshold",
        "output_dir",
        "gamma_values",
        "l_values",
        "correlate_states",
    },
}


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_convert(section, key, tok.strip(), float) for tok in raw.split(",") if tok.strip())


def _int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    return tuple(_convert(section, key, tok.strip(), int) for tok in raw.split(",") if tok.strip())


def parse_config(path: str | None) -> RunConfig:
    """Read and validate a config file; ``None`` gives the full default set."""
    parser = configparser.ConfigParser()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read_string(p.read_text(), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    def get(section, key, default, kind):
        if parser.has_option(section, key):
            return _convert(section, key, parser.get(section, key), kind)
        return default

    try:
        model = ModelParams(
            v=get("model", "v", -0.073, float),
            w=get("model", "w", -0.104, float),
            gamma=get("model", "gamma", -0.025, float),
            omega_ph=get("model", "omega_ph", 0.036, float),
            n_cells=get("model", "n_cells", 3, int),
            phonon_cutoff=get("model", "phonon_cutoff", 3, int),
            d=get("model", "d", 2.0, float),
        )
        laser = LaserParams(
            a0=get("laser", "a0", 0.183, float),
            omega_l=get("laser", "omega_l", 0.002, float),
            n_cyc=get("laser", "n_cyc", 5, int),
        )
        propagation = PropagationConfig(
            n_steps=get("propagation", "n_steps", 2**16, int),
            record_stride=get("propagation", "record_stride", 1, int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    nr_override = get("run", "nr_override", None, int)
    if nr_override is not None and nr_override < 1:
        raise ConfigError(f"[run] nr_override must be >= 1, got {nr_override}")
    max_order = get("run", "max_order", 45.0, float)
    if max_order < 0:
        raise ConfigError(f"[run] max_order must be >= 0, got {max_order}")
    dense_threshold = get("run", "dense_threshold", DENSE_THRESHOLD_DEFAULT, int)

    gamma_values = tuple(default_gamma_grid())
    if parser.has_option("run", "gamma_values"):
        gamma_values = _float_list("run", "gamma_values", parser.get("run", "gamma_values"))
        if not gamma_values:
            raise ConfigError("[run] gamma_values is empty")
        for g in gamma_values:
            if g > 0:
                raise ConfigError(f"[run] gamma_values: gamma must be <= 0, got {g}")

    l_values = (1, 3, 5, 6)
    if parser.has_option("run", "l_values"):
        l_values = _int_list("run", "l_values", parser.get("run", "l_values"))
        if not l_values or any(l < 1 for l in l_values):
            raise ConfigError("[run] l_values must be a list of cutoffs >= 1")

    correlate_states: tuple[int, ...] | None = None
    if parser.has_option("run", "correlate_states"):
        raw = parser.get("run", "correlate_states").strip()
        if raw and raw != "auto":
            correlate_states = _int_list("run", "correlate_states", raw)

    return RunConfig(
        model=model,
        laser=laser,
        propagation=propagation,
        nr_override=nr_override,
        max_order=max_order,
        dense_threshold=dense_threshold,
        output_dir=get("run", "output_dir", "out", str),
        gamma_values=gamma_values,
        l_values=l_values,
        correlate_states=correlate_states,
    )


def resolved_config_text(cfg: RunConfig) -> str:
    """Fully resolved configuration as INI text.

    The output directory is deliberately omitted: it names the
    destination, not the computation, and keeping it out makes files
    from identical runs byte-identical wherever they land.
    """
    m, laser, prop = cfg.model, cfg.laser, cfg.propagation
    lines = [
        "[model]",
        f"v = {m.v!r}",
        f"w = {m.w!r}",
        f"gamma = {m.gamma!r}",
        f"omega_ph = {m.omega_ph!r}",
        f"n_cells = {m.n_cells}",
        f"phonon_cutoff = {m.phonon_cutoff}",
        f"d = {m.d!r}",
        "",
        "[laser]",
        f"a0 = {laser.a0!r}",
        f"omega_l = {laser.omega_l!r}",
        f"n_cyc = {laser.n_cyc}",
        "",
        "[propagation]",
        f"n_steps = {prop.n_steps}",
        f"record_stride = {prop.record_stride}",
        "",
        "[run]",
        f"nr_override = {'' if cfg.nr_override is None else cfg.nr_override}",
        f"max_order = {cfg.max_order!r}",
        f"dense_threshold = {cfg.dense_threshold}",
        f"gamma_values = {', '.join(repr(g) for g in cfg.gamma_values)}",
        f"l_values = {', '.join(str(l) for l in cfg.l_values)}",
        f"correlate_states = {'auto' if cfg.correlate_states is None else ', '.join(str(s) for s in cfg.correlate_states)}",
        "",
    ]
    return "\n".join(lines)


def _header(cfg_hash: str, mode: str) -> list[str]:
    return [f"polaron-hhg {__version__}", f"config {cfg_hash}", f"mode {mode}"]


def _auto_correlate_states(eig, omega_l: float) -> list[int]:
    """Ground state plus the three excited states coupling hardest to it."""
    rel = state_relevance(eig, omega_l)
    excited = [(rel[m, 1], m) for m in range(1, eig.nr)]
    excited.sort(reverse=True)
    return [0] + sorted(m for _, m in excited[:3])


def _mode_levels(cfg, outdir, cfg_hash, manifest, workers):
    eig = solve_eigenbasis(
        cfg.model, cfg.laser.omega_l, cfg.max_order, cfg.nr_override, cfg.dense_threshold
    )
    with open(outdir / "levels.txt", "w") as fh:
        export_levels(
            eig.energies,
            state_relevance(eig, cfg.laser.omega_l),
            fh,
            _header(cfg_hash, "levels"),
        )
    manifest.append("levels.txt")
    return 0


def _mode_run(cfg, outdir, cfg_hash, manifest, workers):
    result = run_point(
        cfg.model,
        cfg.laser,
        cfg.propagation,
        cfg.max_order,
        cfg.nr_override,
        cfg.dense_threshold,
    )
    header = _header(cfg_hash, "run")
    with open(outdir / "levels.txt", "w") as fh:
        export_levels(result.summary.energies, result.summary.relevance, fh, header)
    manifest.append("levels.txt")
    with open(outdir / "timeseries.txt", "w") as fh:
        export_timeseries(result.timeseries, cfg.laser, fh, header)
    manifest.append("timeseries.txt")
    with open(outdir / "spectrum.txt", "w") as fh:
        export_spectrum(result.spectrum, fh, header, max_order=_EXPORT_MAX_ORDER)
    manifest.append("spectrum.txt")
    return 0


def _mode_gamma_scan(cfg, outdir, cfg_hash, manifest, workers):
    spec = ScanSpec(
        model=cfg.model,
        laser=cfg.laser,
        propagation=cfg.propagation,
        gamma_values=cfg.gamma_values,
        l_values=cfg.l_values,
        max_order=cfg.max_order,
        nr_override=cfg.nr_override,
        dense_threshold=cfg.dense_threshold,
    )
    results = gamma_scan(spec, workers=workers)
    header = _header(cfg_hash, "gamma-scan")
    with open(outdir / "heatmap.txt", "w") as fh:
        export_heatmap(results, spec.gamma_values, fh, header, _EXPORT_MAX_ORDER)
    manifest.append("heatmap.txt")
    with open(outdir / "relevance.txt", "w") as fh:
        export_relevance(results, spec.gamma_values, fh, header, _EXPORT_MAX_ORDER)
    manifest.append("relevance.txt")
    failures = [r for r in results if isinstance(r, PointFailure)]
    if failures:
        with open(outdir / "failures.txt", "w") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            for f in failures:
                fh.write(f"{f.label}\t{f.message}\n")
        manifest.append("failures.txt")
        for f in failures:
            print(f"gamma-scan point failed: {f.label}: {f.message}", file=sys.stderr)
        return 1
    return 0


def _mode_converge(cfg, outdir, cfg_hash, manifest, workers):
    report = convergence_study(
        cfg.l_values,
        cfg.model,
        cfg.laser,
        cfg.propagation,
        cfg.max_order,
        cfg.nr_override,
        cfg.dense_threshold,
    )
    header = _header(cfg_hash, "converge")
    with open(outdir / "convergence.txt", "w") as fh:
        export_convergence(report, fh, header)
    manifest.append("convergence.txt")
    failed = False
    for l, point in zip(report.l_values, report.points):
        if isinstance(point, PointFailure):
            print(f"converge point failed: {point.label}: {point.message}", file=sys.stderr)
            failed = True
            continue
        name = f"spectrum_L{l}.txt"
        with open(outdir / name, "w") as fh:
            export_spectrum(point.spectrum, fh, header + [f"L {l}"], _EXPORT_MAX_ORDER)
        manifest.append(name)
    return 1 if failed else 0


def _mode_correlate(cfg, outdir, cfg_hash, manifest, workers):
    basis = BasisIndex(cfg.model)
    eig = solve_eigenbasis(
        cfg.model, cfg.laser.omega_l, cfg.max_order, cfg.nr_override, cfg.dense_threshold
    )
    states = (
        list(cfg.correlate_states)
        if cfg.correlate_states is not None
        else _auto_correlate_states(eig, cfg.laser.omega_l)
    )
    header = _header(cfg_hash, "correlate")
    for m in states:
        grid = correlation_map(eig, basis, m)
        name = f"correlation_state{m}.txt"
        with open(outdir / name, "w") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            fh.write(f"# state {m}, energy {eig.energies[m]:.15g}\n")
            fh.write("# rows: phonon site f; columns: electron site r\n")
            for f in range(grid.shape[0]):
                fh.write("\t".join(f"{x:.15g}" for x in grid[f]) + "\n")
        manifest.append(name)
    return 0


_MODE_FUNCS = {
    "levels": _mode_levels,
    "run": _mode_run,
    "gamma-scan": _mode_gamma_scan,
    "converge": _mode_converge,
    "correlate": _mode_correlate,
}


def _write_manifest(outdir: Path, manifest: list[str]) -> None:
    with open(outdir / "manifest.txt", "w") as fh:
        for name in manifest:
            fh.write(name + "\n")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="polaron-hhg",
        description="High-harmonic spectra of a dimerized chain with local "
        "electron-phonon coupling",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", default=None, help="INI config file (defaults apply if omitted)")
    parser.add_argument("--out", default=None, help="output directory (overrides [run] output_dir)")
    parser.add_argument("--workers", type=int, default=1, help="scan worker processes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.workers < 1:
        print("workers must be >= 1", file=sys.stderr)
        return 2

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = resolved_config_text(cfg)
    cfg_hash = hashlib.sha256(resolved.encode()).hexdigest()[:12]
    (outdir / "resolved.ini").write_text(resolved)
    manifest = ["resolved.ini"]

    try:
        status = _MODE_FUNCS[args.mode](cfg, outdir, cfg_hash, manifest, args.workers)
    except Exception as exc:
        _write_manifest(outdir, manifest)
        print(f"{args.mode} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_manifest(outdir, manifest)
    return status


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
