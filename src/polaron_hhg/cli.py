"""Command-line front end: config parsing, pipeline invocation, file emission.

Runs are driven by a flat INI file with sections [model], [laser],
[propagation] and [run].  Each key is a field of a settings dataclass:
[model], [laser] and [propagation] hold the fields of ``ModelParams``,
``LaserParams`` and ``PropagationConfig``, and [run] the other fields of
``RunConfig``.  Every key is optional and defaults to the field's default,
the reference parameter set.  Unknown sections or keys are errors.  All
artifacts land inside the chosen output directory, each starting with a
comment header that records the tool version and a hash of the fully
resolved configuration; the resolved configuration itself is echoed to
``resolved.ini``, which can be passed back as ``--config`` to repeat the
run, and a ``manifest.txt`` lists the completed artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import typing
from dataclasses import dataclass, field, fields, replace
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
    export_convergence,
    export_heatmap,
    export_relevance,
    gamma_scan,
    run_point,
    solve_eigenbasis,
)
from .spectral import export_levels, state_relevance
from .spectrum import export_spectrum

MODES = ("levels", "run", "gamma-scan", "converge", "correlate")

_EXPORT_MAX_ORDER = 50.0


class ConfigError(ValueError):
    """Malformed, unknown or constraint-violating configuration input."""


@dataclass(frozen=True)
class RunConfig(ScanSpec):
    """A :class:`ScanSpec` plus the settings only the CLI reads."""

    output_dir: str = "out"
    # None = ground + top-3 coupled, written and read as "auto"
    correlate_states: tuple[int, ...] | None = field(default=None, metadata={"none": "auto"})


# INI section -> the dataclass whose fields are its keys; the first three
# are also the names of RunConfig's fields, and [run] holds its others
_SECTIONS = {
    "model": ModelParams,
    "laser": LaserParams,
    "propagation": PropagationConfig,
    "run": RunConfig,
}


def _section_fields(section: str) -> list:
    """(field, type) per key of ``section``, in field order."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls) if f.name not in _SECTIONS]


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _parse_value(section: str, f, kind, raw: str):
    """Parse ``raw`` by the field's type: scalar, comma-separated tuple,
    or optional, where a blank value (or the field's word for None) is None."""
    args = typing.get_args(kind)
    if type(None) in args:
        if raw.strip() in ("", f.metadata.get("none", "")):
            return None
        (kind,) = [a for a in args if a is not type(None)]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(
            _convert(section, f.name, tok.strip(), item) for tok in raw.split(",") if tok.strip()
        )
    return _convert(section, f.name, raw, kind)


def _format_value(f, value) -> str:
    """Inverse of :func:`_parse_value`; ``repr`` keeps every float bit."""
    if value is None:
        return f.metadata.get("none", "")
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def _check_run_value(key: str, value) -> None:
    """Constraints the CLI puts on [run] values beyond the library's own;
    a library ``ScanSpec`` with a positive coupling records a failed point."""
    if key == "nr_override" and value is not None and value < 1:
        raise ConfigError(f"[run] nr_override must be >= 1, got {value}")
    if key == "max_order" and value < 0:
        raise ConfigError(f"[run] max_order must be >= 0, got {value}")
    if key == "gamma_values":
        if not value:
            raise ConfigError("[run] gamma_values is empty")
        for g in value:
            if g > 0:
                raise ConfigError(f"[run] gamma_values: gamma must be <= 0, got {g}")
    if key == "l_values":
        if not value or any(l < 1 for l in value):
            raise ConfigError("[run] l_values must be a list of cutoffs >= 1")
        if list(value) != sorted(value):
            raise ConfigError(f"[run] l_values must be ascending, got {value}")


def _read_section(parser: configparser.ConfigParser, section: str) -> dict:
    """Values of the keys the file sets in ``section``, checked in field order."""
    values = {}
    for f, kind in _section_fields(section):
        if parser.has_option(section, f.name):
            values[f.name] = _parse_value(section, f, kind, parser.get(section, f.name))
            if section == "run":
                _check_run_value(f.name, values[f.name])
    return values


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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        keys = {f.name for f, _ in _section_fields(section)}
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")

    nested = {}
    for section in ("model", "laser", "propagation"):
        values = _read_section(parser, section)
        try:
            nested[section] = _SECTIONS[section](**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return RunConfig(**nested, **_read_section(parser, "run"))


def resolved_config_text(cfg: RunConfig) -> str:
    """Fully resolved configuration as INI text, readable by :func:`parse_config`.

    The output directory is deliberately omitted: it names the
    destination, not the computation, and keeping it out makes files
    from identical runs byte-identical wherever they land.
    """
    lines = []
    for section in _SECTIONS:
        values = cfg if section == "run" else getattr(cfg, section)
        lines.append(f"[{section}]")
        for f, _ in _section_fields(section):
            if f.name != "output_dir":
                lines.append(f"{f.name} = {_format_value(f, getattr(values, f.name))}")
        lines.append("")
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
    results = gamma_scan(cfg, workers=workers)
    header = _header(cfg_hash, "gamma-scan")
    with open(outdir / "heatmap.txt", "w") as fh:
        export_heatmap(results, cfg.gamma_values, fh, header, _EXPORT_MAX_ORDER)
    manifest.append("heatmap.txt")
    with open(outdir / "relevance.txt", "w") as fh:
        export_relevance(results, cfg.gamma_values, fh, header, _EXPORT_MAX_ORDER)
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
    report = convergence_study(cfg)
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
