"""Command-line front end: config parsing, pipeline invocation, file emission.

Runs are driven by a flat INI file with sections [model], [laser],
[propagation] and [run].  Each key is a field of a settings dataclass:
[model], [laser] and [propagation] hold the fields of ``ModelParams``,
``LaserParams`` and ``PropagationConfig``, and [run] the other fields of
``RunConfig``.  Every key is optional and defaults to the field's default,
the reference parameter set.  Unknown sections or keys are errors.  This
module only turns the text into values; each settings class checks its
own values, so the library refuses exactly what the CLI refuses.  All
artifacts land inside the chosen output directory, each starting with a
comment header that records the tool version and a hash of the fully
resolved configuration; the resolved configuration itself is echoed to
``resolved.ini``, which can be passed back as ``--config`` to repeat the
run, and a ``manifest.txt`` lists the completed artifacts.

Every other artifact is a text table written by :func:`_write_table`:
comment lines starting with ``# `` (the header, then any notes and the
tab-separated column names), then rows of tab-separated numbers, each
written as ``f"{x:.15g}"`` would write it, so integer columns read as
integers.  Rows are formatted 512 at a time, one ``%``-format per chunk.
Only ``failures.txt`` has text rows: a failed point's label and message.
The library modules return arrays; this module alone knows the format.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import PropagationConfig
from .hilbert import BasisIndex, ModelParams
from .pulse import LaserParams, electric_field
from .scan import (
    CONVERGENCE_WINDOW,
    PointFailure,
    PointResult,
    ScanSpec,
    convergence_study,
    correlation_map,
    gamma_scan,
    run_point,
    solve_eigenbasis,
)
from .spectral import state_relevance

MODES = ("levels", "run", "gamma-scan", "converge", "correlate")

# highest harmonic order written to the spectrum, heatmap and relevance tables
_EXPORT_MAX_ORDER = 50.0
# rows per formatted chunk: only a chunk's rows are ever stacked into one
# table, so a long time series adds well under a megabyte while written
_WRITE_ROWS = 512
# configparser's name for its defaults section; a header is one line, so
# no file can name it, and a [DEFAULT] section is an unknown section
_NO_DEFAULT_SECTION = "\n"


class ConfigError(ValueError):
    """Malformed, unknown or constraint-violating configuration input."""


@dataclass(frozen=True)
class RunConfig(ScanSpec):
    """A :class:`ScanSpec` plus the settings only the CLI reads."""

    output_dir: str = "out"
    # None = ground + top-3 coupled, written and read as "auto"
    correlate_states: tuple[int, ...] | None = field(default=None, metadata={"none": "auto"})

    def __post_init__(self):
        super().__post_init__()
        if self.correlate_states == ():
            raise ValueError("correlate_states is empty; write auto for the default states")


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


def parse_config(path: str | None) -> RunConfig:
    """Read and validate a config file; ``None`` gives the full default set."""
    parser = configparser.ConfigParser(default_section=_NO_DEFAULT_SECTION)
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

    # each class checks its own values, and [run], the last, takes the others
    built = {}
    for section, cls in _SECTIONS.items():
        # parsed outside the try: a parse error is a ConfigError already
        values = {
            f.name: _parse_value(section, f, kind, parser.get(section, f.name))
            for f, kind in _section_fields(section)
            if parser.has_option(section, f.name)
        }
        if cls is RunConfig:
            values.update(built)
        try:
            built[section] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return built["run"]


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


def _write_table(fh, comment_lines, columns) -> None:
    """Write ``comment_lines`` as ``# `` lines, then the equal-length 1-D
    ``columns`` as rows in the module's table format (none if empty)."""
    for line in comment_lines:
        fh.write(f"# {line}\n")
    if not columns:
        return
    row = "\t".join(["%.15g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        chunk = np.column_stack([c[lo : lo + _WRITE_ROWS] for c in columns])
        fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_levels(path, header, energies, relevance) -> None:
    """Level table: index, energy and the :func:`state_relevance` columns."""
    with open(path, "w") as fh:
        _write_table(
            fh,
            header + ["index\tenergy\tharmonic_order\tlog10_Tgs2"],
            [np.arange(len(energies)), energies, relevance[:, 0], relevance[:, 1]],
        )


def _spectrum_columns(spectrum) -> list:
    """Harmonic orders up to the export cap, and Y_N there."""
    sel = spectrum.orders <= _EXPORT_MAX_ORDER
    return [spectrum.orders[sel], spectrum.yield_norm[sel]]


def _write_spectrum(path, header, spectrum) -> None:
    with open(path, "w") as fh:
        _write_table(fh, header + ["harmonic_order\tyield_norm"], _spectrum_columns(spectrum))


def _auto_correlate_states(eig, omega_l: float) -> list[int]:
    """Ground state plus the three excited states coupling hardest to it."""
    rel = state_relevance(eig, omega_l)
    excited = [(rel[m, 1], m) for m in range(1, eig.nr)]
    excited.sort(reverse=True)
    return [0] + sorted(m for _, m in excited[:3])


def _mode_levels(cfg, outdir, cfg_hash, manifest, workers):
    eig = solve_eigenbasis(cfg)
    relevance = state_relevance(eig, cfg.laser.omega_l)
    _write_levels(outdir / "levels.txt", _header(cfg_hash, "levels"), eig.energies, relevance)
    manifest.append("levels.txt")
    return 0


def _mode_run(cfg, outdir, cfg_hash, manifest, workers):
    result = run_point(cfg)
    header = _header(cfg_hash, "run")
    ts = result.timeseries
    _write_levels(outdir / "levels.txt", header, result.energies, result.relevance)
    manifest.append("levels.txt")
    ns = ts.electron_density.shape[1]
    names = ["t", "E", "dipole", "norm"]
    names += [f"n_e_{r}" for r in range(ns)] + [f"n_ph_{r}" for r in range(ns)]
    with open(outdir / "timeseries.txt", "w") as fh:
        _write_table(
            fh,
            header + ["\t".join(names)],
            [
                ts.times,
                electric_field(ts.times, cfg.laser),
                ts.dipole,
                ts.amplitudes_norm,
                *ts.electron_density.T,
                *ts.phonon_density.T,
            ],
        )
    manifest.append("timeseries.txt")
    _write_spectrum(outdir / "spectrum.txt", header, result.spectrum)
    manifest.append("spectrum.txt")
    return 0


def _mode_gamma_scan(cfg, outdir, cfg_hash, manifest, workers):
    results = gamma_scan(cfg, workers=workers)
    header = _header(cfg_hash, "gamma-scan")
    # long format: one block of rows per point, failed points skipped
    points = [(g, r) for g, r in zip(cfg.gamma_values, results) if isinstance(r, PointResult)]
    with open(outdir / "heatmap.txt", "w") as fh:
        _write_table(fh, header + ["gamma\tharmonic_order\tyield_norm"], [])
        for g, res in points:
            orders, y = _spectrum_columns(res.spectrum)
            _write_table(fh, [], [np.full(len(orders), g), orders, y])
    manifest.append("heatmap.txt")
    with open(outdir / "relevance.txt", "w") as fh:
        _write_table(fh, header + ["gamma\tharmonic_order\tlog10_Tgs2"], [])
        for g, res in points:
            rel = res.relevance
            rel = rel[rel[:, 0] <= _EXPORT_MAX_ORDER]
            _write_table(fh, [], [np.full(len(rel), g), rel[:, 0], rel[:, 1]])
    manifest.append("relevance.txt")
    failures = [r for r in results if isinstance(r, PointFailure)]
    if failures:
        with open(outdir / "failures.txt", "w") as fh:
            _write_table(fh, header, [])
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
    failed = [isinstance(p, PointFailure) for p in report.points]
    lo, hi = CONVERGENCE_WINDOW
    with open(outdir / "convergence.txt", "w") as fh:
        _write_table(
            fh,
            header + [f"comparison window: orders [{lo:g}, {hi:g}]"]
            + ["L\teps_gs\tnr\tmax_abs_diff_to_next"],
            [
                report.l_values,
                report.eps_gs,
                [-1 if bad else p.nr for p, bad in zip(report.points, failed)],
                report.spectral_diffs + (float("nan"),),
            ],
        )
        notes = [f"FAILED {p.label}: {p.message}" for p, bad in zip(report.points, failed) if bad]
        _write_table(fh, notes, [])
    manifest.append("convergence.txt")
    for l, point, bad in zip(report.l_values, report.points, failed):
        if bad:
            print(f"converge point failed: {point.label}: {point.message}", file=sys.stderr)
            continue
        name = f"spectrum_L{l}.txt"
        _write_spectrum(outdir / name, header + [f"L {l}"], point.spectrum)
        manifest.append(name)
    return 1 if any(failed) else 0


def _mode_correlate(cfg, outdir, cfg_hash, manifest, workers):
    basis = BasisIndex(cfg.model)
    eig = solve_eigenbasis(cfg)
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
            _write_table(
                fh,
                header
                + [
                    f"state {m}, energy {eig.energies[m]:.15g}",
                    "rows: phonon site f; columns: electron site r",
                ],
                list(grid.T),
            )
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
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="gamma-scan worker processes; every other mode, converge too, ignores it",
    )
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
