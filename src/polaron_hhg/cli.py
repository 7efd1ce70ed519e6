"""Command-line front end: config parsing, pipeline invocation, file emission.

Runs are driven by a flat INI file with sections [model], [laser],
[propagation] and [run], which together hold one ``scan.ScanSpec``.
Each key is a field of a settings dataclass: [model], [laser] and
[propagation] hold the fields of ``ModelParams``, ``LaserParams`` and
``PropagationConfig``, and [run] the other fields of ``ScanSpec``.
Every key is optional and defaults to the field's default, the
reference parameter set.  Unknown sections or keys are errors.  This
module only turns the text into values, a ``%`` included as written,
and the library's results into files; each settings class checks its
own values, so the library refuses exactly what the CLI refuses.  All
artifacts land inside the ``--out`` directory (default ``out``), which
is not a config key: it names where the files go, not what they hold,
so identical runs write identical files wherever they land.  Each
starts with a comment header that records the tool version and a hash
of the fully resolved configuration, which is echoed to
``resolved.ini``; that can be passed back as ``--config`` to repeat the
run, and a ``manifest.txt`` lists the completed artifacts.

Every other artifact is a text table: comment lines starting with
``# `` (the header, then any notes and the tab-separated column names),
then rows of tab-separated numbers, each written as ``f"{x:.15g}"`` would
write it, so integer columns read as integers.  :func:`_format_rows`
formats them, 512 rows at a time: numpy and lookup tables write the
bytes ``%.15g`` writes, and ``%`` itself the few values whose digits
the tables cannot settle, such as zeros and near-ties; where long double
is plain double, one ``%`` per chunk writes every value.  Only
``failures.txt`` has text rows: a failed point's label and message.
The library modules return arrays; this module alone knows the format.
Each mode returns its tables, ``(name, notes, columns)``, and its failed
points; :func:`main` alone adds the header, writes and lists each table,
writes gamma-scan's ``failures.txt`` and reports every failed point.

The one table written while it is computed is run's ``timeseries.txt``,
the largest.  The mode opens it through the ``stream`` callable that
:func:`main` passes every mode, which adds the header, before the run
starts; ``propagate`` hands it each block's samples and their times,
the mode adds the field at those times, and a forked child, a
``scan.ForkedChild``, formats each full chunk while the run steps on
(:class:`_StreamedTable`).  So this process holds no whole-run copy of
the time series: not the samples, which ``propagate`` then does not
store, nor their times or field, only the chunk being filled.
The mode returns it in its place among the tables, and :func:`main`
still lists every artifact, in order, once it is complete.  On every
path :func:`main` waits for or kills the child before it returns, and a
failed run's partial time series is removed, so the manifest lists every
file left.
A config it refuses, or an output directory it cannot make, is one
``config error`` or ``output error`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import sys
import typing
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import PropagationConfig
from .hilbert import ModelParams
from .pulse import LaserParams, electric_field
from .scan import (
    CONVERGENCE_WINDOW,
    ForkedChild,
    PointFailure,
    PointResult,
    ScanSpec,
    convergence_study,
    correlation_study,
    gamma_scan,
    may_fork,
    run_point,
    solve_eigenbasis,
)
from .spectral import state_relevance

# highest harmonic order written to the spectrum, heatmap and relevance tables
_EXPORT_MAX_ORDER = 50.0
# rows per formatted chunk: only a chunk's rows are ever stacked into one
# table and laid out as text, 48 bytes a value, so a long time series adds
# about 2 MB while written, plus 0.2 MB of tables
_WRITE_ROWS = 512
# decimal exponents of the smallest and the largest double
_E_MIN, _E_MAX = -324, 308
# how near a half a scaled value may lie before :func:`_format_rows` leaves
# its rounding to ``%``: twice the bound on the scaling's error
_TIE_SLACK = 4e15 * float(np.finfo(np.longdouble).eps)
# added and taken away, rounds a long double below it to an integer
_ROUND = 1 / np.finfo(np.longdouble).eps
# configparser's name for its defaults section; a header is one line, so
# no file can name it, and a [DEFAULT] section is an unknown section
_NO_DEFAULT_SECTION = "\n"


class ConfigError(ValueError):
    """Malformed, unknown or constraint-violating configuration input."""


# INI section -> the dataclass whose fields are its keys; the first three
# are also the names of ScanSpec's fields, and [run] holds its others
_SECTIONS = {
    "model": ModelParams,
    "laser": LaserParams,
    "propagation": PropagationConfig,
    "run": ScanSpec,
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


def parse_config(path: str | None) -> ScanSpec:
    """Read and validate a config file; ``None`` gives the full default set."""
    parser = configparser.ConfigParser(default_section=_NO_DEFAULT_SECTION, interpolation=None)
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
        if cls is ScanSpec:
            values.update(built)
        try:
            built[section] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return built["run"]


def resolved_config_text(cfg: ScanSpec) -> str:
    """Fully resolved configuration as INI text, readable by
    :func:`parse_config`: every key of every section, in field order."""
    lines = []
    for section in _SECTIONS:
        values = cfg if section == "run" else getattr(cfg, section)
        lines.append(f"[{section}]")
        for f, _ in _section_fields(section):
            lines.append(f"{f.name} = {_format_value(f, getattr(values, f.name))}")
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class _FormatTables:
    """Lookup tables of :func:`_format_rows`.  A value's text is laid out
    in six 8-byte words: sign and ``0.000`` prefix; 16 digit places, each
    a digit byte and a slot for the point after it, the first place a pad
    and the others the 15 digits; exponent and separator.  ``e`` below is
    the decimal exponent less ``_E_MIN``, and a 0 byte is no text."""

    decades: np.ndarray  # [e]: 10**e in long double, up to _E_MAX + 1
    scales: np.ndarray  # [e]: 10**(14 - e) in long double
    groups: np.ndarray  # [g]: word of the 4 digits of g, "." in every slot
    zeros: np.ndarray  # [g]: trailing zeros of the 4 digits of g
    layout: np.ndarray  # [16 e + n]: 16 * digits written + the one the point follows, or 0
    keep: np.ndarray  # [layout]: mask of the digit words
    prefix: np.ndarray  # [e + len(scales) * negative]: sign and prefix word
    suffix: np.ndarray  # [2 e + last column]: exponent and separator word


@cache
def _format_tables() -> _FormatTables:
    """The tables, built on the first call."""
    e = np.arange(_E_MIN, _E_MAX + 2)
    decades = np.longdouble(10) ** e.astype(np.longdouble)
    e = e[:-1]
    scales = np.longdouble(10) ** (14 - e).astype(np.longdouble)
    g = np.arange(10000)
    group_bytes = np.full((len(g), 8), ord("."), np.uint8)
    group_bytes[:, ::2] = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    zeros = np.count_nonzero(g[:, None] % np.array([10, 100, 1000, 10000]) == 0, axis=1)
    zeros = zeros.astype(np.uint8)
    # what %.15g writes of n significant digits at exponent e: in fixed
    # notation, for -4 <= e < 15, e + 1 places before the point (none
    # below 1), in exponent notation one; zeros fill the places before the
    # point, and the point goes only where digits follow it
    n = np.arange(16)
    fixed = (e >= -4) & (e < 15)
    before = np.where(fixed, np.maximum(e + 1, 0), 1)[:, None]
    layout = 16 * np.maximum(n, before) + np.where(n > before, before, 0)
    digits, point = np.divmod(np.arange(256)[:, None], 16)
    place, is_slot = np.divmod(np.arange(32), 2)
    keep = np.where(is_slot, (place == point) & (place > 0), (place >= 1) & (place <= digits))
    exponents = list(zip(e.tolist(), fixed.tolist()))
    zeros_before = [b"0." + b"0" * (-k - 1) if f and k < 0 else b"" for k, f in exponents]
    prefix = [*zeros_before, *(b"-" + z for z in zeros_before)]
    powers = [b"" if f else b"e%+03d" % k for k, f in exponents]
    suffix = [p + sep for p in powers for sep in (b"\t", b"\n")]
    return _FormatTables(
        decades=decades,
        scales=scales,
        groups=group_bytes.view(np.uint64).ravel(),
        zeros=zeros,
        layout=layout.astype(np.uint8).ravel(),
        keep=(keep * np.uint8(0xFF)).view(np.uint64),
        prefix=np.array(prefix, dtype="S8").view(np.uint64),
        suffix=np.array(suffix, dtype="S8").view(np.uint64),
    )


def _format_rows(chunk) -> str:
    """The rows of the 2-D array ``chunk`` in the module's table format:
    each value as ``"%.15g" % value`` writes it, byte for byte.

    A finite nonzero value x of decimal exponent e, 10**e <= |x| < 10**(e+1),
    is written from the 15-digit integer D nearest v = |x| 10**(14-e); if D
    reaches 10**15, from 10**14 at exponent e+1.  Here e comes from
    ``log10`` and is corrected against the tables' powers of ten, which are
    off by at most eps = ``np.finfo(np.longdouble).eps`` relative; where
    that decides e, |x| lies so near a power of ten that both exponents
    give the same digits.  s = |x| times the table's 10**(14-e), in long
    double, is v with relative error under 2 eps, so |s - v| < 2e15 eps.
    Unless a half lies within that of s, s and v round to the same
    integer.  Every value that ``_TIE_SLACK``, twice the bound, does not
    clear of a half is left to ``%``, one at a time, as are zeros, nan and
    infinities; so ``%`` alone decides what the format is.  Where long
    double is plain double the slack is at least a half, which would leave
    every value to ``%``, so one ``%`` formats the whole chunk and no
    table is built.  The rest is table lookups: the digits of D in
    4-digit groups, its trailing zeros dropped, and the point, prefix and
    exponent that ``%.15g`` writes for that many digits at that exponent,
    each value in a fixed row of six words whose 0 bytes are then dropped.
    """
    x = np.asarray(chunk, dtype=np.float64)
    n_columns = x.shape[1]
    if _TIE_SLACK >= 0.5:
        row = "\t".join(["%.15g"] * n_columns) + "\n"
        return (row * len(x)) % tuple(x.ravel().tolist())
    x = x.ravel()
    t = _format_tables()
    a = np.abs(x)
    fast = (a > 0) & (a < np.inf)
    a[~fast] = 1.0
    # positive, so truncated it is floored
    e = (np.log10(a) - _E_MIN).astype(np.intp)
    a = a.astype(np.longdouble)
    e += a >= np.take(t.decades, e + 1)
    e -= a < np.take(t.decades, e)
    s = a * np.take(t.scales, e)
    # s to the nearest integer; a tie, which way it rounds, goes to % below
    r = s + _ROUND - _ROUND
    fast &= np.abs((s - r).astype(np.float64)) < 0.5 - _TIE_SLACK
    d = r.astype(np.int64)
    up = d == 10**15
    e += up
    d[up] = 10**14
    high = d // 10**8
    low = d - high * 10**8
    g0 = high // 10**4
    g1 = high - g0 * 10**4
    g2 = low // 10**4
    g3 = low - g2 * 10**4
    # D's trailing zeros: those of g3, and while the groups so far are all
    # zeros, those of the group before
    zeros = np.take(t.zeros, g3)
    for k, g in enumerate((g2, g1, g0), 1):
        zeros += np.where(zeros == 4 * k, np.take(t.zeros, g), 0)
    # every index is in range; "clip" lets take write straight into words
    words = np.empty((len(x), 6), np.uint64)
    np.take(t.prefix, e + len(t.scales) * (x < 0), out=words[:, 0], mode="clip")
    layout = np.take(t.layout, 16 * e + 15 - zeros)
    np.take(t.keep, layout, axis=0, out=words[:, 1:5], mode="clip")
    for j, g in enumerate((g0, g1, g2, g3), 1):
        words[:, j] &= np.take(t.groups, g)
    last = np.arange(n_columns) == n_columns - 1
    suffix = words[:, 5].reshape(-1, n_columns)
    np.take(t.suffix, 2 * e.reshape(-1, n_columns) + last, out=suffix, mode="clip")
    slow = np.flatnonzero(~fast)
    if slow.size:
        seps = np.where(slow % n_columns == n_columns - 1, "\n", "\t").tolist()
        texts = ["%.15g%s" % pair for pair in zip(x[slow].tolist(), seps)]
        words[slow] = np.array(texts, dtype="S48").view(np.uint64).reshape(-1, 6)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _write_table(fh, comment_lines, columns) -> None:
    """Write ``comment_lines`` as ``# `` lines, then the equal-length 1-D
    ``columns`` as rows in the module's table format (none if empty)."""
    for line in comment_lines:
        fh.write(f"# {line}\n")
    if not columns:
        return
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        fh.write(_format_rows(np.column_stack([c[lo : lo + _WRITE_ROWS] for c in columns])))


class _StreamedTable:
    """A table whose rows are written while the run computes them.

    :meth:`add` gathers rows into chunks of ``_WRITE_ROWS``, and each full
    chunk is formatted by :func:`_format_rows` at once.  Where
    :func:`may_fork` allows it, a :class:`ForkedChild` formats them: the
    chunks reach it through its pipe, so the caller goes on computing
    while they are written, and the child's report, a failure or the
    writer's silent exit, is raised here.  Elsewhere this process formats
    them.  The file is opened and its comment lines written here, so an
    unwritable path fails in the caller either way.  :meth:`close` writes
    the last rows and returns once the table is complete, or raises what
    the writer raised; :meth:`discard` kills the child and removes the
    file.
    """

    def __init__(self, path: Path, comment_lines, n_columns: int):
        self.path = path
        self._chunk = np.empty((_WRITE_ROWS, n_columns))
        self._held = 0
        self._child = None
        self._fh = open(path, "w")
        try:
            _write_table(self._fh, comment_lines, [])
            if may_fork():
                self._fh.flush()
                self._child = ForkedChild(
                    self._serve,
                    lambda status: RuntimeError(f"{path.name} writer exited with status {status}"),
                )
                # the child writes through its own copy of the file
                self._fh.close()
        except BaseException:
            self.discard()
            raise

    def _serve(self, conn) -> None:
        # in the child: format each chunk as it comes, until an empty one
        with self._fh:
            for data in iter(conn.recv_bytes, b""):
                chunk = np.frombuffer(data).reshape(-1, self._chunk.shape[1])
                self._fh.write(_format_rows(chunk))

    def add(self, rows) -> None:
        """Take the next rows, a 2-D array with one column per table column."""
        while len(rows):
            take = min(len(rows), _WRITE_ROWS - self._held)
            self._chunk[self._held : self._held + take] = rows[:take]
            self._held += take
            rows = rows[take:]
            if self._held == _WRITE_ROWS:
                self._flush()

    def _flush(self) -> None:
        chunk = self._chunk[: self._held]
        self._held = 0
        if self._child is None:
            self._fh.write(_format_rows(chunk))
        else:
            self._send(chunk)

    def _send(self, data) -> None:
        try:
            self._child.conn.send_bytes(data)
        except OSError:
            # the child has gone; what it reported is the error
            self._child.wait()
            raise

    def close(self) -> None:
        if self._held:
            self._flush()
        if self._child is None:
            self._fh.close()
        else:
            self._send(b"")
            self._child.wait()

    def discard(self) -> None:
        if self._child is not None:
            self._child.kill()
        self._fh.close()
        self.path.unlink(missing_ok=True)


def _levels_table(energies, relevance) -> tuple:
    """Level table: index, energy and the :func:`state_relevance` columns."""
    return (
        "levels.txt",
        ["index\tenergy\tharmonic_order\tlog10_Tgs2"],
        [np.arange(len(energies)), energies, relevance[:, 0], relevance[:, 1]],
    )


def _spectrum_table(name: str, spectrum, notes=()) -> tuple:
    """Harmonic orders up to the export cap, and Y_N there."""
    sel = spectrum.orders <= _EXPORT_MAX_ORDER
    return (
        name,
        [*notes, "harmonic_order\tyield_norm"],
        [spectrum.orders[sel], spectrum.yield_norm[sel]],
    )


def _gamma_block(gamma: float, orders, values) -> list:
    """One scan point's rows up to the export cap: gamma, order, value."""
    keep = orders <= _EXPORT_MAX_ORDER
    return [np.full(np.count_nonzero(keep), gamma), orders[keep], values[keep]]


def _stacked(blocks) -> list:
    """Blocks of equally many columns laid end to end; no columns if no blocks."""
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _mode_levels(cfg, workers, stream):
    eig = solve_eigenbasis(cfg)
    return [_levels_table(eig.energies, state_relevance(eig, cfg.laser.omega_l))], []


def _mode_run(cfg, workers, stream):
    ns = cfg.model.n_sites()
    names = ["t", "E", "dipole", "norm"]
    names += [f"n_e_{r}" for r in range(ns)] + [f"n_ph_{r}" for r in range(ns)]
    series = stream("timeseries.txt", ["\t".join(names)], len(names))

    def on_samples(s, t, norm, electron, phonon, dipole):
        e = electric_field(t, cfg.laser)
        series.add(np.column_stack([t, e, dipole, norm, electron, phonon]))

    result = run_point(cfg, on_samples=on_samples)
    return [
        _levels_table(result.energies, result.relevance),
        ("timeseries.txt", None, series),
        _spectrum_table("spectrum.txt", result.spectrum),
    ], []


def _mode_gamma_scan(cfg, workers, stream):
    results = gamma_scan(cfg, workers=workers)
    # long format: one block of rows per point, failed points skipped
    spectra, levels = [], []
    for g, res in zip(cfg.gamma_values, results):
        if isinstance(res, PointResult):
            spectra.append(_gamma_block(g, res.spectrum.orders, res.spectrum.yield_norm))
            levels.append(_gamma_block(g, res.relevance[:, 0], res.relevance[:, 1]))
    return [
        ("heatmap.txt", ["gamma\tharmonic_order\tyield_norm"], _stacked(spectra)),
        ("relevance.txt", ["gamma\tharmonic_order\tlog10_Tgs2"], _stacked(levels)),
    ], [r for r in results if isinstance(r, PointFailure)]


def _mode_converge(cfg, workers, stream):
    report = convergence_study(cfg)
    failures = [p for p in report.points if isinstance(p, PointFailure)]
    lo, hi = CONVERGENCE_WINDOW
    notes = [f"comparison window: orders [{lo:g}, {hi:g}]"]
    notes += [f"FAILED {p.label}: {p.message}" for p in failures]
    columns = [
        report.l_values,
        report.eps_gs,
        [-1 if isinstance(p, PointFailure) else p.nr for p in report.points],
        report.spectral_diffs + (float("nan"),),
    ]
    tables = [("convergence.txt", notes + ["L\teps_gs\tnr\tmax_abs_diff_to_next"], columns)]
    for l, point in zip(report.l_values, report.points):
        if isinstance(point, PointResult):
            tables.append(_spectrum_table(f"spectrum_L{l}.txt", point.spectrum, [f"L {l}"]))
    return tables, failures


def _mode_correlate(cfg, workers, stream):
    tables = []
    for m, energy, grid in correlation_study(cfg):
        notes = [f"state {m}, energy {energy:.15g}"]
        notes.append("rows: phonon site f; columns: electron site r")
        tables.append((f"correlation_state{m}.txt", notes, list(grid.T)))
    return tables, []


_MODE_FUNCS = {
    "levels": _mode_levels,
    "run": _mode_run,
    "gamma-scan": _mode_gamma_scan,
    "converge": _mode_converge,
    "correlate": _mode_correlate,
}
MODES = tuple(_MODE_FUNCS)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="polaron-hhg",
        description="High-harmonic spectra of a dimerized chain with local "
        "electron-phonon coupling",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", default=None, help="INI config file (defaults apply if omitted)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
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
    if args.workers < 1:
        print("workers must be >= 1", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    resolved = resolved_config_text(cfg)
    cfg_hash = hashlib.sha256(resolved.encode()).hexdigest()[:12]
    header = [f"polaron-hhg {__version__}", f"config {cfg_hash}", f"mode {args.mode}"]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "resolved.ini").write_text(resolved)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    manifest = ["resolved.ini"]
    streamed = []

    def stream(name, notes, n_columns):
        streamed.append(_StreamedTable(outdir / name, header + notes, n_columns))
        return streamed[-1]

    try:
        tables, failures = _MODE_FUNCS[args.mode](cfg, args.workers, stream)
        for name, notes, columns in tables:
            if isinstance(columns, _StreamedTable):
                columns.close()
            else:
                with open(outdir / name, "w") as fh:
                    _write_table(fh, header + notes, columns)
            manifest.append(name)
        # converge notes its failed cutoffs in convergence.txt instead
        if failures and args.mode == "gamma-scan":
            with open(outdir / "failures.txt", "w") as fh:
                _write_table(fh, header, [])
                fh.writelines(f"{f.label}\t{f.message}\n" for f in failures)
            manifest.append("failures.txt")
    except Exception as exc:
        print(f"{args.mode} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        # a streamed table not listed is partial: its child is reaped, its file removed
        for table in streamed:
            if table.path.name not in manifest:
                table.discard()
        (outdir / "manifest.txt").write_text("".join(name + "\n" for name in manifest))
    for f in failures:
        print(f"{args.mode} point failed: {f.label}: {f.message}", file=sys.stderr)
    return 1 if failures else 0


def entrypoint() -> None:
    status = main()
    # every artifact is written and every child reaped, so nothing left needs
    # the collector; frozen, the run's objects are skipped by the collection
    # the interpreter makes at exit, which would otherwise walk them all
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
