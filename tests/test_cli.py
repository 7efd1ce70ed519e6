"""Config parsing, mode drivers, artifact layout and reproducibility."""

import configparser
import hashlib
import io
import math
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron_hhg import cli, dynamics
from polaron_hhg.cli import (
    _WRITE_ROWS,
    ConfigError,
    _spectrum_table,
    _write_table,
    main,
    parse_config,
    resolved_config_text,
)
from polaron_hhg.dynamics import PropagationConfig
from polaron_hhg.hilbert import ModelParams
from polaron_hhg.pulse import LaserParams, electric_field
from polaron_hhg.scan import ScanSpec, gamma_scan, run_point, solve_eigenbasis
from polaron_hhg.spectrum import SpectrumResult
from table_reference import rows_text, table_text

# small, fast configuration: 4 retained states, modest step count
TINY = """
[model]
n_cells = 1
phonon_cutoff = 2

[propagation]
n_steps = 16384

[run]
max_order = 20
"""


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_paper_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, ""))
    assert cfg == ScanSpec()
    assert cfg.model.v == -0.073
    assert cfg.model.w == -0.104
    assert cfg.model.gamma == -0.025
    assert cfg.model.omega_ph == 0.036
    assert cfg.model.n_cells == 3
    assert cfg.model.phonon_cutoff == 3
    assert cfg.model.d == 2.0
    assert cfg.laser.a0 == 0.183
    assert cfg.laser.omega_l == 0.002
    assert cfg.laser.n_cyc == 5
    assert cfg.propagation.n_steps == 2**16


def test_no_config_path_gives_defaults():
    assert parse_config(None) == ScanSpec()


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.ini")


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("[model]\ngamma = 0.01\n", "gamma"),
        ("[model]\nphonon_cutoff = 0\n", "phonon_cutoff"),
        ("[model]\nomega_ph = -0.1\n", "omega_ph"),
        ("[model]\nv = abc\n", "v"),
        ("[model]\nmystery = 1\n", "mystery"),
        ("[weird]\nx = 1\n", "weird"),
        ("[run]\nnr_override = 0\n", "nr_override"),
        ("[run]\ngamma_values = 0.1, -0.2\n", "gamma_values"),
        ("[run]\nl_values = 0\n", "l_values"),
        ("[run]\nl_values = 2, 1\n", "l_values"),
        ("[run]\nl_values = 1, 2, 2\n", "l_values"),
        ("[run]\ngamma_values = -0.01, -0.02, -0.01\n", "gamma_values"),
        ("[run]\nmax_order = nan\n", "max_order"),
        ("[run]\nmax_order = inf\n", "max_order"),
        ("[laser]\nomega_l = nan\n", "omega_l"),
        ("[laser]\na0 = inf\n", r"\[laser\] a0\b"),
        ("[model]\nd = inf\n", r"\[model\] d\b"),
        ("[model]\nv = -inf\n", r"\[model\] v\b"),
        ("[run]\ngamma_values = -0.01, nan\n", "gamma_values"),
        ("[run]\ncorrelate_states = ,\n", "correlate_states"),
        ("[run]\ncorrelate_states = 1, 1\n", "correlate_states"),
        ("[run]\ncorrelate_states = -1\n", "correlate_states"),
        ("[run]\ndense_threshold = nan\n", "dense_threshold"),
        ("[run]\ndense_threshold = -3\n", "dense_threshold"),
        ("[laser]\nn_cyc = 2.5\n", r"\[laser\] n_cyc\b"),
        ("[propagation]\nn_steps = 1024.0\n", r"\[propagation\] n_steps\b"),
        # a [DEFAULT] section would spread its keys into every section
        ("[DEFAULT]\nv = -0.05\n\n[model]\nw = -0.1\n", "DEFAULT"),
        ("[DEFAULT]\nv = -0.05\n\n[run]\nmax_order = 20\n", "DEFAULT"),
        # the output directory is --out's alone
        ("[run]\noutput_dir = elsewhere\n", r"unknown key \[run\] output_dir"),
    ],
)
def test_invalid_configs_name_the_offender(tmp_path, snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(_write(tmp_path, snippet))


def test_run_config_refuses_empty_correlate_states():
    # the library counterpart of the config case above
    with pytest.raises(ValueError, match="^correlate_states"):
        ScanSpec(correlate_states=())


EVERY_RUN_KEY = """
[model]
gamma = -0.01

[run]
nr_override = 12
max_order = 30
dense_threshold = 100
gamma_values = -0.03, -0.01
l_values = 1, 3
correlate_states = 0, 2
"""


@pytest.mark.parametrize("text", ["", EVERY_RUN_KEY])
def test_resolved_ini_reads_back_as_the_same_config(tmp_path, text):
    cfg = parse_config(_write(tmp_path, text))
    resolved = resolved_config_text(cfg)
    back = parse_config(_write(tmp_path, resolved, "resolved.ini"))
    assert back == cfg
    # the config hash in every artifact header is taken over this text
    assert resolved_config_text(back) == resolved


def test_default_gamma_grid_is_echoed_as_plain_floats():
    assert all(type(g) is float for g in ScanSpec().gamma_values)
    assert "np." not in resolved_config_text(ScanSpec())


def test_default_resolved_ini_and_its_hash_are_pinned():
    # the echo of an empty config, and the hash every artifact header
    # carries; a renamed, reordered or re-defaulted key changes both
    stored = Path(__file__).with_name("default_resolved.ini").read_text()
    resolved = resolved_config_text(parse_config(None))
    assert resolved == stored
    echo = configparser.ConfigParser()
    echo.read_string(resolved)
    assert list(echo["run"]) == [
        "nr_override",
        "max_order",
        "dense_threshold",
        "gamma_values",
        "l_values",
        "correlate_states",
    ]
    assert hashlib.sha256(resolved.encode()).hexdigest()[:12] == "2833b0cfed93"


def test_reader_and_echo_know_the_same_keys(tmp_path):
    classes = {
        "model": ModelParams,
        "laser": LaserParams,
        "propagation": PropagationConfig,
        "run": ScanSpec,
    }
    echo = configparser.ConfigParser()
    echo.read_string(resolved_config_text(ScanSpec()))
    written = {s: set(echo[s]) for s in echo.sections()}
    assert set(written) == set(classes)
    candidates = {f.name for cls in classes.values() for f in fields(cls)} | {"mystery"}
    for section, cls in classes.items():
        # every field of the section's class is a key, bar the nested sections
        assert written[section] == {f.name for f in fields(cls)} - set(classes)
        accepted = set()
        for key in candidates:
            try:
                parse_config(_write(tmp_path, f"[{section}]\n{key} = 1\n"))
            except ConfigError as exc:
                if "unknown key" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == written[section], section


@pytest.mark.parametrize("value", ["-0.07%", "%(w)s"])
def test_percent_signs_are_taken_as_written(tmp_path, capsys, value):
    # no interpolation: a stray % is no syntax error of its own, and
    # %(w)s is no reference to w's value; both are values v cannot parse
    cfg = _write(tmp_path, f"[model]\nw = -0.104\nv = {value}\n")
    with pytest.raises(ConfigError, match=r"^\[model\] v: cannot parse"):
        parse_config(cfg)
    assert main(["levels", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: [model] v: ")
    assert not (tmp_path / "out").exists()


def test_malformed_ini_rejected(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(_write(tmp_path, "not an ini file at all\n"))


def test_write_table_matches_per_element_format():
    # three chunks, the last one partial; values that stress the format
    rng = np.random.default_rng(3)
    n = 2 * _WRITE_ROWS + 5
    columns = [
        np.arange(n),
        np.arange(n) * 0.75,
        1.0 + rng.normal(size=n) * 1e-13,
        rng.uniform(0.0, 1.0, n),
        -rng.uniform(0.0, 1e3, n),
    ]
    columns[2][0], columns[3][0] = -0.0, 1e-300
    comments = ["a header", "i\tt\tnorm\tn\tm"]
    buf = io.StringIO()
    _write_table(buf, comments, columns)

    expected = table_text(comments, columns).splitlines(keepends=True)
    got = buf.getvalue().splitlines(keepends=True)
    assert len(got) == len(expected)
    bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not bad, f"line {bad[0]}: {got[bad[0]]!r} != {expected[bad[0]]!r}"
    assert "\t-0\t1e-300\t" in got[2]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _power_of_ten_and_neighbours(k: int):
    p = float(f"1e{k}")
    return st.sampled_from([math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)])


# values where %.15g is hardest to match: hypothesis's own floats (nan,
# infinities, signed zeros, subnormals, extremes), powers of ten and their
# neighbours, the 1e-05 and 1e+15 notation switches, decimal 15-digit
# ties, exact binary ties, and any bit pattern
_HARD_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [
            0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-05, 9.99999999999999e-06, 9.999999999999995e-05,
            0.0001, 999999999999999.4, 999999999999999.5, 999999999999999.6, 1e15,
            1e16, 0.1, 1 / 3,
        ]
    ),
    st.integers(-324, 308).flatmap(_power_of_ten_and_neighbours),
    st.builds(
        lambda m, k, sign: sign * float(f"{m}5e{k}"),
        st.integers(10**14, 10**15 - 1),
        st.integers(-340, 292),
        st.sampled_from([1.0, -1.0]),
    ),
    st.integers(10**14, 10**15 - 1).map(lambda m: m + 0.5),
    st.integers(10**14, 10**15 - 1).map(lambda m: float(10 * m + 5)),
    st.integers(0, 2**64 - 1).map(_from_bits),
)


@st.composite
def _chunks(draw):
    n_columns = draw(st.integers(1, 6))
    values = draw(st.lists(_HARD_FLOATS, min_size=n_columns, max_size=10 * n_columns))
    return np.array(values[: len(values) - len(values) % n_columns]).reshape(-1, n_columns)


@pytest.mark.parametrize("slack", [cli._TIE_SLACK, 1.0], ids=["default", "every-value-by-percent"])
@given(chunk=_chunks())
@settings(max_examples=400, deadline=None)
def test_format_rows_writes_each_value_as_percent_format(slack, chunk):
    # a slack of 1 leaves every value to %; the default, most of them to the tables
    with mock.patch.object(cli, "_TIE_SLACK", slack):
        assert cli._format_rows(chunk) == rows_text(chunk.tolist())


def test_format_rows_without_long_double_builds_no_table():
    # where long double is plain double the slack is at least a half:
    # one % writes the chunk, and the tables are never built
    chunk = np.array([[0.5, -0.0, 1e-300], [np.nan, np.inf, 123456789012345.6]])
    cli._format_tables.cache_clear()
    with mock.patch.object(cli, "_TIE_SLACK", 0.5):
        assert cli._format_rows(chunk) == rows_text(chunk.tolist())
    assert cli._format_tables.cache_info().currsize == 0


@pytest.mark.parametrize("skew", [-1e-9, 1e-9], ids=["low", "high"])
def test_format_rows_corrects_an_inexact_log10(skew):
    # a log10 off by a billionth puts values near a power of ten in the
    # wrong decade, which the tables' powers of ten must correct
    powers = [float(f"1e{k}") for k in range(-320, 309, 3)]
    values = [math.nextafter(p, toward) for p in powers for toward in (0.0, p, math.inf)]
    chunk = np.array(values).reshape(-1, 3)
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + skew):
        assert cli._format_rows(chunk) == rows_text(chunk.tolist())


def test_format_tables_powers_of_ten_are_within_eps():
    # the slack of _format_rows assumes each power off by at most eps
    tables = cli._format_tables()
    eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    exponents = range(cli._E_MIN, cli._E_MAX + 2)
    powers = list(zip(exponents, tables.decades))
    powers += [(14 - e, s) for e, s in zip(exponents, tables.scales)]
    for k, power in powers:
        exact = Fraction(10) ** k
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= eps * exact, k


def test_importing_cli_builds_no_format_table():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import polaron_hhg.cli as cli; print(cli._format_tables.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_levels_table_format(tmp_path):
    cfg = _write(tmp_path, "[model]\nn_cells = 1\nphonon_cutoff = 1\n\n[run]\nnr_override = 2\n")
    out = tmp_path / "out"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "levels.txt").read_text().splitlines()
    assert lines[0] == "# polaron-hhg 0.1.0"
    assert lines[3] == "# index\tenergy\tharmonic_order\tlog10_Tgs2"
    data = [l.split("\t") for l in lines if not l.startswith("#")]
    assert [row[0] for row in data] == ["0", "1"]  # integer index column
    model = ModelParams(n_cells=1, phonon_cutoff=1)
    eig = solve_eigenbasis(ScanSpec(model=model, laser=LaserParams(), nr_override=2))
    for row, energy in zip(data, eig.energies):
        assert float(row[1]) == pytest.approx(energy, rel=1e-14)


def test_spectrum_table_capped_at_order_50(tmp_path):
    orders = np.array([0.0, 1.0, 50.0, 50.5, 51.0])
    res = SpectrumResult(
        orders=orders,
        yield_raw=-orders,
        yield_norm=-orders,
        fundamental_index=1,
    )
    name, notes, columns = _spectrum_table("spectrum.txt", res, ["demo"])
    assert name == "spectrum.txt"
    buf = io.StringIO()
    _write_table(buf, notes, columns)
    lines = buf.getvalue().splitlines()
    assert lines[:2] == ["# demo", "# harmonic_order\tyield_norm"]
    data = [l.split("\t") for l in lines if not l.startswith("#")]
    assert [row[0] for row in data] == ["0", "1", "50"]  # orders above 50 capped away
    assert data[1][1] == "-1"


def test_levels_mode_writes_an_exactly_dark_ground_state(tmp_path):
    # x flips the chain-inversion parity, so T_00 is exactly 0; dim 324
    # with the threshold lowered puts both sectors on the ARPACK path
    cfg = _write(
        tmp_path,
        "[model]\nn_cells = 2\nphonon_cutoff = 3\n\n[run]\nmax_order = 20\ndense_threshold = 100\n",
    )
    out = tmp_path / "out"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 0
    rows = [l.split("\t") for l in (out / "levels.txt").read_text().splitlines() if l[0] != "#"]
    assert rows[0][::2] == ["0", "0"]
    assert rows[0][3] == "-inf"
    assert any(r[3] not in ("-inf", "inf", "nan") for r in rows[1:])


def test_levels_mode_lists_all_six_phononless_states(tmp_path):
    cfg = _write(
        tmp_path,
        "[model]\nphonon_cutoff = 1\n\n[run]\nnr_override = 6\n",
    )
    out = tmp_path / "out"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 0
    rows = [
        l
        for l in (out / "levels.txt").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert len(rows) == 6


def test_run_mode_artifacts_and_headers(tmp_path):
    cfg = _write(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text().split()
    assert manifest == ["resolved.ini", "levels.txt", "timeseries.txt", "spectrum.txt"]
    for name in ("levels.txt", "timeseries.txt", "spectrum.txt"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# polaron-hhg 0.1.0")
        assert lines[1].startswith("# config ")
        assert len(lines[1].split()[-1]) == 12


def test_run_mode_reproducible_across_directories(tmp_path):
    cfg = _write(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("resolved.ini", "levels.txt", "timeseries.txt", "spectrum.txt", "manifest.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_and_levels_write_the_same_level_rows(tmp_path):
    # dim 324 above the lowered threshold: both modes solve on the ARPACK path
    cfg = _write(
        tmp_path,
        "[model]\nn_cells = 2\nphonon_cutoff = 3\n\n"
        "[propagation]\nn_steps = 16384\n\n"
        "[run]\nmax_order = 20\ndense_threshold = 100\n",
    )
    rows = {}
    for mode in ("run", "levels"):
        out = tmp_path / mode
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        rows[mode] = [
            l for l in (out / "levels.txt").read_text().splitlines() if not l.startswith("#")
        ]
    assert len(rows["run"]) > 1
    assert rows["run"] == rows["levels"]


def test_levels_run_and_gamma_scan_agree_bitwise_at_the_paper_point(tmp_path):
    # every mode solves on one BLAS thread, so the same dim-4374 point gives
    # the same bits from levels, run and a one-point serial gamma-scan
    cfg = _write(
        tmp_path,
        "[propagation]\nn_steps = 4096\nrecord_stride = 64\n\n[run]\ngamma_values = -0.03\n"
        "\n[model]\ngamma = -0.03\n",
    )
    rows = {}
    for mode, name in (("levels", "levels"), ("run", "levels"), ("gamma-scan", "relevance")):
        out = tmp_path / mode
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        table = (out / f"{name}.txt").read_text().splitlines()
        rows[mode] = [l.split("\t") for l in table if not l.startswith("#")]
    assert len(rows["levels"]) == 30
    assert rows["run"] == rows["levels"]
    # relevance rows: gamma, then the levels' harmonic order and log10 T_gs^2
    assert [r[1:] for r in rows["gamma-scan"]] == [r[2:] for r in rows["levels"]]
    assert {r[0] for r in rows["gamma-scan"]} == {"-0.03"}

    spec = parse_config(cfg)
    energies = solve_eigenbasis(spec).energies
    assert np.array_equal(run_point(spec).energies, energies)
    (point,) = gamma_scan(spec, workers=1)
    assert np.array_equal(point.energies, energies)


def test_writes_stay_inside_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, TINY)
    assert main(["levels", "--config", cfg, "--out", "only_here"]) == 0
    created = {p.name for p in tmp_path.iterdir()}
    assert created == {"cfg.ini", "only_here"}


def test_gamma_scan_mode(tmp_path):
    cfg = _write(
        tmp_path,
        TINY + "gamma_values = -0.02, -0.01, 0\n",
    )
    out = tmp_path / "scan"
    assert main(["gamma-scan", "--config", cfg, "--out", str(out)]) == 0
    heat = (out / "heatmap.txt").read_text().splitlines()
    data = [l.split("\t") for l in heat if not l.startswith("#")]
    gammas = sorted({row[0] for row in data})
    assert len(gammas) == 3
    rel = [
        l for l in (out / "relevance.txt").read_text().splitlines() if not l.startswith("#")
    ]
    assert rel  # at least the retained states of each point


def test_gamma_scan_worker_flag_reproducible(tmp_path):
    cfg = _write(tmp_path, TINY + "gamma_values = -0.01, 0\n")
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["gamma-scan", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["gamma-scan", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "heatmap.txt").read_bytes() == (out2 / "heatmap.txt").read_bytes()


def test_converge_mode(tmp_path):
    cfg = _write(tmp_path, TINY + "l_values = 1, 2\n")
    out = tmp_path / "conv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "convergence.txt").read_text()
    rows = [l.split("\t") for l in text.splitlines() if not l.startswith("#")]
    assert [r[0] for r in rows] == ["1", "2"]
    eps = [float(r[1]) for r in rows]
    assert eps[1] <= eps[0] + 1e-12
    assert (out / "spectrum_L1.txt").is_file()
    assert (out / "spectrum_L2.txt").is_file()


def test_converge_with_an_empty_window_keeps_its_spectra(tmp_path):
    # 16 steps of a 5-cycle pulse resolve orders up to 1.6, so the
    # comparison window [2, 40] holds none: the distance is nan
    cfg = _write(
        tmp_path,
        "[model]\nn_cells = 1\n\n[propagation]\nn_steps = 16\n\n"
        "[run]\nmax_order = 0\nl_values = 1, 2\n",
    )
    out = tmp_path / "conv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "convergence.txt").read_text().splitlines()
    rows = [l.split("\t") for l in lines if not l.startswith("#")]
    assert [(r[0], r[3]) for r in rows] == [("1", "nan"), ("2", "nan")]
    assert (out / "manifest.txt").read_text().split() == [
        "resolved.ini",
        "convergence.txt",
        "spectrum_L1.txt",
        "spectrum_L2.txt",
    ]


def test_correlate_mode(tmp_path):
    cfg = _write(tmp_path, TINY + "correlate_states = 0, 1\n")
    out = tmp_path / "corr"
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
    for m in (0, 1):
        rows = [
            l
            for l in (out / f"correlation_state{m}.txt").read_text().splitlines()
            if not l.startswith("#")
        ]
        grid = np.array([[float(x) for x in r.split("\t")] for r in rows])
        assert grid.shape == (2, 2)
        assert (grid >= 0).all()


def test_correlate_state_beyond_the_kept_ones_fails_whole(tmp_path, capsys):
    # TINY keeps 2 states; state 0 is fine, but no map is written
    cfg = _write(tmp_path, TINY + "correlate_states = 0, 99\n")
    out = tmp_path / "corr"
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "correlate failed: ValueError: state index 99 outside [0, 2)\n"
    assert captured.out == ""
    assert (out / "manifest.txt").read_text() == "resolved.ini\n"
    assert not list(out.glob("correlation_state*.txt"))


def test_scan_failures_reported_with_partial_outputs(tmp_path):
    # a step count far too small trips the stability guard at every point
    cfg = _write(
        tmp_path,
        "[model]\nn_cells = 1\nphonon_cutoff = 2\n\n"
        "[propagation]\nn_steps = 512\n\n"
        "[run]\nmax_order = 20\ngamma_values = -0.01, 0\n",
    )
    out = tmp_path / "fail"
    assert main(["gamma-scan", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "failures.txt").is_file()
    manifest = (out / "manifest.txt").read_text().split()
    assert "failures.txt" in manifest and "heatmap.txt" in manifest


def test_converge_failures_reported_per_cutoff(tmp_path, capsys):
    # a step count far too small trips the stability guard at every cutoff
    cfg = _write(
        tmp_path,
        TINY.replace("n_steps = 16384", "n_steps = 512") + "l_values = 1, 2\n",
    )
    out = tmp_path / "conv_fail"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
    lines = (out / "convergence.txt").read_text().splitlines()
    assert [l.split("\t") for l in lines if not l.startswith("#")] == [
        ["1", "nan", "-1", "nan"],
        ["2", "nan", "-1", "nan"],
    ]
    failed = [l for l in lines if l.startswith("# FAILED")]
    assert [l.split(":")[0] for l in failed] == ["# FAILED L=1", "# FAILED L=2"]
    # notes come above the column names, as in every table
    comments = [l for l in lines if l.startswith("#")]
    assert comments[-1] == "# L\teps_gs\tnr\tmax_abs_diff_to_next"
    assert comments[-3:-1] == failed
    assert all("stability guard" in l for l in failed)
    assert (out / "manifest.txt").read_text().split() == ["resolved.ini", "convergence.txt"]
    assert capsys.readouterr().err.count("converge point failed") == 2


def test_run_failure_still_writes_manifest(tmp_path, capsys):
    cfg = _write(tmp_path, TINY.replace("n_steps = 16384", "n_steps = 512"))
    out = tmp_path / "boom"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "manifest.txt").read_text().split() == ["resolved.ini"]
    assert "stability guard" in capsys.readouterr().err


@pytest.fixture(params=[True, False], ids=["forked", "in-process"])
def series_writer(request, monkeypatch):
    """Where the time series is formatted: in a forked child or in this process."""
    if request.param and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(cli, "may_fork", lambda: request.param)


def test_streamed_time_series_is_the_table_of_the_run(tmp_path, series_writer):
    # 5000 samples, not a multiple of the chunk, at a stride that does not
    # divide the propagator's block
    text = TINY.replace("n_steps = 16384", "n_steps = 15000\nrecord_stride = 3")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    written = (out / "timeseries.txt").read_text()

    spec = parse_config(cfg)
    ts = run_point(spec).timeseries
    assert len(ts.times) % _WRITE_ROWS
    columns = [ts.times, electric_field(ts.times, spec.laser), ts.dipole_full[::3]]
    columns += [ts.amplitudes_norm, *ts.electron_density.T, *ts.phonon_density.T]
    comments = [l[2:] for l in written.splitlines() if l.startswith("# ")]
    assert written == table_text(comments, columns)


def test_run_failing_mid_series_leaves_no_partial_file(
    tmp_path, capsys, monkeypatch, series_writer
):
    # the field turns nan halfway through the pulse, after 16 chunks were sent
    half = LaserParams().t_final() / 2
    field = dynamics.electric_field
    monkeypatch.setattr(
        dynamics, "electric_field", lambda t, p: np.where(t < half, field(t, p), np.nan)
    )
    cfg = _write(tmp_path, TINY)
    with pytest.raises(Exception) as raised:
        run_point(parse_config(cfg))
    chunks = []
    flush = cli._StreamedTable._flush
    monkeypatch.setattr(cli._StreamedTable, "_flush", lambda self: chunks.append(flush(self)))

    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert len(chunks) >= 1
    err = capsys.readouterr().err
    assert err == f"run failed: {type(raised.value).__name__}: {raised.value}\n"
    assert (out / "manifest.txt").read_text().split() == ["resolved.ini"]
    assert not (out / "timeseries.txt").exists()


def test_writer_failure_reaches_the_caller(tmp_path, capsys, monkeypatch, series_writer):
    # the formatter fails on the first chunk, in the child where there is one
    def fail(chunk):
        raise OSError("no space left for the time series")

    monkeypatch.setattr(cli, "_format_rows", fail)
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, TINY), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "run failed: OSError: no space left for the time series\n"
    assert (out / "manifest.txt").read_text().split() == ["resolved.ini"]
    assert not (out / "timeseries.txt").exists()


def test_writer_exit_without_report_is_named(tmp_path, capsys, monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(cli, "may_fork", lambda: True)
    monkeypatch.setattr(cli, "_format_rows", lambda chunk: os._exit(3))
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, TINY), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "run failed: RuntimeError: timeseries.txt writer exited with status 3\n"
    assert not (out / "timeseries.txt").exists()
    assert not multiprocessing.active_children()


def test_time_series_path_taken_by_a_directory(tmp_path, capsys, series_writer):
    out = tmp_path / "out"
    path = out / "timeseries.txt"
    path.mkdir(parents=True)
    with pytest.raises(OSError) as raised:
        open(path, "w")
    assert main(["run", "--config", _write(tmp_path, TINY), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"run failed: {type(raised.value).__name__}: {raised.value}\n"
    assert path.is_dir() and not any(path.iterdir())
    assert (out / "manifest.txt").read_text().split() == ["resolved.ini"]


@pytest.mark.parametrize("status", [0, 1, 2])
def test_module_entry_point_leaves_no_process(tmp_path, status):
    # the run in its own session: once it exits, its output is complete and
    # nothing of the session is left
    text = {0: TINY, 1: FAILING, 2: "[model]\nbogus = 1\n"}
    cfg = _write(tmp_path, text[status])
    if status == 1:
        with pytest.raises(ValueError) as raised:
            run_point(parse_config(cfg))
        expected_err = f"run failed: ValueError: {raised.value}\n"
    else:
        expected_err = {0: "", 2: "config error: unknown key [model] bogus\n"}[status]
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "polaron_hhg.cli", "run", "--config", cfg, "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == status, stderr
    assert stdout == ""
    assert stderr == expected_err
    if status == 2:
        assert not out.exists()
    else:
        manifest = (out / "manifest.txt").read_text().split()
        artifacts = ["levels.txt", "timeseries.txt", "spectrum.txt"] if status == 0 else []
        assert manifest == ["resolved.ini", *artifacts]
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest, "manifest.txt"])
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# small grids for the scan modes; FAILING trips the stability guard at every point
GRIDS = "gamma_values = -0.01, 0\nl_values = 1, 2\n"
FAILING = TINY.replace("n_steps = 16384", "n_steps = 512")


@pytest.mark.parametrize(
    "mode,text,status",
    [
        ("levels", TINY, 0),
        ("run", TINY, 0),
        ("gamma-scan", TINY, 0),
        ("converge", TINY, 0),
        ("correlate", TINY, 0),
        ("run", FAILING, 1),
        ("gamma-scan", FAILING, 1),
        ("converge", FAILING, 1),
    ],
)
def test_manifest_lists_every_artifact_once(tmp_path, mode, text, status):
    out = tmp_path / "out"
    assert main([mode, "--config", _write(tmp_path, text + GRIDS), "--out", str(out)]) == status
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "resolved.ini"
    assert len(set(manifest)) == len(manifest)
    assert set(manifest) == {p.name for p in out.iterdir()} - {"manifest.txt"}
    # a failed run stops before its first table; every other case writes some
    assert len(manifest) > 1 or (mode, status) == ("run", 1)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[model]\ngamma = 1.0\n")
    assert main(["run", "--config", cfg]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_unmakeable_output_dir_is_an_output_error(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "sub" if below else blocker
    assert main(["levels", "--config", _write(tmp_path, TINY), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_bad_workers_rejected(tmp_path):
    assert main(["run", "--workers", "0", "--out", str(tmp_path / "x")]) == 2


def test_unknown_mode_rejected():
    with pytest.raises(SystemExit):
        main(["render"])


def test_console_script_target_runs_levels(tmp_path):
    # calls the [project.scripts] target as the installed polaron-hhg script
    # would, so renaming it fails here even where the package is not installed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, func = scripts["polaron-hhg"].split(":")
    cfg = _write(tmp_path, "[model]\nphonon_cutoff = 1\n\n[run]\nnr_override = 6\n")
    out = tmp_path / "exe"
    code = (
        f"import sys; from {module} import {func}; "
        f"sys.argv = ['polaron-hhg', 'levels', '--config', {cfg!r}, '--out', {str(out)!r}]; "
        f"{func}()"
    )
    src = str(pyproject.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "levels.txt").is_file()


@pytest.mark.skipif(
    shutil.which("polaron-hhg") is None,
    reason="polaron-hhg console script not on PATH (package not installed)",
)
def test_console_entrypoint_runs(tmp_path):
    cfg = _write(tmp_path, "[model]\nphonon_cutoff = 1\n\n[run]\nnr_override = 6\n")
    out = tmp_path / "exe"
    proc = subprocess.run(
        ["polaron-hhg", "levels", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "levels.txt").is_file()
