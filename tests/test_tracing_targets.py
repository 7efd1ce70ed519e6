"""What the benchmark uses of the package: the functions its tracer wraps,
under the names it uses, and the config keys its workloads write."""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

import polaron_hhg
import polaron_hhg.cli  # noqa: F401  the tracer wraps names in polaron_hhg.cli
from polaron_hhg.cli import RunConfig, parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    """The benchmark module ``name``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    # a target the package no longer has raises AttributeError
    tracing = _load(monkeypatch, "tracing")
    originals = {
        (mod, attr): getattr(getattr(polaron_hhg, mod), attr)
        for mod, attr, *_ in tracing._TARGETS
    }
    tracer = tracing.Tracer()
    tracer.install(polaron_hhg)
    try:
        for (mod, attr), original in originals.items():
            assert getattr(getattr(polaron_hhg, mod), attr) is not original
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(getattr(polaron_hhg, mod), attr) is original


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_workload_configs_parse(monkeypatch, tmp_path, smoke):
    # a key the program no longer knows is a ConfigError; 14 passes are one
    # round of sparse_levels' couplings
    workloads = _load(monkeypatch, "workloads")
    path = tmp_path / "config.ini"
    for name, passes in workloads.WORKLOADS.items():
        for p in itertools.islice(passes(0, smoke=smoke), 14):
            path.write_text(p.config)
            assert isinstance(parse_config(str(path)), RunConfig), name


# point_metrics of a traced run at N=2, L=3 (dim 324), gamma != 0: one
# 24-pair block per parity sector
COUNTERS = {
    "spectral.eigensolve_calls": 2,
    "spectral.pairs_computed": 48,
    "operators.nnz": 1242,
    "hilbert.dim": 324,
    "dynamics.steps": 16384,
    "dynamics.samples": 256,
}


def test_tracer_counts_a_traced_run(monkeypatch, tmp_path):
    # the counters read the wrapped calls' arguments and results, so a
    # changed signature, such as eigensolve_lowest's, shifts what they read
    tracing = _load(monkeypatch, "tracing")
    config = tmp_path / "config.ini"
    config.write_text(
        "[model]\nn_cells = 2\nphonon_cutoff = 3\n\n"
        "[propagation]\nn_steps = 16384\nrecord_stride = 64\n\n"
        "[run]\nmax_order = 20\n"
    )
    tracer = tracing.Tracer()
    tracer.install(polaron_hhg)
    try:
        status, _ = tracer.call(
            "cli.main", "cli", polaron_hhg.cli.main,
            ["run", "--config", str(config), "--out", str(tmp_path / "out")],
        )
    finally:
        tracer.uninstall()
    assert status == 0
    metrics = tracing.point_metrics(tracer.spans)
    assert {name: metrics[name] for name in COUNTERS} == COUNTERS

