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
