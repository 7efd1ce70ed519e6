"""The functions the benchmark's tracer wraps exist under the names it uses."""

import importlib.util
import sys
from pathlib import Path

import polaron_hhg
import polaron_hhg.cli  # noqa: F401  the tracer wraps names in polaron_hhg.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    # a target the package no longer has raises AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
