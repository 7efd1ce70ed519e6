"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/smoke.py

The file name is outside pytest's default ``test_*.py`` pattern on purpose:
these tests run the full CLI many times and must not be swept into a run of
the repository's own test suite, which is already long.

Runs every workload end to end, untraced and traced, through run.py's
``--smoke`` sizes; shows that corrupted artifacts fail the output check;
and shows that the runner refuses to run without the program sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_pass, check_reference, reference_from_outputs
from run import invoke
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_end_to_end(workload, trace):
    proc = _run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "paper_run", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _outputs(workload: str, tmp_path: Path):
    p = next(WORKLOADS[workload](5, smoke=True))
    config, out = tmp_path / "config.ini", tmp_path / "out"
    config.write_text(p.config)
    inv = invoke(["-m", "polaron_hhg.cli", *p.argv(str(config), str(out))], tmp_path / "cli.log")
    assert check_pass(p, out, inv.returncode) == (0, [])
    return p, out


def _edit_rows(path: Path, edit) -> None:
    lines = path.read_text().split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    edit(lines, data)
    path.write_text("\n".join(lines))


def _set_field(lines, i, col, value):
    fields = lines[i].split("\t")
    fields[col] = value
    lines[i] = "\t".join(fields)


def test_corrupted_run_outputs_fail(tmp_path):
    p, out = _outputs("paper_run", tmp_path)
    ts = out / "timeseries.txt"
    original = ts.read_text()
    _edit_rows(ts, lambda lines, data: _set_field(lines, data[100], 3, "1.00001"))
    failed, problems = check_pass(p, out, 0)
    assert failed == 1 and any("norm" in x for x in problems)

    ts.write_text(original)
    spectrum = out / "spectrum.txt"
    _edit_rows(spectrum, lambda lines, data: _set_field(lines, data[5], 1, "1e-3"))
    failed, problems = check_pass(p, out, 0)
    assert failed == 1 and any("fundamental" in x for x in problems)

    (out / "levels.txt").unlink()
    failed, problems = check_pass(p, out, 0)
    assert failed == 1 and any("levels.txt" in x for x in problems)


def test_reference_check_uses_the_linear_yield(tmp_path):
    p, out = _outputs("paper_run", tmp_path)
    ref = reference_from_outputs(out)
    assert check_reference(out, ref) == []
    # A shift of 1e-6 decades in a deep minimum is noise on the linear scale ...
    deep = min(range(len(ref["orders"])), key=lambda i: ref["yield_norm_log10"][i])
    shifted = dict(ref, yield_norm_log10=list(ref["yield_norm_log10"]))
    shifted["yield_norm_log10"][deep] += 1e-6
    assert check_reference(out, shifted) == []
    # ... but adding 1e-8 of the fundamental's power to the largest yield is not.
    top = max(range(len(ref["orders"])), key=lambda i: ref["yield_norm_log10"][i])
    y = shifted["yield_norm_log10"][top]
    shifted["yield_norm_log10"][top] = math.log10(10.0**y + 1e-8)
    assert any("linear yield" in x for x in check_reference(out, shifted))
    assert check_reference(out, dict(ref, ground_energy=ref["ground_energy"] + 1e-10))


def test_corrupted_levels_fail(tmp_path):
    p, out = _outputs("sparse_levels", tmp_path)

    def swap(lines, data):
        a, b = lines[data[1]].split("\t"), lines[data[2]].split("\t")
        a[1], b[1] = b[1], a[1]
        lines[data[1]], lines[data[2]] = "\t".join(a), "\t".join(b)

    _edit_rows(out / "levels.txt", swap)
    failed, problems = check_pass(p, out, 0)
    assert failed == 1 and any("ascending" in x for x in problems)


def test_corrupted_heatmap_fails_one_point(tmp_path):
    p, out = _outputs("coupling_scan", tmp_path)
    heatmap = out / "heatmap.txt"
    first = repr(p.gammas[0])

    def drop_first_block(lines, data):
        for i in reversed(data):
            if float(lines[i].split("\t")[0]) == p.gammas[0]:
                del lines[i]

    _edit_rows(heatmap, drop_first_block)
    failed, problems = check_pass(p, out, 0)
    assert failed >= 1 and any(first in x for x in problems)
    assert check_pass(p, out, 1)[0] >= 1
