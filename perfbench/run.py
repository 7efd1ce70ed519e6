"""Benchmark of the polaron-hhg CLI: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the runner measures end-to-end metrics: it starts one CLI
invocation (``python -m polaron_hhg.cli <mode> --config <generated.ini>``),
waits for it to exit, checks its outputs outside the timed region, and
starts the next, as long as one more invocation is expected to end within ``--seconds`` of
invocation time (at least one runs).  It reports the median wall and CPU time
of an invocation, the largest resident set, and the median set-up time.

With ``--trace 1`` it drives one pass in-process through ``cli.main``, first
untraced and then with spans around every layer's public calls, and reports
per-layer metrics and the tracing overhead.  ``--seconds`` does not apply.

``--smoke`` shrinks every workload to a few seconds, for testing the
benchmark itself.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_pass, load_reference
from tracing import Tracer, descendants, point_metrics, result_bytes, self_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 7
INVOCATION_TIMEOUT = 150.0
_SETUP_CODE = "import sys; from polaron_hhg.cli import parse_config; parse_config(sys.argv[1])"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# How each end-to-end metric combines the invocations of a run: peak RSS is
# the largest of any invocation, the rest are medians.
REDUCE = {
    "wall_s": statistics.median,
    "cpu_s": statistics.median,
    "peak_rss_mb": max,
    "setup_s": statistics.median,
}

PER_LAYER = (
    ("spectral.solve_s", "s"),
    ("spectral.eigensolve_s", "s"),
    ("spectral.transition_s", "s"),
    ("spectral.eigensolve_calls", "count"),
    ("spectral.pairs_computed", "count"),
    ("spectral.nr", "count"),
    ("spectral.kept_ratio", "ratio"),
    ("spectral.self_s", "s"),
    ("dynamics.propagate_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.samples", "count"),
    ("dynamics.step_us", "us"),
    ("dynamics.self_s", "s"),
    ("scan.points", "count"),
    ("scan.result_bytes", "bytes"),
    ("scan.parallel_eff", "ratio"),
    ("scan.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("operators.assemble_s", "s"),
    ("operators.nnz", "count"),
    ("operators.self_s", "s"),
    ("hilbert.dim", "count"),
    ("hilbert.self_s", "s"),
    ("spectrum.analyse_s", "s"),
    ("spectrum.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


# --- environment -----------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polaron_hhg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas(module) -> dict:
    """BLAS a package links and the thread count it will use."""
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for lib in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS as the program does

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


# --- untraced passes --------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(argv: list[str], log: Path) -> Invocation:
    """Run one process to exit; CPU and peak RSS cover it and its reaped children."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, p, failed: int, problems: list[str], label: str) -> None:
        self.attempted += len(p.gammas)
        self.failed += failed
        for problem in problems:
            print(f"check failed ({label}): {problem}")


def _pass_dir(run_dir: Path, i: int, p) -> tuple[Path, Path]:
    d = run_dir / f"pass-{i}"
    d.mkdir(parents=True)
    config = d / "config.ini"
    config.write_text(p.config)
    return config, d / "out"


def measure_setup(config: Path, log: Path) -> list[float]:
    """Fresh-interpreter import of polaron_hhg.cli plus config parsing."""
    times = []
    for _ in range(SETUP_REPEATS):
        inv = invoke(["-c", _SETUP_CODE, str(config)], log)
        if inv.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {inv.returncode}")
        times.append(inv.wall)
    return times


def run_untraced(passes, seconds: float, run_dir: Path, reference) -> tuple[dict, Tally]:
    tally = Tally()
    invocations: list[Invocation] = []
    setup: list[float] = []
    measured = 0.0
    i = 0
    # Start a pass only if one more is expected to end inside the window, so
    # that a run lasts about ``seconds`` however long a pass is.
    while not invocations or measured + statistics.median(x.wall for x in invocations) <= seconds:
        p = next(passes)
        config, out = _pass_dir(run_dir, i, p)
        if not setup:
            setup = measure_setup(config, run_dir / "setup.log")
        inv = invoke(["-m", "polaron_hhg.cli", *p.argv(str(config), str(out))], out.parent / "cli.log")
        failed, problems = check_pass(p, out, inv.returncode, reference)
        tally.add(p, failed, problems, f"pass {i}")
        print(
            f"pass {i}: gammas {', '.join(map(repr, p.gammas))}  wall {inv.wall:.4f} s  "
            f"cpu {inv.cpu:.4f} s  rss {inv.rss_mb:.1f} MB  exit {inv.returncode}"
        )
        shutil.rmtree(out.parent)
        invocations.append(inv)
        measured += inv.wall
        i += 1
    samples = {
        "wall_s": [x.wall for x in invocations],
        "cpu_s": [x.cpu for x in invocations],
        "peak_rss_mb": [x.rss_mb for x in invocations],
        "setup_s": setup,
    }
    values = {name: REDUCE[name](v) for name, v in samples.items()}
    for name, unit in END_TO_END:
        v = samples[name]
        print(
            f"{name:12s} {REDUCE[name].__name__:6s} {values[name]:10.4f} {unit:3s}  "
            f"min {min(v):.4f}  max {max(v):.4f}  n={len(v)}"
        )
    return values, tally


# --- traced pass ------------------------------------------------------------


def _in_process(cli, p, config: Path, out: Path) -> tuple[float, int]:
    gc.collect()
    t0 = time.perf_counter()
    status = cli.main(p.argv(str(config), str(out)))
    return time.perf_counter() - t0, status


def _bytes_written(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


def run_traced(passes, run_dir: Path, reference, spans_path: Path) -> tuple[dict, Tally]:
    sys.path.insert(0, str(SRC))
    import polaron_hhg
    import polaron_hhg.cli as cli

    tally = Tally()
    p = next(passes)

    config, out = _pass_dir(run_dir, 0, p)
    untraced_wall, status = _in_process(cli, p, config, out)
    tally.add(p, *check_pass(p, out, status, reference), "untraced")

    tracer = Tracer()
    tracer.install(polaron_hhg)
    try:
        config, out = _pass_dir(run_dir, 1, p)
        status, main = tracer.call("cli.main", "cli", cli.main, p.argv(str(config), str(out)))
        tally.add(p, *check_pass(p, out, status, reference), "traced")
        bytes_written = _bytes_written(out)
        serial = None
        if p.workers > 1:
            # Spans recorded in forked workers never reach this process.
            q = dataclasses.replace(p, workers=1)
            config, out = _pass_dir(run_dir, 2, q)
            status, serial = tracer.call("cli.main", "cli", cli.main, q.argv(str(config), str(out)))
            tally.add(q, *check_pass(q, out, status, reference), "traced serial")
    finally:
        tracer.uninstall()

    spans = tracer.spans
    main_spans = [main, *descendants(spans, main)]
    source = serial or main
    point_spans = [source, *descendants(spans, source)]
    if serial is not None:
        print("per-point spans and self times: serial pass (--workers 1)")

    metrics = point_metrics(point_spans)
    for layer, t in self_times(point_spans).items():
        metrics[f"{layer}.self_s"] = t
    # cli.self_s leaves out config parsing, which cli.parse_s reports.
    metrics["cli.parse_s"] = sum(s.duration for s in point_spans if s.name == "cli.parse_config")
    metrics["cli.self_s"] -= metrics["cli.parse_s"]
    metrics["cli.bytes_written"] = bytes_written

    scans = [s for s in main_spans if s.name in ("cli.gamma_scan", "cli.run_point")]
    metrics["scan.points"] = sum(len(s.result) if isinstance(s.result, list) else 1 for s in scans)
    metrics["scan.result_bytes"] = sum(result_bytes(s) for s in scans)
    point_time = sum(s.duration for s in point_spans if s.name.endswith(".run_point"))
    scan_time = sum(s.duration for s in scans)
    metrics["scan.parallel_eff"] = point_time / (p.workers * scan_time) if scan_time else 0.0
    metrics["trace.overhead_s"] = main.duration - untraced_wall
    metrics["trace.spans"] = len(spans)
    print(f"traced wall {main.duration:.4f} s, untraced wall {untraced_wall:.4f} s")

    spans_path.write_text(
        json.dumps(
            {
                "main": [s.record() for s in main_spans],
                "serial": [s.record() for s in point_spans] if serial else None,
            }
        )
    )
    for name, unit in PER_LAYER:
        print(f"{name:26s} {metrics[name]:14.6g} {unit}")
    return metrics, tally


# --- entry point -----------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "polaron_hhg" / "cli.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}{' smoke' if args.smoke else ''}"
    )
    passes = WORKLOADS[args.workload](args.seed, args.smoke)
    reference = None if args.smoke else load_reference()
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-s{args.seed}.json"
            values, tally = run_traced(passes, run_dir, reference, spans_path)
            table = PER_LAYER
        else:
            values, tally = run_untraced(passes, args.seconds, run_dir, reference)
            table = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"failed_frac  {tally.failed / tally.attempted:.4f} ratio  ({tally.failed} of {tally.attempted} points)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
