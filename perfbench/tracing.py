"""In-process tracing of CLI invocations: spans around each layer's public calls.

The tracer replaces public functions under the names the calling module
looks them up by (``polaron_hhg.scan.propagate``, ``polaron_hhg.cli.run_point``,
...) with wrappers that record a span: name, layer, start, end and parent.
Nothing under ``src/`` changes.  Spans stay in memory until the run ends.

Worker processes forked by ``gamma_scan`` inherit the wrappers, but the
spans they record die with them; per-point spans of a scan come from a
serial pass instead.
"""

from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "scan", "spectral", "operators", "hilbert", "dynamics", "spectrum")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _counts_eigensolve(args, kwargs, result):
    count = kwargs["count"] if "count" in kwargs else args[1]
    return {"pairs": int(count)}


def _counts_propagate(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return {"steps": cfg.n_steps, "samples": cfg.n_steps // cfg.record_stride}


# (module, attribute, layer, counter, keep_result)
_TARGETS = (
    ("cli", "parse_config", "cli", None, False),
    ("cli", "run_point", "scan", None, True),
    ("cli", "gamma_scan", "scan", None, True),
    ("cli", "solve_eigenbasis", "spectral", lambda a, k, r: {"nr": r.nr}, False),
    ("scan", "run_point", "scan", None, False),
    ("scan", "solve_eigenbasis", "spectral", lambda a, k, r: {"nr": r.nr}, False),
    ("scan", "BasisIndex", "hilbert", lambda a, k, r: {"dim": r.dim}, False),
    ("scan", "build_hamiltonian", "operators", lambda a, k, r: {"nnz": r.matrix.nnz}, False),
    ("scan", "build_position", "operators", None, False),
    ("scan", "eigensolve_lowest", "spectral", _counts_eigensolve, False),
    ("scan", "with_transition", "spectral", None, False),
    ("scan", "propagate", "dynamics", _counts_propagate, False),
    ("scan", "acceleration", "spectrum", None, False),
    ("scan", "yield_spectrum", "spectrum", None, False),
)


class Tracer:
    """Records spans while installed; ``span`` opens one by hand."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own; returns (result, span)."""
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs), span
        finally:
            self._close(span)

    def _wrapper(self, name, layer, original, counter, keep):
        def traced(*args, **kwargs):
            result, span = self.call(name, layer, original, *args, **kwargs)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if keep:
                span.result = result
            return result

        return traced

    def install(self, package) -> None:
        for mod_name, attr, layer, counter, keep in _TARGETS:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            name = f"{mod_name}.{attr}"
            setattr(module, attr, self._wrapper(name, layer, original, counter, keep))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Spans below ``root`` (spans are recorded parent-first)."""
    inside = {root.id}
    out = []
    for s in spans[root.id + 1:]:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s.layer] += s.duration - child_time.get(s.id, 0.0)
    return totals


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _children(spans, parent: Span, name: str) -> list[Span]:
    return [s for s in spans if s.parent == parent.id and s.name == name]


def point_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-point medians over every solve and propagation in ``spans``."""
    solves = [s for s in spans if s.name.endswith(".solve_eigenbasis")]
    eig_calls = [_children(spans, s, "scan.eigensolve_lowest") for s in solves]
    pairs = [sum(c.counts["pairs"] for c in calls) for calls in eig_calls]
    nr = [s.counts["nr"] for s in solves]
    props = [s for s in spans if s.name == "scan.propagate"]
    points = [s for s in spans if s.name.endswith(".run_point")]
    analyse = [
        sum(c.duration for c in spans if c.parent == p.id and c.layer == "spectrum")
        for p in points
    ]
    hamiltonians = [s for s in spans if s.name == "scan.build_hamiltonian"]
    out = {
        "spectral.solve_s": _median([s.duration for s in solves]),
        "spectral.eigensolve_s": _median([sum(c.duration for c in calls) for calls in eig_calls]),
        "spectral.transition_s": _median(
            [sum(c.duration for c in _children(spans, s, "scan.with_transition")) for s in solves]
        ),
        "spectral.eigensolve_calls": _median([len(calls) for calls in eig_calls]),
        "spectral.pairs_computed": _median(pairs),
        "spectral.nr": _median(nr),
        "spectral.kept_ratio": _median([n / p for n, p in zip(nr, pairs) if p]),
        "dynamics.propagate_s": _median([s.duration for s in props]),
        "dynamics.steps": _median([s.counts["steps"] for s in props]),
        "dynamics.samples": _median([s.counts["samples"] for s in props]),
        "spectrum.analyse_s": _median(analyse),
        "operators.assemble_s": _median(
            [
                sum(c.duration for c in spans if c.parent == s.id and c.layer == "operators")
                for s in solves
            ]
        ),
        "operators.nnz": _median([s.counts["nnz"] for s in hamiltonians]),
        "hilbert.dim": _median([s.counts["dim"] for s in spans if s.name == "scan.BasisIndex"]),
    }
    steps = out["dynamics.steps"]
    out["dynamics.step_us"] = 1e6 * out["dynamics.propagate_s"] / steps if steps else 0.0
    return out


def result_bytes(span: Span) -> int:
    """Pickled size of what a scan call returned, as a pool would ship it."""
    results = span.result if isinstance(span.result, list) else [span.result]
    return sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results)
