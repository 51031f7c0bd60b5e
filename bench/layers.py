"""Per-layer instrumentation for the traced run, installed from outside the program.

Spans are recorded around calls into gaugetherm's public functions. Each
function is wrapped wherever a gaugetherm module binds it, so calls between
modules are caught as well as the benchmark's own calls. A layer's self time
is its spans' durations minus the durations of their child spans; the root
span of every timed segment is the benchmark's own code ("outside"), so the
self times of all span names add up to the traced wall time.

Every other public function of the package is wrapped too, but gets a span
("gaugetherm.other") only when the benchmark calls it directly; inside a
named layer its time stays with the caller.

numpy.linalg.eigh and eigvalsh are wrapped to count decomposed matrices, not
calls, so that a stacked call cannot hide work. The benchmark's checks use
scipy.linalg and are never counted.

Memory is measured in a separate round so that tracemalloc's cost does not
reach the self times: tracemalloc runs only inside ledger and
integration_tolerance on the round's largest protocol, and evolve's result
is sized from its arrays.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

OUTSIDE = "outside"
OTHER = "gaugetherm.other"
CLI = "cli"
PROTOCOL_BUILD = "models.protocol_build"

# module -> public functions, each traced as "<module>.<function>"
NAMED = {
    "dynamics": ("evolve", "ledger", "integration_tolerance", "work_heat_series",
                 "clausius_report", "connection_cross_check"),
    "gauge": ("cluster_spectrum", "twirl", "sample_gauge_element", "twirl_oracle"),
    "invariants": ("entropy_report", "level_distribution"),
    "linalg": ("gibbs_state", "bures_angle", "relative_entropy"),
    "fluctuation": ("build_ensemble", "verify_ft", "sample_trajectories"),
    "models": ("third_law_scan",),
}
# layers that group functions: span name -> (module, functions)
GROUPED = {
    PROTOCOL_BUILD: ("models", ("landau_zener_protocol", "curie_weiss_protocol",
                                "random_protocol", "build_protocol")),
    CLI: ("cli", ("main",)),
}
EIGEN = ("eigh", "eigvalsh")

# span names reported with call counts and with self times
CALL_COUNTS = ("gauge.cluster_spectrum", "gauge.twirl", "linalg.gibbs_state")
SELF_TIMES = (
    "dynamics.evolve", "gauge.cluster_spectrum", "gauge.twirl",
    "dynamics.ledger", "invariants.entropy_report", "invariants.level_distribution",
    "linalg.gibbs_state", "linalg.bures_angle", "linalg.relative_entropy",
    "dynamics.integration_tolerance", "dynamics.work_heat_series",
    "dynamics.clausius_report", "dynamics.connection_cross_check",
    "fluctuation.build_ensemble", "fluctuation.verify_ft", "fluctuation.sample_trajectories",
    "gauge.sample_gauge_element", "gauge.twirl_oracle",
    PROTOCOL_BUILD, "models.third_law_scan", CLI, OTHER, OUTSIDE,
)
PEAKS = ("dynamics.evolve.result_mb", "dynamics.ledger.peak_mb",
         "dynamics.integration_tolerance.peak_mb")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [(f"linalg.{k}_per_node", "1/node") for k in EIGEN]
    names += [(f"{s}.self_s", "s") for s in SELF_TIMES]
    names += [(f"{s}.calls", "count") for s in CALL_COUNTS]
    names += [(p, "MB") for p in PEAKS]
    names += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class Patches:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, modules, original, replacement):
        """Replace `original` wherever one of `modules` binds it."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def undo(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]


class SpanTracer:
    """Records (name, start, end, parent) spans and eigendecomposition counts."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.eigen = dict.fromkeys(EIGEN, 0)
        self._stack: list[int] = []
        self._patches = Patches()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def segment(self):
        """Root span around one timed segment of benchmark code."""
        idx = self._open(OUTSIDE)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, only_from_outside=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_from_outside and not (
                tracer._stack and tracer.spans[tracer._stack[-1]][0] == OUTSIDE
            ):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _count(self, key, fn):
        eigen = self.eigen

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            eigen[key] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            return fn(a, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _package_modules(self.package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        spans = {}  # original function -> span name
        for mod_name, funcs in NAMED.items():
            for f in funcs:
                spans[getattr(by_name[mod_name], f)] = f"{mod_name}.{f}"
        for span, (mod_name, funcs) in GROUPED.items():
            for f in funcs:
                spans[getattr(by_name[mod_name], f)] = span
        others = [
            fn
            for mod in modules[1:]
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__ and fn not in spans
        ]
        for fn, span in spans.items():
            self._patches.rebind(modules, fn, self._wrap(span, fn))
        for fn in others:
            self._patches.rebind(modules, fn, self._wrap(OTHER, fn, only_from_outside=True))
        protocol = by_name["dynamics"].Protocol
        self._patches.set(protocol, "__post_init__",
                          self._wrap(PROTOCOL_BUILD, protocol.__post_init__))
        for key in EIGEN:
            self._patches.set(np.linalg, key, self._count(key, getattr(np.linalg, key)))

    def uninstall(self) -> None:
        self._patches.undo()

    def layer_metrics(self, fine_nodes: int) -> dict:
        """Eigendecompositions per fine grid node, self times, call counts, wall time."""
        self_s = dict.fromkeys(SELF_TIMES, 0.0)
        calls: dict[str, int] = {}
        wall = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                wall += dur
        out = {f"linalg.{k}_per_node": self.eigen[k] / fine_nodes for k in EIGEN}
        out.update({f"{s}.self_s": v for s, v in self_s.items()})
        out.update({f"{s}.calls": calls.get(s, 0) for s in CALL_COUNTS})
        out["trace.wall_s"] = wall
        return out


class MemoryProbe:
    """Largest evolve result and tracemalloc peaks of ledger and integration_tolerance.

    tracemalloc slows every Python allocation, so a peak is taken only on a
    call whose protocol is larger (nodes x dim^2) than any the function has
    seen in the round; the figures are those of the round's largest protocol.
    """

    def __init__(self, package):
        self.package = package
        self.peaks = dict.fromkeys(PEAKS, 0.0)
        self._largest: dict[str, int] = {}
        self._patches = Patches()

    def _sized(self, key, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            peaks[key] = max(peaks[key], _array_bytes(out) / 2**20)
            return out

        return wrapper

    def _peak(self, key, fn):
        peaks, largest = self.peaks, self._largest

        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            size = p.n_nodes * p.dim**2
            if size <= largest.get(key, 0) or tracemalloc.is_tracing():
                return fn(p, *args, **kwargs)
            largest[key] = size
            tracemalloc.start()
            try:
                return fn(p, *args, **kwargs)
            finally:
                peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        return wrapper

    def install(self) -> None:
        modules = _package_modules(self.package)
        dyn = next(m for m in modules if m.__name__.endswith(".dynamics"))
        self._patches.rebind(modules, dyn.evolve,
                             self._sized("dynamics.evolve.result_mb", dyn.evolve))
        for f in ("ledger", "integration_tolerance"):
            fn = getattr(dyn, f)
            self._patches.rebind(modules, fn, self._peak(f"dynamics.{f}.peak_mb", fn))

    def uninstall(self) -> None:
        self._patches.undo()
