"""Span tracing and the tracemalloc memory pass, done from outside the package.

For the traced run only, the public functions of each layer are replaced
with recording wrappers by patching module attributes: every module of the
package that holds the original function object gets the wrapper, so calls
between layers (``cli`` to ``connectivity.generate``, ``io`` to
``validation.build_face_incidence``) are seen too.  Nothing under ``src/``
knows about it.

Spans carry a name, start, end, parent and operation id; they stay in
memory and are written out when the run ends.  The hot lattice helpers get
counting wrappers instead of spans, since a span per call would cost more
than the call.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Any, Callable

import tetsubdiv
from tetsubdiv import cli, connectivity, lattice, validation
from tetsubdiv import io as tio

LAYERS = {"cli": cli, "connectivity": connectivity, "lattice": lattice,
          "validation": validation, "io": tio}

SPANNED = {
    "cli": ("run",),
    "connectivity": ("generate",),
    "io": ("apply_ordering_permutation", "read_field", "read_json", "write_json",
           "write_off_boundary", "write_vtk_legacy"),
    "validation": ("validate", "build_face_incidence", "check_volumes", "check_face_pairing",
                   "check_boundary_congruence", "check_counts", "check_euler_characteristic",
                   "check_containment_sampling", "check_pairwise_disjoint"),
}
COUNTED = ("node_id", "node_barycentric")  # lattice; calls only
TIMED = ("linear_to_node",)  # lattice; calls and inclusive seconds
MEMORY = {"connectivity": ("generate",), "validation": ("validate",),
          "io": ("write_vtk_legacy", "write_json", "write_off_boundary", "read_json")}

MIB = 2**20


def _modules() -> list:
    return [tetsubdiv] + [sys.modules[m] for m in sorted(sys.modules) if m.startswith("tetsubdiv.")]


class _Patches:
    """Replaces a function everywhere the package refers to it, and undoes that."""

    def __init__(self) -> None:
        self.undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        for holder in [owner] + _modules():
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self.undo.append((holder, name, original))

    def restore(self) -> None:
        for holder, name, original in reversed(self.undo):
            setattr(holder, name, original)
        self.undo.clear()


def _nbytes(source: Any) -> int:
    return len(source.getbuffer()) if hasattr(source, "getbuffer") else 0


class Tracer:
    """Records spans and counts while ``active``; the harness toggles it around operations."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[tuple[str, int], float] = defaultdict(float)
        # operation id -> factor to the reference host speed, set by the harness
        self.scales: dict[int, float] = {}
        self.bytes: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.reports: list[Any] = []
        self._patches = _Patches()

    def install(self) -> None:
        for layer, names in SPANNED.items():
            for name in names:
                self._patches.replace(LAYERS[layer], name, self._span(layer, f"{layer}.{name}"))
        self._patches.replace(tio.PhysicalEmbedding, "node_position",
                              self._span("io", "io.PhysicalEmbedding.node_position"))
        for name in COUNTED + TIMED:
            self._patches.replace(lattice, name, self._count(f"lattice.{name}", name in TIMED))

    def uninstall(self) -> None:
        self._patches.restore()

    def _span(self, layer: str, name: str) -> Callable[[Callable], Callable]:
        spans, stack = self.spans, self.stack

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else None
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.errors[layer] += 1
                    raise
                finally:
                    spans[index] = (name, start, time.perf_counter(), parent, self.op)
                    stack.pop()
                self._observe(name, args, result)
                return result

            return wrapper

        return make

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if isinstance(result, bytes):
            self.bytes[name] += len(result)
        elif name == "io.read_json":
            self.bytes[name] += _nbytes(args[0])
        elif name == "validation.validate":
            self.reports.append(result)
        elif name == "cli.run" and result != 0:
            self.errors["cli"] += 1

    def _count(self, name: str, timed: bool) -> Callable[[Callable], Callable]:
        calls, seconds, errors = self.calls, self.seconds, self.errors

        def make(fn: Callable) -> Callable:
            def counted(*args, **kwargs):
                if self.active:
                    calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors["lattice"] += 1
                    raise

            def timed_call(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                calls[name] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors["lattice"] += 1
                    raise
                finally:
                    seconds[name, self.op] += time.perf_counter() - start

            return timed_call if timed else counted

        return make

    def stats(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds at the reference speed;
        counters; report counts."""
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, _, op) in enumerate(self.spans):
            scale = self.scales.get(op, 1.0)
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) * scale
            out[f"{name}.self_s"] += (end - start - child[index]) * scale
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for (name, op), secs in self.seconds.items():
            out[f"{name}.s"] += secs * self.scales.get(op, 1.0)
        for name, count in self.bytes.items():
            out[f"{name}.bytes"] = count
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(report_counts(self.reports))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def report_counts(reports: list[Any]) -> dict[str, float]:
    """Work counters read from validation reports; the accept ratio's base is draws."""
    totals = Counter()
    for report in reports:
        details = {c.name: c.details for c in report.checks}
        totals["faces"] += details["face-pairing"]["faces"]
        totals["boundary_faces"] += details["face-pairing"]["boundary_faces"]
        totals["containment.samples"] += details["containment-sampling"]["samples"]
        totals["containment.redraws"] += details["containment-sampling"]["redraws"]
        if not details["pairwise-disjoint"].get("skipped"):
            totals["pairwise.pairs"] += details["pairwise-disjoint"]["pairs"]
    draws = totals["containment.samples"] + totals["containment.redraws"]
    out = {f"validation.{key}": value for key, value in totals.items()}
    out["validation.containment.draws"] = draws
    out["validation.containment.accept_ratio"] = totals["containment.samples"] / draws if draws else 0.0
    return out


class MemoryPass:
    """Peak traced allocation of each top-level call, as ``<name>.peak_mb`` in MiB."""

    def __init__(self) -> None:
        self.peaks: dict[str, float] = {}
        self.active = False
        self._patches = _Patches()

    def install(self) -> None:
        for layer, names in MEMORY.items():
            for name in names:
                self._patches.replace(LAYERS[layer], name, self._measure(f"{layer}.{name}"))
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self._patches.restore()

    def _measure(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
                    self.peaks[f"{name}.peak_mb"] = max(self.peaks.get(f"{name}.peak_mb", 0.0), peak)

            return wrapper

        return make
