"""One workload in one process: set up, time a closed loop, gate, report.

Run by ``run.py`` in a fresh interpreter per workload, so that the peak
resident set it reports belongs to that workload alone.  It prints one
JSON object on stdout and nothing else there.

    python3 bench/harness.py WORKLOAD SEED SECONDS TRACE SIZE

Timings are reported at a reference host speed.  Shared hosts change speed
by up to 2x for seconds at a time, which no run length averages away; the
program and a fixed calibration kernel slow down alike when the kernel's
working set is like the workload's, so each workload names a kernel size,
and each operation's wall time is divided by the kernel's time measured
around it and multiplied by the kernel's reference time.  The raw
wall-clock figures are reported beside them.
"""

import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tetsubdiv  # noqa: E402  (after the path is set)

if not os.path.abspath(tetsubdiv.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"tetsubdiv imported from {tetsubdiv.__file__}, not from {SRC}")

from checks import sha256  # noqa: E402
from tracing import MemoryPass, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 1
TAIL_MIN_BEYOND = 10
# reference time of the calibration kernel per item: its 500-item median on
# an unloaded 2-vCPU VM with Python 3.11 was 300 us
REFERENCE_ITEM_S = 0.6e-6


def _kernel(items: int) -> int:
    # Fixed pure-Python work of the package's kind (tuples, dicts, floats,
    # string formatting).  It must never change: it defines the time unit.
    seen = {}
    lines = []
    for i in range(items):
        seen[(i, i * 7 % 13, i ^ 5)] = len(seen)
        lines.append(f"{i} {i * 0.5}")
    return len("\n".join(lines)) + len(seen)


def kernel_time(items: int, reps: int) -> float:
    """Median wall time of ``reps`` runs of the calibration kernel.

    The cyclic collector is off meanwhile: its cost grows with the heap the
    workload holds, and the kernel must measure the host, not the workload.
    """
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            _kernel(items)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Runs operations one at a time (one client, closed loop), calibrates and gates each."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.attempted = 0
        self.problems: list[str] = []
        self.items, self.reps = workload.calibration
        self.kernel = kernel_time(self.items, self.reps)
        self.kernels: list[float] = []

    def scale(self, before: float) -> float:
        """Factor to the reference speed for work done since ``before`` was measured."""
        self.kernel = kernel_time(self.items, self.reps)
        self.kernels.append(self.kernel)
        return self.items * REFERENCE_ITEM_S / ((before + self.kernel) / 2)

    def run(self, i: int, around=None) -> tuple[float, float, int]:
        """Run operation ``i``: its wall seconds, its seconds at the reference
        speed, and its tets if it passed the gate.

        The operation may call ``lap()`` between its steps.  The kernel then
        runs there, outside the timed region, so a long operation is scaled
        by the host speed measured around each step, not only around the whole.
        """
        inputs = self.wl.prepare(i)
        wall = scaled = start = 0.0

        def stop() -> None:
            nonlocal wall, scaled
            elapsed = time.perf_counter() - start
            before = self.kernel
            wall += elapsed
            scaled += elapsed * self.scale(before)

        def lap() -> None:
            nonlocal start
            stop()
            start = time.perf_counter()

        if around is not None:
            around(True, i)
        start = time.perf_counter()
        try:
            output, error = self.wl.op(inputs, lap), None
        except Exception as exc:  # a raising operation is a failed one
            output, error = None, f"op {i} raised {type(exc).__name__}: {exc}"
        stop()
        if around is not None:
            around(False, i)
        self.attempted += 1
        problems = [error] if error else self.wl.check(inputs, output)
        if problems:
            self.problems.append(f"op {i}: {'; '.join(problems)}")
            return wall, scaled, 0
        return wall, scaled, self.wl.tets(inputs)

    @property
    def failed(self) -> int:
        return len(self.problems)


def _import_package() -> None:
    """Import the package afresh, then put the modules already in use back."""
    in_use = {name: module for name, module in sys.modules.items()
              if name == "tetsubdiv" or name.startswith("tetsubdiv.")}
    for name in in_use:
        del sys.modules[name]
    try:
        importlib.import_module("tetsubdiv.cli")
    finally:
        sys.modules.update(in_use)


def _setup(wl, seed: int, scratch: str, runner: Runner) -> tuple[float, float]:
    """Median over the workload's ``setup_reps`` of a fresh package import, input
    generation and one warm-up operation; returns it at the reference speed and
    as wall seconds."""
    scaled, wall = [], []
    for rep in range(wl.setup_reps):
        if rep:
            wl.close()
        before = runner.kernel
        start = time.perf_counter()
        _import_package()
        wl.setup(seed, scratch)
        wl.op(wl.prepare(0), lambda: None)
        wall.append(time.perf_counter() - start)
        scaled.append(wall[-1] * runner.scale(before))
    return statistics.median(scaled), statistics.median(wall)


def _reference_problems(wl, scratch: str) -> list[str]:
    """Compare every export byte stream of the reference seed with the recorded digests."""
    wl.setup(REFERENCE_SEED, scratch)
    try:
        digests = [sha256(data) for data in wl.reference_streams()]
    finally:
        wl.close()
    if digests != wl.recorded:
        changed = sum(a != b for a, b in zip(digests, wl.recorded))
        changed += abs(len(digests) - len(wl.recorded))
        return [f"{changed} of {len(wl.recorded)} reference byte streams differ from the recorded digests"]
    return []


def _tail(latencies: list[float]) -> dict | None:
    """Highest of the usual percentiles with at least TAIL_MIN_BEYOND samples beyond it."""
    n = len(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            ranked = sorted(latencies)
            return {"percentile": pct, "value_ms": 1e3 * ranked[n - beyond - 1],
                    "samples": n, "beyond": beyond}
    return None


def timed_run(wl, seed: int, seconds: float, scratch: str) -> dict:
    runner = Runner(wl)
    setup_s, setup_wall_s = _setup(wl, seed, scratch, runner)
    wall: list[float] = []
    scaled: list[float] = []
    passed = tets = 0
    # whole cycles only, so every run sees the same mix of orders
    while sum(wall) < seconds:
        for _ in range(wl.cycle):
            elapsed, at_reference, done = runner.run(len(wall))
            wall.append(elapsed)
            scaled.append(at_reference)
            passed, tets = passed + (done > 0), tets + done
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final = wl.final_check()
    wl.close()

    def rates(times: list[float]) -> dict[str, float]:
        # totals over the whole timed phase, so a slowdown of any share of
        # the operations moves them
        return {"ops_per_s": passed / sum(times), "tets_per_s": tets / sum(times)}

    metrics = {**rates(scaled), "op_p50_ms": 1e3 * statistics.median(scaled),
               "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    wall_clock = {**rates(wall), "op_p50_ms": 1e3 * statistics.median(wall), "setup_s": setup_wall_s}
    extra = {"samples": len(wall), "cycles": len(wall) // wl.cycle, "timed_s": sum(wall),
             "setup_reps": wl.setup_reps,
             "tail": _tail(scaled), "wall_clock": wall_clock,
             "kernel_us": 1e6 * statistics.median(runner.kernels),
             "kernel_reference_us": 1e6 * runner.items * REFERENCE_ITEM_S}
    return {"runner": runner, "final": final, "metrics": metrics, "extra": extra}


def traced_run(wl, seed: int, scratch: str, spans_path: str) -> dict:
    runner = Runner(wl)
    _setup(wl, seed, scratch, runner)
    ops = range(wl.trace_ops)
    untraced = 0.0
    for i in ops:
        untraced += runner.run(i)[1]

    tracer = Tracer()

    def toggle(on: bool, i: int) -> None:
        tracer.active, tracer.op = on, i

    traced = 0.0
    tracer.install()
    try:
        for i in ops:
            elapsed, at_reference, _ = runner.run(i, toggle)
            tracer.scales[i] = at_reference / elapsed
            traced += at_reference
    finally:
        tracer.uninstall()

    memory = MemoryPass()

    def measure(on: bool, i: int) -> None:
        memory.active = on

    memory.install()
    try:
        for i in range(wl.memory_ops):
            runner.run(i, measure)
    finally:
        memory.uninstall()
    final = wl.final_check()
    wl.close()
    tracer.write_spans(spans_path)

    stats = tracer.stats()
    stats.update(memory.peaks)
    stats["trace.overhead_ratio"] = traced / untraced
    stats["trace.untraced_s"] = untraced
    names = [m["name"] for m in _load(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]]
    metrics = {name: float(stats.get(name, 0)) for name in names}
    extra = {"samples": len(ops), "spans": len(tracer.spans), "spans_path": spans_path,
             "kernel_us": 1e6 * statistics.median(runner.kernels)}
    return {"runner": runner, "final": final, "metrics": metrics, "extra": extra}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, size = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = WORKLOADS[name](smoke=size == "smoke")
    wl.recorded = _load(os.path.join(BENCH, "digests.json"))[size][name]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    gc.collect()
    if trace:
        spans_path = os.path.join(out_dir, f"spans-{name}-{size}-seed{seed}.jsonl")
        result = traced_run(wl, seed, out_dir, spans_path)
    else:
        result = timed_run(wl, seed, seconds, out_dir)
    runner = result["runner"]
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:8] + result["final"] + _reference_problems(wl, out_dir),
        "metrics": result["metrics"],
        "extra": result["extra"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
