"""Benchmark of the tetsubdiv package: three workloads, end to end and per layer.

    python3 bench/run.py --workload export-many --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Each workload runs in a fresh child interpreter (``harness.py``), one after
another, with one client in a closed loop.  ``--trace 0`` times the loop with
tracing off and reports the end-to-end metrics; ``--trace 1`` runs a fixed
list of operations untraced, then traced, then under tracemalloc, and
reports the per-layer metrics.  ``--smoke`` uses tiny orders and finishes in
seconds.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run it from the repository root
or anywhere else; it reads the package from ``src/`` beside this directory
and writes only under ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("export-many", "export-large", "validate-mix")
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str) -> dict | None:
    """Run one workload in a fresh interpreter; None if it crashed or timed out."""
    out_dir = os.path.join(ROOT, ".bench_out")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               # no compiled-bytecode cache to find, so every run imports alike
               PYTHONPYCACHEPREFIX=os.path.join(out_dir, "no-pycache"))
    argv = [sys.executable, "-B", os.path.join(BENCH, "harness.py"),
            name, str(seed), str(seconds), str(trace), size]
    try:
        child = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = child.stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: {name} exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _summary(name: str, seed: int, result: dict, units: dict[str, str], trace: int) -> list[str]:
    extra = result["extra"]
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        head = (f"{name}: traced run, seed {seed}, {extra['samples']} operations, "
                f"{extra['spans']} spans in {os.path.relpath(extra['spans_path'], ROOT)}")
    else:
        head = (f"{name}: seed {seed}, {extra['samples']} operations in "
                f"{extra['timed_s']:.2f} s timed, one client, closed loop")
    totals = f"  (over all {extra.get('cycles')} whole cycles)"
    notes = {"ops_per_s": totals, "tets_per_s": totals,
             "op_p50_ms": f"  (median of {extra['samples']} operations)",
             "setup_s": f"  (median of {extra.get('setup_reps')} set-ups, each importing the package afresh)"}
    lines = [head]
    lines += [f"  {metric:<44} {value:.6g} {units[metric]}{'' if trace else notes.get(metric, '')}"
              for metric, value in result["metrics"].items()]
    if not trace:
        tail = extra["tail"]
        if tail:
            lines.append(f"  {'op_tail_ms':<44} {tail['value_ms']:.6g} ms  (p{tail['percentile']:g} "
                         f"of {tail['samples']} operations, {tail['beyond']} beyond it)")
        else:
            lines.append(f"  {'op_tail_ms':<44} not reported: {extra['samples']} operations "
                         f"leave fewer than 10 beyond p90")
        lines.append(f"  {'error_rate':<44} {failed / attempted:.6g}  "
                     f"({failed} failed of {attempted} attempted)")
        raw = ", ".join(f"{metric} {value:.6g}" for metric, value in extra["wall_clock"].items())
        lines.append(f"  times above are at the reference host speed: the calibration kernel "
                     f"took a median {extra['kernel_us']:.0f} us here against "
                     f"{extra['kernel_reference_us']:.0f} us")
        lines.append(f"  wall clock: {raw}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny orders, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "tetsubdiv", "__init__.py")):
        print(f"error: no tetsubdiv package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    size = "smoke" if args.smoke else "full"
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, size)
        if result is None:
            return 1
        print("\n".join(_summary(name, args.seed, result, units, args.trace)), flush=True)
        results[name] = result

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key(name, metric): {"value": value, "unit": units[metric]}
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
