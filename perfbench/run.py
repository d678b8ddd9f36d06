"""Performance benchmark of the NVOverlay reproduction: one command.

    python3 perfbench/run.py --workload uniform_64c --seed 1 --seconds 30 --trace 0

``--workload`` takes a name from ``perfbench/suite.py``, a comma list
or ``all`` (the default).  Each workload runs in its own process, so
``peak_rss_mb`` belongs to that workload.  With ``--trace 0`` the
command reports the end-to-end metrics of untraced repeats, after
timing set-up (import plus cell construction) in several fresh
interpreters; with ``--trace 1`` it reports the per-layer metrics of
traced repeats.  Every metric is printed by name with its unit, the
full result is written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``
and the last line of stdout is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The exit code is 0 when every cell's outputs checked out, 1 when some
did not, and 2 when the benchmark could not run at all (for example
in a directory without the ``src/repro`` sources).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List

import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
#: One probe takes ~0.2 s and varies by ~30% on a shared host.
SETUP_PROBES = 11
#: Hard cap on one workload's wall time, probes included.
WORKLOAD_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong output)."""


def _child(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``worker.py`` with ``args``; parse its last stdout line."""
    if timeout <= 0:
        raise BenchError("time budget exhausted before " + " ".join(args[:1]))
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Set-up probes (untraced only), then the measured worker."""
    started = monotonic()
    ident = ["--workload", name, "--seed", str(seed)]
    setup: List[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            remaining = WORKLOAD_BUDGET_S - (monotonic() - started)
            setup.append(_child(["setup", *ident], remaining)["setup_s"])
    remaining = WORKLOAD_BUDGET_S - (monotonic() - started)
    result = _child(
        ["measure", *ident, "--seconds", str(seconds), "--trace", str(int(trace))],
        remaining,
    )
    if not trace:
        result["setup_samples"] = setup
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def _report(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics; return them as ``{name: {value, unit}}``."""
    group = suite.PER_LAYER if result["trace"] else suite.END_TO_END
    name = result["workload"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in group:
        value = result["metrics"].get(metric.name)
        if value is None:
            continue
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        print(f"{name:18s} {metric.name:26s} {value:>16.6g} {metric.unit:11s} "
              f"[{metric.kind}]")
    for key, value in sorted(result.get("extra", {}).items()):
        print(f"{name:18s} {key:26s} {value:>16.6g} {'cycles':11s} [simulated]")
    check = result["check"]
    recorded = "recorded seed" if result["recorded_seed"] else "seed not recorded"
    print(f"{name:18s} output check: {check['failed']} of {check['attempted']} "
          f"cells failed ({recorded})")
    for line in check["mismatches"][:10] + result["errors"][:3]:
        print(f"{name:18s}   {line}")
    return metrics


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="NVOverlay reproduction performance benchmark"
    )
    parser.add_argument("--workload", default="all",
                        help="workload name, comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload (at least one repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(suite.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in suite.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(suite.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        reported = _report(result)
        if len(results) == 1:
            metrics = reported
        else:
            metrics.update({f"{result['workload']}/{k}": v for k, v in reported.items()})
    attempted = sum(r["check"]["attempted"] for r in results)
    failed = sum(r["check"]["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
