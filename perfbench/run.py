"""The plan-serving benchmark: one command, three closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold|warm-wire|fleet-batch|all \\
        --seed N --seconds S --trace 0|1 [--out result.json]

Runs the workload against the real stack (``PlanServer`` ->
``PlanRouter`` -> ``CloudPlannerService`` -> planner -> ``DpSolver``
over ``builtin_catalog()``), checks every output (``gate.py``), and
prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the stream is served twice, untraced and then
traced, and the metrics are the per-layer ones (``layers.py``),
tracing overhead included.  A failed check exits 1 without metrics.

``--out`` also writes the full result (environment, the per-workload
design notes, every figure, per-span self times) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

SCHEMA = "perfbench/v1"

#: End-to-end metrics (tracing off), reported on every workload.
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "cpu_ms_per_plan": "ms",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
}

#: Why each workload exists, and what each layer change should move.
DESIGN: Dict[str, Any] = {
    "workloads": {
        "paper-cold": (
            "Paper grid, us25, one connection: cold full-trip DP solves, each "
            "followed by 6 replans from the vehicle's own plan. The serial DP "
            "kernel does ~99% of the work, the wire under 1%."
        ),
        "warm-wire": (
            "Coarse grid, 3 corridors, 2 connections: every measured request is "
            "a revalidated cache hit, so no DP runs and wire, server, dispatcher, "
            "router, cache and signal_constraints do all the work."
        ),
        "fleet-batch": (
            "Coarse grid, 3 corridors, in process: Poisson EV departures at "
            "FleetStudy's EV share of each corridor's traffic, served in 5-min "
            "windows through PlanRouter.request_batch with an hourly forecast "
            "update, so wide batched DP programs, batched min-time floors, hits "
            "and revalidation misses share one stream."
        ),
    },
    "predictions": [
        {"layer": "core.dp + core.engine.stage_kernel",
         "metrics": ["dp.solve_ms", "dp.solve_batch_ms_per_problem", "dp.batch_width_mean",
                     "dp.expand_share", "dp.select_share", "dp.self_ms"],
         "moves": ["paper-cold/cpu_ms_per_plan", "paper-cold/client.trip_ms_p50",
                   "paper-cold/client.replan_ms_p50", "fleet-batch/cpu_ms_per_plan",
                   "fleet-batch/client.plans_per_s"],
         "flat": ["warm-wire"]},
        {"layer": "core.planner",
         "metrics": ["planner.min_trip_time_ms", "planner.min_trip_time_calls",
                     "planner.plan_batch_ms_per_problem", "planner.signal_constraints_us",
                     "planner.signal_constraints_calls"],
         "moves": ["fleet-batch/cpu_ms_per_plan (floor)",
                   "warm-wire/cpu_ms_per_plan (signal_constraints)"],
         "flat": ["paper-cold"]},
        {"layer": "cloud.service + cloud.plan_cache",
         "metrics": ["service.hit_us", "service.hit_share", "service.reval_miss_share",
                     "service.errors", "plan_cache.evictions"],
         "moves": ["warm-wire/cpu_ms_per_plan", "fleet-batch/cpu_ms_per_plan"],
         "flat": ["paper-cold"]},
        {"layer": "cloud.router",
         "metrics": ["router.self_us", "router.shard<i>.requests"],
         "moves": ["warm-wire/cpu_ms_per_plan"],
         "flat": ["paper-cold", "fleet-batch"]},
        {"layer": "cloud.dispatcher",
         "metrics": ["dispatcher.queue_wait_us", "dispatcher.leaders", "dispatcher.coalesced"],
         "moves": ["warm-wire/cpu_ms_per_plan", "warm-wire/client.latency_ms_p50"],
         "flat": ["fleet-batch"]},
        {"layer": "cloud.wire + cloud.framing",
         "metrics": ["wire.decode_response_us", "wire.encode_request_us",
                     "wire.decode_request_us", "wire.encode_response_us"],
         "moves": ["warm-wire/cpu_ms_per_plan", "warm-wire/client.cpu_ms_per_plan"],
         "flat": ["fleet-batch", "paper-cold"]},
        {"layer": "cloud.server + cloud.netclient",
         "metrics": ["server.self_us", "server.peak_in_flight", "server.busy_rejections",
                     "server.drain_pending_tasks"],
         "moves": ["warm-wire/cpu_ms_per_plan"],
         "flat": ["fleet-batch"]},
        {"layer": "core.engine.store / artifacts",
         "metrics": ["store.builds", "store.hits", "artifacts.build_s"],
         "moves": ["setup_s on every workload"],
         "flat": ["measured phases"]},
        {"layer": "core.planner replan at a stop line (known defect)",
         "metrics": ["workload.replans_redrawn_at_stop_line"],
         "moves": ["paper-cold/ok_share once the stop-line states are served"],
         "flat": ["warm-wire", "fleet-batch"]},
    ],
    "not_covered": (
        "The single-flight dispatcher's revalidation race needs concurrent "
        "same-key revalidation misses, which no workload produces steadily."
    ),
}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(args, attempted: Dict[str, int], notes: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    from perfbench.stack import grid_dict

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "grids": {"paper": grid_dict("paper"), "coarse": grid_dict("coarse")},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": attempted,
        "notes": notes,
        "commit": git_commit(_ROOT),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Serve one workload (twice when traced); gate; collect every figure."""
    from perfbench import gate, layers, spans
    from perfbench.workloads import ATTEMPTS, PHASES, SETUP_REPEATS

    attempts = 1 if trace else ATTEMPTS
    untraced = PHASES[workload](seed, seconds, False, SETUP_REPEATS, attempts)
    failures = gate.check(workload, untraced, seed)
    phases = [untraced]
    detail = untraced.e2e()
    result: Dict[str, Any] = {"detail": detail, "notes": untraced.notes}
    if trace:
        traced = PHASES[workload](seed, seconds, True, 1, attempts)
        failures += gate.check(workload, traced, seed)
        phases.append(traced)
        metrics = layers.per_layer(traced, untraced)
        result["self_us_per_plan"] = self_us_per_plan(traced, spans)
    else:
        metrics = {name: (detail[name], unit) for name, unit in E2E_UNITS.items()}
    result.update(
        failures=failures,
        attempted=sum(p.plans for p in phases),
        failed=sum(1 for p in phases for r in p.records if not r.ok),
        metrics=metrics,
    )
    return result


def self_us_per_plan(phase, spans) -> Dict[str, float]:
    """Self time per span name over the measured stream, per plan (us)."""
    ids = {r.req.vehicle_id for r in phase.records}
    totals: Dict[str, float] = {}
    for source in (phase.server_spans, phase.client_spans):
        for span, self_ns in zip(source, spans.self_times(source)):
            if span[spans.RID] in ids:
                totals[span[spans.NAME]] = totals.get(span[spans.NAME], 0.0) + self_ns
    return {name: ns * 1e-3 / phase.plans for name, ns in sorted(totals.items())}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Plan-serving benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "warm-wire", "fleet-batch", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {_ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # In-process workloads first: their peak RSS is this process's.
    names = (("fleet-batch", "paper-cold", "warm-wire") if args.workload == "all"
             else (args.workload,))
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    failures = [f"{name}: {f}" for name, r in results.items() for f in r["failures"]]
    if failures:
        for line in failures[:50]:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
        return 1

    from perfbench.layers import CLIENT_FIGURES, PER_LAYER_UNITS

    prefix = len(names) > 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        for metric, (value, unit) in result["metrics"].items():
            key = f"{name}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
            print(f"{name:12s} {metric:36s} {value:14.6g} {unit}")
        if not args.trace:
            # The untraced figures that are not end-to-end metrics; the
            # traced run reports them as per-layer client.* figures.
            for client_name, figure in CLIENT_FIGURES.items():
                if figure in result["detail"]:
                    value = result["detail"][figure]
                    unit = PER_LAYER_UNITS[client_name]
                    print(f"{name:12s} {client_name:36s} {value:14.6g} {unit}")
    attempted = {name: r["attempted"] for name, r in results.items()}
    env = environment(args, attempted, {name: r["notes"] for name, r in results.items()})
    print(json.dumps({"environment": env, "design": DESIGN}, sort_keys=True))
    if args.out:
        document = {"schema": SCHEMA, "environment": env, "design": DESIGN,
                    "workloads": {name: {k: v for k, v in r.items() if k != "failures"}
                                  for name, r in results.items()}}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": True,
        "attempted": sum(attempted.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
