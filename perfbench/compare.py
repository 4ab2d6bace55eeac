"""Compare two sets of benchmark results, metric by metric and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/compare.py --baseline DIR --compare DIR

Each directory holds result files written by ``run.py --out``; any mix
of workloads, seeds and trace settings.  For every end-to-end metric of
every workload the report gives each side's median and quartiles over
its untraced runs, the change of the medians, and a verdict against the
bound in ``BENCHMARK.json``:

* ``unresolved`` - one side's quartile spread exceeds the bound, and
  the runs do not separate (not every run of one side beats every run
  of the other);
* ``worse`` - the compare median is worse than the baseline's by more
  than the bound;
* ``better`` - it is better by more than the baseline's own spread;
* ``same`` - otherwise.

The traced runs then give the per-span self times (us per plan) side by
side, so a change can be traced to the layer that moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> List[dict]:
    """Every result document in a directory, in name order."""
    docs = []
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") == "perfbench/v1":
            docs.append(doc)
    return docs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def series(docs: Sequence[dict], traced: bool, key: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> name -> values, from the runs with the given trace flag.

    ``key`` is ``"metrics"`` (value per metric) or ``"self_us_per_plan"``.
    """
    out: Dict[str, Dict[str, List[float]]] = {}
    for doc in docs:
        if bool(doc["environment"]["trace"]) != traced:
            continue
        for workload, result in doc["workloads"].items():
            for name, value in result.get(key, {}).items():
                if isinstance(value, list):  # [value, unit] metric pairs
                    value = value[0]
                out.setdefault(workload, {}).setdefault(name, []).append(float(value))
    return out


def verdict(base: List[float], comp: List[float], bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0
    if max(spread(base), spread(comp)) > bound:
        if all(sign * c > sign * b for c in comp for b in base):
            return "better (every run)"
        if all(sign * c < sign * b for c in comp for b in base):
            return "worse (every run)"
        return "unresolved"
    b_med, c_med = quartiles(base)[1], quartiles(comp)[1]
    change = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if change < -bound:
        return "worse"
    if change > spread(base):
        return "better"
    return "same"


def benchmark_metrics(path: Path) -> Dict[str, dict]:
    """End-to-end metric specs (unit, direction, bound) by name."""
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def report(base_docs: List[dict], comp_docs: List[dict], specs: Dict[str, dict]) -> str:
    lines = [f"{len(base_docs)} baseline / {len(comp_docs)} compare result files", ""]
    base, comp = series(base_docs, False, "metrics"), series(comp_docs, False, "metrics")
    header = (f"{'workload':12s} {'metric':16s} {'unit':6s} "
              f"{'baseline median [q1, q3]':>34s} {'compare median [q1, q3]':>34s} "
              f"{'change':>8s}  verdict")
    lines.append(header)
    for workload in sorted(set(base) | set(comp)):
        for name, spec in specs.items():
            b, c = base.get(workload, {}).get(name), comp.get(workload, {}).get(name)
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            change = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            lines.append(
                f"{workload:12s} {name:16s} {spec['unit']:6s} "
                f"{bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(70)
                + f"{cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".rjust(35)
                + f" {change:+8.1%}  "
                + verdict(b, c, spec["bound"], spec["better"] == "higher")
            )
    base_t = series(base_docs, True, "self_us_per_plan")
    comp_t = series(comp_docs, True, "self_us_per_plan")
    if base_t or comp_t:
        lines += ["", "self time per plan (us), medians of the traced runs", (
            f"{'workload':12s} {'span':30s} {'baseline':>12s} {'compare':>12s} {'ratio':>8s}")]
        for workload in sorted(set(base_t) | set(comp_t)):
            names = sorted(set(base_t.get(workload, {})) | set(comp_t.get(workload, {})))
            for name in names:
                b = base_t.get(workload, {}).get(name)
                c = comp_t.get(workload, {}).get(name)
                b_med = statistics.median(b) if b else None
                c_med = statistics.median(c) if c else None
                ratio = f"{c_med / b_med:8.3f}" if b_med and c_med else f"{'-':>8s}"
                lines.append(
                    f"{workload:12s} {name:30s} {_fmt(b_med):>12s} {_fmt(c_med):>12s} {ratio}"
                )
    return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--compare", required=True, type=Path)
    parser.add_argument("--benchmark", type=Path, default=_ROOT / "BENCHMARK.json",
                        help="metric units, directions and bounds")
    args = parser.parse_args(argv)
    base_docs, comp_docs = load(args.baseline), load(args.compare)
    if not base_docs or not comp_docs:
        print("compare: each side needs at least one result file", file=sys.stderr)
        return 2
    print(report(base_docs, comp_docs, benchmark_metrics(args.benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
