"""Per-layer figures of a traced run, from its spans and counters.

Timings come from the spans the benchmark's wrappers recorded (see
``spans.py``); counts come from the public stats dataclasses
(``ServiceStats``, ``CacheStats``, ``StoreStats``, ``DispatcherStats``,
``RouterStats``, ``ServerStats``) as the server's stats frame reports
them, taken as the change over the measured phase.  Only spans of
requests in the measured stream count, so set-up and warm-up work stays
out (except the artifact build, which happens at set-up by design).

Every figure is reported on every workload; a layer that is not on a
workload's path reads 0 there.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.spans import END, NAME, PARENT, RID, START, TAG, self_times
from perfbench.workloads import Phase

DP_SOLVES = ("dp.solve", "dp.solve_batch")
SERVER_ROOTS = (
    "wire.decode_request",
    "dispatcher.submit",
    "router.request",
    "router.request_batch",
    "wire.encode_response",
)
SHARDS = 3

#: name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "dp.solve_ms": "ms",
    "dp.solve_calls": "count",
    "dp.solve_batch_ms_per_problem": "ms",
    "dp.solve_batch_calls": "count",
    "dp.batch_width_mean": "count",
    "dp.expand_share": "share",
    "dp.select_share": "share",
    "dp.self_ms": "ms",
    "dp.server_share": "share",
    "planner.min_trip_time_ms": "ms",
    "planner.min_trip_time_calls": "count",
    "planner.plan_batch_ms_per_problem": "ms",
    "planner.signal_constraints_us": "us",
    "planner.signal_constraints_calls": "count",
    "service.hit_us": "us",
    "service.hit_share": "share",
    "service.reval_miss_share": "share",
    "service.errors": "count",
    "plan_cache.evictions": "count",
    "router.self_us": "us",
    **{f"router.shard{i}.requests": "count" for i in range(SHARDS)},
    "dispatcher.queue_wait_us": "us",
    "dispatcher.leaders": "count",
    "dispatcher.coalesced": "count",
    "wire.encode_request_us": "us",
    "wire.decode_response_us": "us",
    "wire.decode_request_us": "us",
    "wire.encode_response_us": "us",
    "server.self_us": "us",
    "server.peak_in_flight": "count",
    "server.busy_rejections": "count",
    "server.drain_pending_tasks": "count",
    "store.builds": "count",
    "store.hits": "count",
    "artifacts.build_s": "s",
    # Replan states the stream redrew because the planner serves an
    # invalid plan at a stop line (see ``workloads.replans_for``).
    "workload.replans_redrawn_at_stop_line": "count",
    "trace.cpu_ms_per_plan": "ms",
    "trace.overhead_share": "share",
    # The vehicle-side view of the untraced stream: figures that do not
    # repeat within a tenth on a shared 2-core VM, or that only some
    # workloads have (0 elsewhere).
    "client.plans_per_s": "1/s",
    "client.latency_ms_p50": "ms",
    "client.latency_ms_p90": "ms",
    "client.trip_ms_p50": "ms",
    "client.replan_ms_p50": "ms",
    "client.replan_ms_p90": "ms",
    "client.batch_ms_p50": "ms",
    "client.cpu_ms_per_plan": "ms",
}

#: Untraced figures reported under ``client.*`` (their ``Phase.e2e`` names).
CLIENT_FIGURES = {
    "client.plans_per_s": "plans_per_s",
    "client.latency_ms_p50": "latency_ms_p50",
    "client.latency_ms_p90": "latency_ms_p90",
    "client.trip_ms_p50": "trip_ms_p50",
    "client.replan_ms_p50": "replan_ms_p50",
    "client.replan_ms_p90": "replan_ms_p90",
    "client.batch_ms_p50": "batch_ms_p50",
    "client.cpu_ms_per_plan": "client_cpu_ms_per_plan",
}


def _delta(before: dict, after: dict, section: str, key: str) -> float:
    return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    """Spans of the measured stream, grouped by name."""

    def __init__(self, spans: Sequence[list], measured_ids: Iterable[str]) -> None:
        ids = set(measured_ids)
        self.spans = spans
        self.self_ns = self_times(spans) if spans else []
        self.by_name: Dict[str, List[int]] = {}
        for i, span in enumerate(spans):
            if span[RID] in ids:
                self.by_name.setdefault(span[NAME], []).append(i)

    def of(self, *names: str) -> List[int]:
        return [i for name in names for i in self.by_name.get(name, ())]

    def dur(self, i: int) -> int:
        return self.spans[i][END] - self.spans[i][START]

    def total_ns(self, *names: str) -> int:
        return sum(self.dur(i) for i in self.of(*names))

    def mean_ns(self, *names: str) -> float:
        found = self.of(*names)
        return _ratio(sum(self.dur(i) for i in found), len(found))

    def width(self, *names: str) -> int:
        return sum(self.spans[i][TAG] for i in self.of(*names))


def per_layer(traced: Phase, untraced: Phase) -> Dict[str, Tuple[float, str]]:
    """Every per-layer figure of a traced run, as ``name -> (value, unit)``."""
    ids = {r.req.vehicle_id for r in traced.records}
    server = _Index(traced.server_spans, ids)
    client = _Index(traced.client_spans, ids)
    before, after = traced.stats_before, traced.stats_after
    ms, us = 1e-6, 1e-3
    values: Dict[str, float] = {}

    solves = server.of(*DP_SOLVES)
    values["dp.solve_ms"] = server.mean_ns("dp.solve") * ms
    values["dp.solve_calls"] = len(server.of("dp.solve"))
    batch_problems = server.width("dp.solve_batch")
    values["dp.solve_batch_ms_per_problem"] = _ratio(
        server.total_ns("dp.solve_batch") * ms, batch_problems
    )
    values["dp.solve_batch_calls"] = len(server.of("dp.solve_batch"))
    values["dp.batch_width_mean"] = _ratio(batch_problems, values["dp.solve_batch_calls"])
    dp_ns = server.total_ns(*DP_SOLVES)
    values["dp.expand_share"] = _ratio(server.total_ns("dp.expand"), dp_ns)
    values["dp.select_share"] = _ratio(server.total_ns("dp.select"), dp_ns)
    values["dp.self_ms"] = _ratio(sum(server.self_ns[i] for i in solves) * ms, len(solves))
    roots = [i for i in server.of(*SERVER_ROOTS) if server.spans[i][PARENT] < 0]
    values["dp.server_share"] = _ratio(dp_ns, sum(server.dur(i) for i in roots))

    floors = len(server.of("planner.min_trip_time")) + server.width(
        "planner.min_trip_time_batch"
    )
    values["planner.min_trip_time_ms"] = _ratio(
        server.total_ns("planner.min_trip_time", "planner.min_trip_time_batch") * ms,
        floors,
    )
    values["planner.min_trip_time_calls"] = floors
    # plan_batch called by min_trip_time_batch is a floor, counted above.
    plan_batches = [
        i for i in server.of("planner.plan_batch")
        if server.spans[i][PARENT] < 0
        or server.spans[server.spans[i][PARENT]][NAME] != "planner.min_trip_time_batch"
    ]
    values["planner.plan_batch_ms_per_problem"] = _ratio(
        sum(server.dur(i) for i in plan_batches) * ms,
        sum(server.spans[i][TAG] for i in plan_batches),
    )
    values["planner.signal_constraints_us"] = (
        server.mean_ns("planner.signal_constraints") * us
    )
    values["planner.signal_constraints_calls"] = len(
        server.of("planner.signal_constraints")
    )

    hits = [i for i in server.of("service.request") if server.spans[i][TAG] == "hit"]
    values["service.hit_us"] = _ratio(sum(server.dur(i) for i in hits) * us, len(hits))
    d_hits = _delta(before, after, "service", "cache_hits")
    d_misses = _delta(before, after, "service", "cache_misses")
    d_requests = _delta(before, after, "service", "requests")
    values["service.hit_share"] = _ratio(d_hits, d_hits + d_misses)
    values["service.reval_miss_share"] = _ratio(
        _delta(before, after, "service", "revalidation_misses"), d_requests
    )
    values["service.errors"] = _delta(before, after, "service", "errors")
    values["plan_cache.evictions"] = _delta(before, after, "plan_cache", "evictions")

    routed = server.of("router.request", "router.request_batch")
    values["router.self_us"] = _ratio(
        sum(server.self_ns[i] for i in routed) * us, len(routed)
    )
    shards_before = before.get("router", {}).get("per_shard", [0] * SHARDS)
    shards_after = after.get("router", {}).get("per_shard", [0] * SHARDS)
    for i in range(SHARDS):
        values[f"router.shard{i}.requests"] = shards_after[i] - shards_before[i]

    submit_end = {server.spans[i][RID]: server.spans[i][END] for i in server.of("dispatcher.submit")}
    waits = [
        server.spans[i][START] - submit_end[server.spans[i][RID]]
        for i in server.of("router.request")
        if server.spans[i][RID] in submit_end
    ]
    values["dispatcher.queue_wait_us"] = _ratio(sum(waits) * us, len(waits))
    values["dispatcher.leaders"] = _delta(before, after, "dispatcher", "leaders")
    values["dispatcher.coalesced"] = _delta(before, after, "dispatcher", "coalesced")

    values["wire.encode_request_us"] = client.mean_ns("wire.encode_request") * us
    values["wire.decode_response_us"] = client.mean_ns("wire.decode_response") * us
    values["wire.decode_request_us"] = server.mean_ns("wire.decode_request") * us
    values["wire.encode_response_us"] = server.mean_ns("wire.encode_response") * us

    server_ns: Dict[str, int] = {}
    for i in roots:
        rid = server.spans[i][RID]
        server_ns[rid] = server_ns.get(rid, 0) + server.dur(i)
    round_trips = client.of("client.request")
    values["server.self_us"] = _ratio(
        sum(client.self_ns[i] - server_ns.get(client.spans[i][RID], 0) for i in round_trips)
        * us,
        len(round_trips),
    )
    values["server.peak_in_flight"] = after.get("server", {}).get("peak_in_flight", 0)
    values["server.busy_rejections"] = _delta(before, after, "server", "busy_rejections")
    values["server.drain_pending_tasks"] = traced.pending_tasks + untraced.pending_tasks

    values["store.builds"] = after.get("artifact_store", {}).get("misses", 0)
    values["store.hits"] = after.get("artifact_store", {}).get("hits", 0)
    values["artifacts.build_s"] = sum(
        span[END] - span[START] for span in traced.server_spans
        if span[NAME] == "artifacts.build"
    ) * 1e-9

    values["workload.replans_redrawn_at_stop_line"] = untraced.notes.get(
        "replan_states_redrawn_at_stop_line", 0
    )

    plain = untraced.e2e()
    traced_cpu = traced.e2e()["cpu_ms_per_plan"]
    values["trace.cpu_ms_per_plan"] = traced_cpu
    values["trace.overhead_share"] = traced_cpu / plain["cpu_ms_per_plan"] - 1.0
    for name, figure in CLIENT_FIGURES.items():
        values[name] = plain.get(figure, 0.0)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
