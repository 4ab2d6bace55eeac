"""The three closed-loop workloads and the seeded request streams they send.

Each vehicle waits for its plan before it departs or acts, so every
workload is a closed loop: one request per connection is outstanding.
The program under test sees only the generated requests; the seed
decides everything else.

* ``paper-cold`` - paper grid, corridor ``us25``, one connection.  Cold
  full-trip solves, each followed by mid-route replans.
* ``warm-wire`` - coarse grid, three corridors, two connections.  Every
  measured request is a revalidated cache hit.
* ``fleet-batch`` - coarse grid, three corridors, in process.  Windows
  of Poisson departures through ``PlanRouter.request_batch`` with a
  forecast update (``clear_cache``) every few windows.

A stream's size follows from ``--seconds`` (a nominal cost per request
measured on a 2-core x86 VM, Python 3.11, numpy 2.4), not from the
clock, so both sides of a comparison serve the same requests.

Every workload is measured in small units (a request, a group of
requests, a batch window, a set-up) through ``speed.BestOf``: each unit
runs on the core that reads fast just before it, with the server and
the load generator together on that one core, and runs again when the
core read slow before or after it; a unit costs its cheapest attempt.
A traced run makes one attempt per unit (``ATTEMPTS``).  ``setup_s``
and ``cpu_ms_per_plan`` are reported at the reference speed of the
probe (``speed.SpeedProbe.scale``).
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.registry import builtin_catalog
from repro.cloud.stats import compose_stats_document

from perfbench import speed
from perfbench import spans as spans_mod
from perfbench.speed import BestOf, SpeedProbe, Tally
from perfbench.stack import GRIDS, ServerChild, build_router, peak_rss_mb

#: Common signal period of the built-in corridors (every cycle is 60 s).
PERIOD_S = 60.0
#: Phase-cache key resolution of the service defaults (s).
PHASE_QUANTUM_S = 1.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Attempts per measured unit at most (see ``speed.BestOf``).  A traced
#: run makes one, in both its untraced and traced halves, so spans and
#: counters see each request once and the tracing overhead compares
#: like with like.
ATTEMPTS = 4

# paper-cold
PAPER_CORRIDOR = "us25"
#: Replans per run at least.  About 2% of replans fail typed (a known
#: planner defect, see ``replans_for``), so ``ok_share`` moves in steps
#: of about half a percent at the stream sizes used.
MIN_REPLANS = 100
REPLANS_PER_TRIP = 6
#: Stream size: one vehicle per this many seconds of ``--seconds``.  A
#: vehicle (trip + replans, retries and speed readings included) takes
#: about 1.2 s of wall time on a 2-core VM.
PAPER_VEHICLE_S = 0.65
#: Range of the explicit trip budgets (s).
PAPER_BUDGET_S = (300.0, 420.0)
#: The set-up probe's budget: its cache key is in no stream.
PROBE_BUDGET_S = 452.5

# warm-wire
WARM_CONNECTIONS = 2
WARM_OFFSETS_PER_CORRIDOR = 12
#: Nominal warm round trips per second over two loopback connections.
WARM_REQUESTS_PER_S = 600.0
#: Requests per measured unit (split over the connections).
WARM_UNIT = 120

# fleet-batch
#: EVs as a share of each corridor's traffic: ``FleetStudy``'s default
#: EV rate (40 vph) over its default background traffic (300 vph).  On
#: the built-in corridors (300 / 420 / 180 vph) that is 40 / 56 / 24 EVs
#: per hour.
FLEET_EV_SHARE = 40.0 / 300.0
#: Simulated seconds per batch window: long enough that a window holds
#: several departures per corridor at the rates above.
FLEET_WINDOW_S = 300.0
#: Windows between forecast updates: one update an hour, the period the
#: catalog's hourly arrival rates describe.
FLEET_WINDOWS_PER_UPDATE = 12
#: Nominal batch windows served per second of wall time.
FLEET_WINDOWS_PER_S = 2.4

COARSE_CORRIDORS = ("us25", "elm-street", "airport-loop")


# ----------------------------------------------------------------------
# Records of one measured phase
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One request of a measured phase and what came back."""

    req: PlanRequest
    kind: str  # "trip", "replan", "request" or "batch"
    latency_s: float
    response: Optional[PlanResponse] = None
    error: Optional[str] = None
    window: int = -1  # batch window index (fleet-batch only)

    @property
    def ok(self) -> bool:
        return self.response is not None


@dataclass
class Phase:
    """Everything one run of a workload's stream measured."""

    grid: str
    setup_s: List[float]
    records: List[Record]
    wall_s: float
    server_cpu_s: float
    client_cpu_s: Optional[float]
    peak_rss_mb: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    batch_s: List[float] = field(default_factory=list)
    server_spans: List[list] = field(default_factory=list)
    client_spans: List[list] = field(default_factory=list)
    pending_tasks: int = 0
    notes: Dict[str, float] = field(default_factory=dict)
    #: Factor to the reference speed (``speed.SpeedProbe.scale``); applies
    #: to ``setup_s`` and ``cpu_ms_per_plan``.
    scale: float = 1.0

    @property
    def plans(self) -> int:
        return len(self.records)

    def e2e(self) -> Dict[str, float]:
        """The user-visible figures of this phase."""
        ok = [r for r in self.records if r.ok]
        latencies = [r.latency_s * 1e3 for r in self.records]
        out = {
            "setup_s": statistics.median(self.setup_s) * self.scale,
            "plans_per_s": len(ok) / self.wall_s,
            "cpu_ms_per_plan": self.server_cpu_s * 1e3 / self.plans * self.scale,
            "peak_rss_mb": self.peak_rss_mb,
            "ok_share": len(ok) / self.plans,
            "latency_ms_p50": percentile(latencies, 50),
            "latency_ms_p90": percentile(latencies, 90),
        }
        trips = [r.latency_s * 1e3 for r in self.records if r.kind == "trip"]
        replans = [r.latency_s * 1e3 for r in self.records if r.kind == "replan"]
        if trips:
            out["trip_ms_p50"] = percentile(trips, 50)
        if replans:
            out["replan_ms_p50"] = percentile(replans, 50)
            out["replan_ms_p90"] = percentile(replans, 90)
        if self.batch_s:
            out["batch_ms_p50"] = percentile([b * 1e3 for b in self.batch_s], 50)
        if self.client_cpu_s is not None:
            out["client_cpu_ms_per_plan"] = self.client_cpu_s * 1e3 / self.plans
        return out


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Seeded streams
# ----------------------------------------------------------------------
def _in_bin(rng: random.Random, bin_index: int, quantum: float) -> float:
    """A value strictly inside ``[bin*q, (bin+1)*q)``, clear of both edges."""
    return (bin_index + rng.uniform(0.05, 0.95)) * quantum


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """``n`` values, one uniform draw in each of ``n`` equal slices of
    ``[lo, hi)``, in seeded order: every seed covers the whole range."""
    width = (hi - lo) / n
    values = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(values)
    return values


def paper_cold_trips(seed: int, seconds: float) -> List[PlanRequest]:
    """Full-trip requests whose (phase, budget) cache keys never repeat.

    Phases are evenly spaced over the signal period (more than one phase
    quantum apart, so no two trips share a key) from a seeded offset,
    and budgets are stratified over 300-420 s; the slowest feasible
    us25 trip at the paper grid takes about 280 s.
    """
    rng = random.Random(seed)
    vehicles = max(
        math.ceil(MIN_REPLANS / REPLANS_PER_TRIP), math.ceil(seconds / PAPER_VEHICLE_S)
    )
    spacing = PERIOD_S / vehicles
    offset = rng.uniform(0.0, spacing)
    budgets = _stratified(rng, vehicles, PAPER_BUDGET_S[0], PAPER_BUDGET_S[1])
    return [
        PlanRequest(
            vehicle_id=f"pc-{seed}-{n}",
            depart_s=PERIOD_S * rng.randrange(1, 500) + offset + n * spacing,
            max_trip_time_s=budget,
            corridor_id=PAPER_CORRIDOR,
        )
        for n, budget in enumerate(budgets)
    ]


def replans_for(
    trip: PlanRequest,
    response: PlanResponse,
    seed: int,
    signals_m: Sequence[float],
    s_step_m: float,
) -> Tuple[List[PlanRequest], int]:
    """Mid-route replans at states taken from the vehicle's served plan.

    A state is a position drawn uniformly in each of ``REPLANS_PER_TRIP``
    equal slices of the middle 80% of the route, with the plan's
    ``arrival_time_at`` and ``speed_at`` there and the budget left to the
    trip's deadline; the draws come from the seed and the vehicle id.

    A position whose grid point (the solver snaps forward to the next
    ``s_step_m`` point) is a signal stop line is redrawn, and the redraws
    are counted and returned; the traced run reports them as the
    per-layer count ``workload.replans_redrawn_at_stop_line``.
    Replanning there today serves a plan the validator rejects, which
    the gate would refuse: ``QueueLengthModel.empty_windows`` clips the
    current window at the replan instant and the planner's margin then
    shrinks that clipped edge, so a vehicle at the stop line "arrives"
    before its own window opens.  Once that is fixed, drop the redraw.
    """
    rng = random.Random(f"{seed}/{trip.vehicle_id}")
    profile = response.profile
    length = float(profile.positions_m[-1])
    deadline = trip.depart_s + trip.max_trip_time_s
    slice_m = 0.8 * length / REPLANS_PER_TRIP
    positions: List[float] = []
    redrawn = 0
    while len(positions) < REPLANS_PER_TRIP:
        pos = (0.1 * length) + (len(positions) + rng.random()) * slice_m
        if any(s - s_step_m < pos <= s for s in signals_m):
            redrawn += 1
            continue
        positions.append(pos)
    replans = []
    for k, pos in enumerate(positions):
        now = profile.arrival_time_at(pos)
        replans.append(
            PlanRequest(
                vehicle_id=f"{trip.vehicle_id}-r{k}",
                depart_s=now,
                max_trip_time_s=deadline - now,
                position_m=pos,
                speed_ms=profile.speed_at(pos),
                corridor_id=trip.corridor_id,
            )
        )
    return replans, redrawn


def warm_offsets(seed: int) -> Dict[str, List[float]]:
    """Per corridor, the phase offsets the warm-up solves (distinct bins)."""
    rng = random.Random(seed)
    return {
        cid: [
            _in_bin(rng, b, PHASE_QUANTUM_S)
            for b in rng.sample(range(int(PERIOD_S)), WARM_OFFSETS_PER_CORRIDOR)
        ]
        for cid in COARSE_CORRIDORS
    }


def warm_warmup(offsets: Dict[str, List[float]]) -> List[PlanRequest]:
    return [
        PlanRequest(vehicle_id=f"ww-warm-{cid}-{i}", depart_s=PERIOD_S + off,
                    corridor_id=cid)
        for cid, offs in offsets.items()
        for i, off in enumerate(offs)
    ]


def warm_measured(
    seed: int, seconds: float, offsets: Dict[str, List[float]]
) -> List[PlanRequest]:
    """Budget-less requests at warm-up offsets shifted by whole periods.

    Corridors take turns and each corridor cycles through its offsets in
    a seeded order, so every seed spreads the load alike.
    """
    rng = random.Random(f"{seed}/measured")
    n = max(WARM_CONNECTIONS, round(seconds * WARM_REQUESTS_PER_S))
    order = {cid: rng.sample(offs, len(offs)) for cid, offs in offsets.items()}
    out = []
    for k in range(n):
        cid = COARSE_CORRIDORS[k % len(COARSE_CORRIDORS)]
        turn = k // len(COARSE_CORRIDORS)
        off = order[cid][turn % len(order[cid])]
        out.append(
            PlanRequest(
                vehicle_id=f"ww-{seed}-{k}",
                depart_s=PERIOD_S * rng.randrange(2, 5000) + off,
                corridor_id=cid,
            )
        )
    return out


def fleet_rates_per_s() -> Dict[str, float]:
    """EV departures per second on each corridor (``FLEET_EV_SHARE`` of
    the corridor's forecast traffic)."""
    catalog = builtin_catalog()
    return {
        cid: FLEET_EV_SHARE * catalog.spec(cid).arrival_rate_vph / 3600.0
        for cid in COARSE_CORRIDORS
    }


def fleet_windows(seed: int, seconds: float) -> List[List[PlanRequest]]:
    """Poisson departures on every corridor, grouped into batch windows."""
    rng = random.Random(seed)
    n_windows = max(FLEET_WINDOWS_PER_UPDATE, round(seconds * FLEET_WINDOWS_PER_S))
    horizon = n_windows * FLEET_WINDOW_S
    departures: List[Tuple[float, str]] = []
    for cid, rate in fleet_rates_per_s().items():
        t = rng.expovariate(rate)
        while t < horizon:
            departures.append((t, cid))
            t += rng.expovariate(rate)
    departures.sort()
    windows: List[List[PlanRequest]] = [[] for _ in range(n_windows)]
    for n, (t, cid) in enumerate(departures):
        windows[int(t // FLEET_WINDOW_S)].append(
            PlanRequest(vehicle_id=f"fb-{seed}-{n}", depart_s=t, corridor_id=cid)
        )
    return windows


def probe_requests(corridors: Sequence[str], tag: str) -> List[PlanRequest]:
    """One plan per corridor for the set-up; its cache key is in no stream."""
    return [
        PlanRequest(vehicle_id=f"probe-{tag}-{cid}", depart_s=PERIOD_S + 0.5,
                    max_trip_time_s=PROBE_BUDGET_S, corridor_id=cid)
        for cid in corridors
    ]


# ----------------------------------------------------------------------
# Wire phases (server in a child process)
# ----------------------------------------------------------------------
def error_text(exc: BaseException) -> str:
    """How a failed request is recorded: its error type and message."""
    return f"{type(exc).__name__}: {exc}"


def _timed(transport: NetworkPlanTransport, req: PlanRequest, kind: str) -> Record:
    t0 = time.perf_counter()
    try:
        response = transport.request(req)
    except Exception as exc:  # noqa: BLE001 - a failed request is a record
        return Record(req, kind, time.perf_counter() - t0, error=error_text(exc))
    return Record(req, kind, time.perf_counter() - t0, response=response)


def _start_server(
    grid: str, corridors: Sequence[str], trace: bool, setups: int, attempts: int,
    probe: SpeedProbe,
) -> Tuple[ServerChild, List[float], int, Tally]:
    """Launch the server ``setups`` times; keep the last one running.

    Each set-up is a unit of its own (``speed.BestOf`` on the wall
    clock), timed from the launch until one plan has been answered on
    every corridor the workload uses; the child starts on the core the
    unit runs on.  Also returns the pending-task warnings of the servers
    drained on the way.
    """
    meter = BestOf(probe, time.perf_counter, attempts)
    live: List[ServerChild] = []
    pending = [0]

    def retire() -> None:
        while live:
            pending[0] += live.pop().drain()["pending_tasks"]

    def launch(tag: str) -> None:
        child = ServerChild(grid, trace)
        live.append(child)
        with NetworkPlanTransport(*child.address, timeout_s=120.0) as transport:
            for req in probe_requests(corridors, tag):
                transport.request(req)

    times = []
    try:
        for i in range(setups):
            retire()
            cost, _ = meter.measure(lambda: launch(str(i)), reset=retire)
            times.append(cost)
    except BaseException:
        for child in live:
            child.kill()
        raise
    return live[0], times, pending[0], meter.tally


@dataclass
class _Unit:
    """What one unit of a wire phase did (first attempt)."""

    records: List[Record]
    wall_s: float
    client_cpu_s: float


def wire_phase(
    grid: str,
    corridors: Sequence[str],
    warmup: Sequence[PlanRequest],
    drive: Callable[..., List[Record]],
    connections: int,
    trace: bool,
    setups: int,
    attempts: int,
) -> Phase:
    """Serve a closed-loop stream over loopback TCP against a child server.

    ``drive(transports, unit, clear)`` sends the stream in units:
    ``unit(fn, reset=None)`` measures ``fn()`` (which returns the unit's
    records) as one ``speed.BestOf`` unit on the server's CPU time and
    returns its records; ``clear`` drops the server's cached plans.  The
    server, the driving thread and any thread it starts share the unit's
    core.
    """
    probe = SpeedProbe()
    probe.warm_up()
    child, setup_s, pending, setup_tally = _start_server(
        grid, corridors, trace, setups, attempts, probe
    )
    tracer = spans_mod.Tracer()
    transports = [
        NetworkPlanTransport(*child.address, timeout_s=120.0) for _ in range(connections)
    ]
    meter = BestOf(probe, child.cpu_seconds, attempts, place=child.pin)
    totals = {"server_cpu": 0.0, "wall": 0.0, "client_cpu": 0.0}

    def unit(fn: Callable[[], List[Record]], reset: Optional[Callable[[], None]] = None):
        def timed() -> _Unit:
            c0, t0 = time.process_time(), time.perf_counter()
            records = fn()
            return _Unit(records, time.perf_counter() - t0, time.process_time() - c0)

        cost, first = meter.measure(timed, reset)
        totals["server_cpu"] += cost
        totals["wall"] += first.wall_s
        totals["client_cpu"] += first.client_cpu_s
        return first.records

    try:
        for req in warmup:
            transports[0].request(req)
        stats_before = transports[0].server_stats()
        if trace:
            tracer.install(spans_mod.CLIENT_TARGETS)
        records = drive(transports, unit, child.clear_cache)
        tracer.uninstall()
        stats_after = transports[0].server_stats()
        peak = child.peak_rss_mb()
    except BaseException:
        tracer.uninstall()
        for transport in transports:
            transport.close()
        child.kill()
        raise
    for transport in transports:
        transport.close()
    report = child.drain()
    notes = speed.notes(probe, setup_tally, meter.tally)
    return Phase(
        grid=grid,
        setup_s=setup_s,
        records=records,
        wall_s=totals["wall"],
        server_cpu_s=totals["server_cpu"],
        client_cpu_s=totals["client_cpu"],
        peak_rss_mb=peak,
        stats_before=stats_before,
        stats_after=stats_after,
        server_spans=report.get("spans", []),
        client_spans=tracer.dump(),
        pending_tasks=pending + report["pending_tasks"],
        notes=notes,
        scale=probe.scale(),
    )


def paper_cold_phase(
    seed: int, seconds: float, trace: bool, setups: int, attempts: int
) -> Phase:
    """One connection; each request is a unit, served cold again (after a
    cache clear) when the core read slow around it."""
    trips = paper_cold_trips(seed, seconds)
    road = builtin_catalog().spec(PAPER_CORRIDOR).road
    signals_m = [site.position_m for site in road.signals]
    redrawn = [0]

    def drive(transports, unit, clear) -> List[Record]:
        transport = transports[0]
        out: List[Record] = []

        def serve(req: PlanRequest, kind: str) -> Record:
            # Every key of the stream is new, so after a cache clear the
            # request is served cold again.
            (record,) = unit(lambda: [_timed(transport, req, kind)], reset=clear)
            out.append(record)
            return record

        for trip in trips:
            record = serve(trip, "trip")
            if record.ok:
                replans, skipped = replans_for(
                    trip, record.response, seed, signals_m, GRIDS["paper"].s_step_m
                )
                redrawn[0] += skipped
                for replan in replans:
                    serve(replan, "replan")
        return out

    phase = wire_phase(
        "paper", (PAPER_CORRIDOR,), (), drive, 1, trace, setups, attempts
    )
    phase.notes["replan_states_redrawn_at_stop_line"] = redrawn[0]
    return phase


def warm_wire_phase(
    seed: int, seconds: float, trace: bool, setups: int, attempts: int
) -> Phase:
    """Two connections; each unit is ``WARM_UNIT`` requests, split over the
    connections.  Every request is a hit, so a unit needs no reset."""
    offsets = warm_offsets(seed)
    measured = warm_measured(seed, seconds, offsets)

    def drive(transports, unit, clear) -> List[Record]:
        out: List[Record] = []
        for start in range(0, len(measured), WARM_UNIT):
            chunk = measured[start:start + WARM_UNIT]
            out.extend(unit(lambda chunk=chunk: _both(transports, chunk)))
        return out

    return wire_phase(
        "coarse", COARSE_CORRIDORS, warm_warmup(offsets), drive, WARM_CONNECTIONS,
        trace, setups, attempts,
    )


def _both(transports: Sequence[NetworkPlanTransport], chunk: Sequence[PlanRequest]) -> List[Record]:
    """Send ``chunk`` closed loop, one share per connection, each on its own
    thread; the records come back in the chunk's order."""
    shares: List[List[Record]] = [[] for _ in transports]

    def send(i: int) -> None:
        for req in chunk[i::len(transports)]:
            shares[i].append(_timed(transports[i], req, "request"))

    threads = [threading.Thread(target=send, args=(i,), name=f"vehicle-{i}")
               for i in range(len(transports))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out: List[Record] = []
    for k in range(len(chunk)):
        out.append(shares[k % len(transports)][k // len(transports)])
    return out


# ----------------------------------------------------------------------
# In-process phase
# ----------------------------------------------------------------------
def fleet_router():
    return build_router("coarse")


def fleet_batch_phase(
    seed: int, seconds: float, trace: bool, setups: int, attempts: int
) -> Phase:
    """Batch windows, in process.  Each window is a unit.  A window's work
    depends on the plans cached earlier in its forecast epoch, so a window
    measured on a slow core is measured again by replaying its epoch from
    the forecast update up to it; replayed windows keep their cheapest
    attempt too."""
    windows = fleet_windows(seed, seconds)
    probe = SpeedProbe()
    probe.warm_up()
    tracer = spans_mod.Tracer()
    if trace:
        tracer.install(spans_mod.SERVER_TARGETS)
    try:
        setup_meter = BestOf(probe, time.perf_counter, attempts)
        held = [None]

        def free() -> None:
            # Free the previous set-up's stack first, so the peak RSS is
            # one stack's, not the luck of the cycle collector's timing.
            held[0] = None
            gc.collect()

        def set_up(tag: str):
            held[0] = fleet_router()
            for req in probe_requests(COARSE_CORRIDORS, tag):
                held[0].request(req)

        setup_s = []
        for i in range(setups):
            free()
            cost, _ = setup_meter.measure(lambda: set_up(str(i)), reset=free)
            setup_s.append(cost)
        router = held[0]
        stats_before = compose_stats_document(service=router)

        meter = BestOf(probe, time.thread_time, attempts)
        per = FLEET_WINDOWS_PER_UPDATE
        cost = [float("inf")] * len(windows)
        clean = [False] * len(windows)
        first: List[Optional[Tuple[list, float]]] = [None] * len(windows)
        for epoch in range(0, len(windows), per):
            span = range(epoch, min(epoch + per, len(windows)))
            for attempt in range(meter.attempts):
                todo = [w for w in span if not clean[w]]
                if not todo or (attempt and not meter.may_retry()):
                    break
                t0 = time.perf_counter()
                router.clear_cache()  # the forecast update
                for w in range(epoch, max(todo) + 1):
                    spent, fast, outcome = meter.run_once(
                        lambda w=w: _timed_batch(router, windows[w])
                    )
                    cost[w] = min(cost[w], spent)
                    clean[w] = clean[w] or fast
                    if first[w] is None:
                        first[w] = outcome
                if attempt:
                    probe.retried_s += time.perf_counter() - t0
        meter.tally.units = len(windows)
        meter.tally.unclean = clean.count(False)
    finally:
        tracer.uninstall()
    records: List[Record] = []
    for w, (window, (outcomes, elapsed)) in enumerate(zip(windows, first)):
        for req, outcome in zip(window, outcomes):
            if isinstance(outcome, PlanResponse):
                records.append(Record(req, "batch", elapsed, response=outcome, window=w))
            else:
                records.append(
                    Record(req, "batch", elapsed, error=error_text(outcome), window=w)
                )
    stats_after = compose_stats_document(service=router)
    notes = speed.notes(probe, setup_meter.tally, meter.tally)
    return Phase(
        grid="coarse",
        setup_s=setup_s,
        records=records,
        wall_s=sum(elapsed for _, elapsed in first),
        server_cpu_s=sum(cost),
        client_cpu_s=None,
        peak_rss_mb=peak_rss_mb(),
        stats_before=stats_before,
        stats_after=stats_after,
        batch_s=[elapsed for _, elapsed in first],
        server_spans=tracer.dump(),
        notes=notes,
        scale=probe.scale(),
    )


def _timed_batch(router, window: Sequence[PlanRequest]) -> Tuple[list, float]:
    t0 = time.perf_counter()
    outcomes = router.request_batch(window)
    return outcomes, time.perf_counter() - t0


PHASES = {
    "paper-cold": paper_cold_phase,
    "warm-wire": warm_wire_phase,
    "fleet-batch": fleet_batch_phase,
}
