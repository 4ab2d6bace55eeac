"""The correctness gate: every check a run must pass before it reports.

* Every served plan passes ``repro.guard.plan_check.PlanValidator``
  against its planner's own arrival windows, and answers the vehicle
  and corridor that asked.
* On a seeded sample, plans are bit-identical to a serial, in-process
  ``PlanRouter.request`` reference (untimed).
* ``requests == hits + misses + errors`` on every corridor service.
* Every measured ``warm-wire`` response is a cache hit.

Not covered: the single-flight dispatcher's revalidation race needs
concurrent same-key revalidation misses, which no workload produces
steadily.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.cloud.messages import PlanResponse
from repro.errors import PlanningFailedError
from repro.guard.plan_check import PlanValidator

from perfbench import workloads
from perfbench.stack import build_router
from perfbench.workloads import Phase, Record, error_text

#: Requests of the warm-wire sample.
WARM_SAMPLE = 8
#: Leading windows of the sampled forecast epoch in the fleet-batch sample.
FLEET_SAMPLE_WINDOWS = 3


def fingerprint(response: PlanResponse) -> Tuple:
    """Everything a vehicle receives, bit for bit (compute time aside)."""
    profile = response.profile
    return (
        response.vehicle_id,
        response.corridor_id,
        response.cache_hit,
        response.energy_mah,
        response.trip_time_s,
        profile.start_time_s,
        np.asarray(profile.positions_m).tobytes(),
        np.asarray(profile.speeds_ms).tobytes(),
        np.asarray(profile.dwell_s).tobytes(),
    )


def check_plans(records: Sequence[Record], router) -> List[str]:
    """Audit every served plan; ``router`` supplies roads and windows."""
    failures = []
    validators: Dict[str, PlanValidator] = {}
    for record in records:
        if not record.ok:
            continue
        req, resp = record.req, record.response
        if resp.vehicle_id != req.vehicle_id or resp.corridor_id != req.corridor_id:
            failures.append(
                f"{req.vehicle_id}: answered {resp.vehicle_id!r} on {resp.corridor_id!r}"
            )
            continue
        runtime = router.catalog.runtime(req.corridor_id)
        validator = validators.get(req.corridor_id)
        if validator is None:
            validator = validators[req.corridor_id] = PlanValidator(
                runtime.spec.road, runtime.planner.vehicle
            )
        verdict = validator.check_profile(
            resp.profile, runtime.planner.signal_constraints(req.depart_s)
        )
        if not verdict.ok:
            failures.append(f"{req.vehicle_id}: invalid plan: {verdict.summary()}")
    return failures


def check_invariant(stats: dict) -> List[str]:
    """``requests == hits + misses + errors`` on every corridor service."""
    failures = []
    for cid, section in sorted(stats.get("corridors", {}).items()):
        svc = section["service"]
        if svc["requests"] != svc["cache_hits"] + svc["cache_misses"] + svc["errors"]:
            failures.append(f"{cid}: request accounting broken: {svc}")
    return failures


def _serial(router, records: Sequence[Record]) -> List[Union[PlanResponse, str]]:
    """The serial in-process answers to the records' requests, in order."""
    out: List[Union[PlanResponse, str]] = []
    for record in records:
        try:
            out.append(router.request(record.req))
        except PlanningFailedError as exc:
            out.append(error_text(exc))
    return out


def _compare(records: Sequence[Record], reference: Sequence[Union[PlanResponse, str]]) -> List[str]:
    """Each record must match its reference: the same plan or the same error."""
    failures = []
    for record, expected in zip(records, reference):
        if isinstance(expected, str):
            same = record.error == expected
        else:
            same = record.ok and fingerprint(record.response) == fingerprint(expected)
        if not same:
            failures.append(
                f"{record.req.vehicle_id}: answer differs from the serial in-process "
                f"reference ({record.error or 'plan'} vs "
                f"{expected if isinstance(expected, str) else 'plan'})"
            )
    return failures


def sample_identity(workload: str, phase: Phase, seed: int) -> List[str]:
    """Replay a seeded sample serially in process; compare bit for bit."""
    rng = random.Random(f"{seed}/sample")
    records = phase.records
    if workload == "paper-cold":
        trips = [r for r in records if r.kind == "trip"]
        vehicle = rng.choice(trips).req.vehicle_id
        sample = [r for r in records if r.req.vehicle_id.split("-r")[0] == vehicle]
        router = build_router("paper")
        return _compare(sample, _serial(router, sample))
    if workload == "warm-wire":
        sample = rng.sample(records, min(WARM_SAMPLE, len(records)))
        router = build_router("coarse")
        warmup = workloads.warm_warmup(workloads.warm_offsets(seed))
        phase_bin = lambda req: int(req.depart_s % workloads.PERIOD_S)  # noqa: E731
        needed = {(r.req.corridor_id, phase_bin(r.req)) for r in sample}
        for req in warmup:
            if (req.corridor_id, phase_bin(req)) in needed:
                router.request(req)
        return _compare(sample, _serial(router, sample))
    # fleet-batch: the leading windows of one forecast epoch, replayed
    # serially from the empty caches a forecast update leaves.
    per = workloads.FLEET_WINDOWS_PER_UPDATE
    first = per * rng.randrange(max(1, len(phase.batch_s) // per))
    sample = [r for r in records if first <= r.window < first + FLEET_SAMPLE_WINDOWS]
    router = workloads.fleet_router()
    return _compare(sample, _serial(router, sample))


def check(workload: str, phase: Phase, seed: int) -> List[str]:
    """Every gate failure of one measured phase (empty when it passes)."""
    grid_router = (
        workloads.fleet_router() if workload == "fleet-batch" else build_router(phase.grid)
    )
    failures = check_plans(phase.records, grid_router)
    failures += check_invariant(phase.stats_after)
    if workload == "warm-wire":
        misses = [r.req.vehicle_id for r in phase.records if r.ok and not r.response.cache_hit]
        if misses:
            failures.append(f"{len(misses)} warm-wire responses missed the cache: {misses[:3]}")
    failures += sample_identity(workload, phase, seed)
    return failures
