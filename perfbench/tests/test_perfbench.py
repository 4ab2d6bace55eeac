"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import gate, layers, run, speed, spans, workloads
from perfbench.stack import build_router

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every stream to a few requests and set-ups to two."""
    monkeypatch.setattr(workloads, "MIN_REPLANS", 3)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "FLEET_WINDOWS_PER_UPDATE", 2)
    monkeypatch.setattr(gate, "FLEET_SAMPLE_WINDOWS", 1)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _run(capsys, workload: str, seed: int, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--trace", str(trace)])
    assert code == 0
    return _last_json(capsys)


@pytest.mark.parametrize("workload", ["paper-cold", "warm-wire", "fleet-batch"])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload):
    plain = _run(capsys, workload, 1, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] is True and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _run(capsys, workload, 2, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers.PER_LAYER_UNITS
    # Two seeds, one set of names: the end-to-end names are checked above
    # for seed 1; seed 2 ran traced and must name every per-layer figure.
    assert traced["correct"] is True


def test_seeds_change_the_requests_not_the_shape():
    a, b = workloads.paper_cold_trips(1, 1.0), workloads.paper_cold_trips(2, 1.0)
    assert len(a) == len(b)
    assert [r.depart_s for r in a] != [r.depart_s for r in b]
    assert workloads.paper_cold_trips(1, 1.0) == a  # same seed, same inputs
    offs1, offs2 = workloads.warm_offsets(1), workloads.warm_offsets(2)
    assert offs1 != offs2
    assert [r.corridor_id for r in workloads.warm_measured(1, 1.0, offs1)] == [
        r.corridor_id for r in workloads.warm_measured(2, 1.0, offs2)
    ]
    w1, w2 = workloads.fleet_windows(1, 1.0), workloads.fleet_windows(2, 1.0)
    assert len(w1) == len(w2)
    assert [r.depart_s for w in w1 for r in w] != [r.depart_s for w in w2 for r in w]


def test_paper_cold_trips_are_all_cold_keys():
    trips = workloads.paper_cold_trips(7, 30.0)
    keys = {(int(r.depart_s % 60.0), int(r.max_trip_time_s / 5.0)) for r in trips}
    assert len(keys) == len(trips)


def test_corrupted_plan_trips_the_gate(tiny, capsys, monkeypatch):
    from repro.cloud.router import PlanRouter

    original = PlanRouter.request_batch

    def corrupting(self, reqs):
        out = original(self, reqs)
        first = out[0]
        profile = first.profile
        bad = type(profile)(profile.positions_m, profile.speeds_ms * 3.0,
                            profile.dwell_s, profile.start_time_s)
        out[0] = replace(first, profile=bad)
        return out

    monkeypatch.setattr(PlanRouter, "request_batch", corrupting)
    code = run.main(["--workload", "fleet-batch", "--seed", "1",
                     "--seconds", "0.05", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert '"metrics"' not in captured.out
    assert "invalid plan" in captured.err


def test_gate_checks_plans_and_identity():
    router = build_router("coarse")
    req = workloads.probe_requests(["elm-street"], "t")[0]
    good = router.request(req)
    record = workloads.Record(req, "request", 0.0, response=good)
    assert gate.check_plans([record], router) == []
    profile = good.profile
    fast = type(profile)(profile.positions_m, profile.speeds_ms * 3.0,
                         profile.dwell_s, profile.start_time_s)
    bad = workloads.Record(req, "request", 0.0, response=replace(good, profile=fast))
    assert gate.check_plans([bad], router)
    assert gate._compare([bad], [good])
    assert gate._compare([record], [good]) == []


def test_spans_nest_and_self_time_is_never_negative():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    middle = tracer.wrap("middle", lambda x: leaf(x) + leaf(x))
    outer = tracer.wrap("outer", lambda x: middle(x))
    assert outer(1) == 4
    recorded = tracer.dump()
    assert [s[spans.NAME] for s in recorded] == ["outer", "middle", "leaf", "leaf"]
    assert [s[spans.PARENT] for s in recorded] == [-1, 0, 1, 1]
    _assert_nested(recorded)


def _assert_nested(recorded):
    for span in recorded:
        parent = span[spans.PARENT]
        if parent >= 0:
            assert recorded[parent][spans.START] <= span[spans.START]
            assert span[spans.END] <= recorded[parent][spans.END]
    assert all(t >= 0 for t in spans.self_times(recorded))


def test_traced_stack_spans_nest(tiny):
    phase = workloads.fleet_batch_phase(3, 0.05, True, 1, 1)
    recorded = phase.server_spans
    assert {s[spans.NAME] for s in recorded} >= {
        "router.request_batch", "service.request_batch", "planner.plan_batch",
        "dp.solve_batch", "dp.expand", "dp.select", "artifacts.build",
    }
    _assert_nested(recorded)


def test_tracer_uninstall_restores_the_program():
    from repro.core import dp
    from repro.core.engine.artifacts import CorridorArtifacts

    before = (dp.expand_stage, dp.DpSolver.solve, CorridorArtifacts.__dict__["build"])
    tracer = spans.Tracer().install(spans.SERVER_TARGETS + spans.CLIENT_TARGETS)
    assert dp.expand_stage is not before[0]
    tracer.uninstall()
    assert (dp.expand_stage, dp.DpSolver.solve, CorridorArtifacts.__dict__["build"]) == before


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.PHASES)


def test_fleet_rates_follow_the_catalog_traffic():
    vph = {cid: rate * 3600.0 for cid, rate in workloads.fleet_rates_per_s().items()}
    assert vph == pytest.approx({"us25": 40.0, "elm-street": 56.0, "airport-loop": 24.0})


class _ScriptedProbe(speed.SpeedProbe):
    """A probe whose readings follow a script (seconds), on one CPU."""

    def __init__(self, readings):
        super().__init__(cpus=[min(speed.available_cpus())])
        self.script = list(readings)

    def read(self, cpu):
        reading = self.script.pop(0)
        self.best_s = min(self.best_s, reading)
        self.readings += 1
        return reading


def test_best_of_runs_a_unit_again_while_the_core_reads_slow(monkeypatch):
    monkeypatch.setattr(speed, "UNIT_WAIT_S", 0.0)
    # Readings come in (before, after) pairs: slow after the first
    # attempt, slow before the second, fast around the third.
    probe = _ScriptedProbe([1.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    costs = iter([5.0, 3.0, 4.0])
    clock_now = [0.0]

    def clock():
        return clock_now[0]

    def work():
        clock_now[0] += next(costs)
        return clock_now[0]

    resets = []
    meter = speed.BestOf(probe, clock, attempts=4)
    cost, first = meter.measure(work, reset=lambda: resets.append(1))
    assert cost == 3.0 and first == 5.0
    assert len(resets) == 2
    assert (meter.tally.units, meter.tally.attempts, meter.tally.unclean) == (1, 3, 0)

    # One attempt only (a traced run): a slow reading is kept, and counted.
    probe = _ScriptedProbe([1.0, 2.0])
    meter = speed.BestOf(probe, clock, attempts=1)
    costs = iter([7.0])
    cost, _ = meter.measure(work)
    assert cost == 7.0
    assert (meter.tally.units, meter.tally.attempts, meter.tally.unclean) == (1, 1, 1)


def test_fastest_waits_for_a_fast_core_within_its_budget(monkeypatch):
    monkeypatch.setattr(speed, "WAIT_STEP_S", 0.0)
    probe = _ScriptedProbe([1.0, 2.0, 2.0, 1.1])
    probe.read(0)  # learn the fast floor
    assert probe.fastest()[1] is True  # waited through two slow readings
    assert probe.script == []
    monkeypatch.setattr(speed, "RUN_WAIT_S", 0.0)
    probe.script = [2.0]
    assert probe.fastest()[1] is False  # no waiting left: run on the slow core
