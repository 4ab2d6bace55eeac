"""Span recording for the traced benchmark run.

Timing wrappers are installed from here, around the public functions of
each serving layer, in the place the caller looks them up: a module
attribute for functions imported by name (``repro.core.dp.expand_stage``
because ``dp.py`` imports the kernels by name; ``repro.cloud.wire.*``
because the server and client call ``wire.<fn>``), and the class
attribute for methods.  Nothing under ``src/`` is edited and
``repro.obs`` stays disabled.

A span is ``[name, request_id, start_ns, end_ns, parent_index, tag]``.
Spans of one request share its ``vehicle_id`` as ``request_id``; a span
whose arguments carry no request inherits the id of the span that
caused it.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CLIENT_TARGETS",
    "SERVER_TARGETS",
    "Tracer",
    "self_times",
]

Span = List[Any]

# Column indices of a span record.
NAME, RID, START, END, PARENT, TAG = range(6)


def _req_id(args: tuple, kwargs: dict) -> Optional[str]:
    """The vehicle id of the request among a call's arguments, if any."""
    for value in args[:2]:
        vid = getattr(value, "vehicle_id", None)
        if isinstance(vid, str):
            return vid
    req = kwargs.get("req")
    return getattr(req, "vehicle_id", None)


def _batch_id(args: tuple, kwargs: dict) -> Optional[str]:
    """The first vehicle id of a batch argument (the batch's span id)."""
    reqs = args[1]
    return reqs[0].vehicle_id if reqs else None


def _result_id(result: Any) -> Optional[str]:
    """The vehicle id of a decoded ``(kind, message[, version])`` tuple."""
    if isinstance(result, tuple) and len(result) >= 2:
        return getattr(result[1], "vehicle_id", None)
    return None


def _cache_hit_tag(result: Any) -> Optional[str]:
    hit = getattr(result, "cache_hit", None)
    if hit is None:
        return None
    return "hit" if hit else "miss"


def _width_tag(args: tuple, kwargs: dict) -> int:
    """The problem count of a batched method call (its first argument)."""
    return len(args[1])


# (span name, module path, attribute path, id-from-args, id-from-result,
#  tag-from-args, tag-from-result)
Target = Tuple[str, str, str, Optional[Callable], Optional[Callable],
               Optional[Callable], Optional[Callable]]

#: Wrappers installed in the process that serves plans (the server
#: child, or the benchmark process itself for the in-process workload).
SERVER_TARGETS: Tuple[Target, ...] = (
    ("wire.decode_request", "repro.cloud.wire", "decode_message_versioned",
     None, _result_id, None, None),
    ("wire.encode_response", "repro.cloud.wire", "encode_response",
     _req_id, None, None, None),
    ("dispatcher.submit", "repro.cloud.dispatcher", "PlanDispatcher.submit",
     _req_id, None, None, None),
    ("router.request", "repro.cloud.router", "PlanRouter.request",
     _req_id, None, None, None),
    ("router.request_batch", "repro.cloud.router", "PlanRouter.request_batch",
     _batch_id, None, _width_tag, None),
    ("service.request", "repro.cloud.service", "CloudPlannerService.request",
     _req_id, None, None, _cache_hit_tag),
    ("service.request_batch", "repro.cloud.service",
     "CloudPlannerService.request_batch", _batch_id, None, _width_tag, None),
    ("planner.plan", "repro.core.planner", "DpPlannerBase.plan",
     None, None, None, None),
    ("planner.replan", "repro.core.planner", "DpPlannerBase.replan",
     None, None, None, None),
    ("planner.plan_batch", "repro.core.planner", "DpPlannerBase.plan_batch",
     None, None, _width_tag, None),
    ("planner.min_trip_time", "repro.core.planner", "DpPlannerBase.min_trip_time",
     None, None, None, None),
    ("planner.min_trip_time_batch", "repro.core.planner",
     "DpPlannerBase.min_trip_time_batch", None, None, _width_tag, None),
    ("planner.signal_constraints", "repro.core.planner",
     "DpPlannerBase.signal_constraints", None, None, None, None),
    ("dp.solve", "repro.core.dp", "DpSolver.solve", None, None, None, None),
    ("dp.solve_batch", "repro.core.dp", "DpSolver.solve_batch",
     None, None, _width_tag, None),
    ("dp.expand", "repro.core.dp", "expand_stage", None, None, None, None),
    ("dp.expand", "repro.core.dp", "expand_stage_batch", None, None, None, None),
    ("dp.select", "repro.core.dp", "select_labels", None, None, None, None),
    ("dp.select", "repro.core.dp", "select_labels_batch", None, None, None, None),
    ("store.get_or_build", "repro.core.engine.store", "ArtifactStore.get_or_build",
     None, None, None, None),
    ("artifacts.build", "repro.core.engine.artifacts", "CorridorArtifacts.build",
     None, None, None, None),
)

#: Wrappers installed in the vehicle-side load generator.
CLIENT_TARGETS: Tuple[Target, ...] = (
    ("client.request", "repro.cloud.netclient", "NetworkPlanTransport.request",
     _req_id, None, None, None),
    ("wire.encode_request", "repro.cloud.wire", "encode_request",
     _req_id, None, None, None),
    ("wire.decode_response", "repro.cloud.wire", "decode_message",
     None, _result_id, None, None),
)


class Tracer:
    """Records nested spans from wrappers it installs; removable.

    Parents are tracked per thread, so spans from the dispatcher's
    worker threads and the event-loop thread nest independently.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        id_from_args: Optional[Callable] = None,
        id_from_result: Optional[Callable] = None,
        tag_from_args: Optional[Callable] = None,
        tag_from_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so each call records one span."""
        spans = self.spans
        lock = self._lock
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            rid = id_from_args(args, kwargs) if id_from_args else None
            if rid is None and parent >= 0:
                rid = spans[parent][RID]
            tag = tag_from_args(args, kwargs) if tag_from_args else None
            record = [name, rid, 0, 0, parent, tag]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
            if id_from_result is not None:
                found = id_from_result(result)
                if found is not None:
                    record[RID] = found
            if tag_from_result is not None:
                record[TAG] = tag_from_result(result)
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> "Tracer":
        """Patch every target; :meth:`uninstall` puts the originals back."""
        import importlib

        for name, module_path, attr_path, id_a, id_r, tag_a, tag_r in targets:
            owner = importlib.import_module(module_path)
            parts = attr_path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                inner = self.wrap(name, original.__func__, id_a, id_r, tag_a, tag_r)
                replacement = classmethod(inner)
            else:
                replacement = self.wrap(name, original, id_a, id_r, tag_a, tag_r)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> List[Span]:
        """The recorded spans (a snapshot copy)."""
        with self._lock:
            return [list(span) for span in self.spans]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part its child spans cover (ns).

    Children of one span run on the span's own thread, strictly inside
    it and one after another, so their durations add without overlap.
    """
    covered = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            covered[parent] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]

