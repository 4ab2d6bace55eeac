"""Server child of the benchmark: one ``PlanServer`` over a ``PlanRouter``.

Usage (the benchmark launches it; see ``stack.ServerChild``)::

    python3 perfbench/serve.py --grid paper|coarse --trace 0|1

Prints ``READY <port>`` once listening, then answers control lines on
stdin while it serves:

* ``cpu`` - prints the process's CPU time so far (seconds, all threads);
* ``clear`` - drops every cached plan (``PlanRouter.clear_cache``, what a
  forecast update does), then prints ``cleared``;
* ``drain`` (or end of input) - drains the server through its public
  handle, prints one JSON line ``{"spans": [...]}`` and exits.  With
``--trace 1`` the server-side timing wrappers are installed before the
router is built, so artifact builds are traced too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import spans  # noqa: E402
from perfbench.stack import MAX_PENDING, SERVER_WORKERS, build_router  # noqa: E402
from repro.cloud.server import serve_in_background  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=("paper", "coarse"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = spans.Tracer().install(spans.SERVER_TARGETS) if args.trace else None
    router = build_router(args.grid)
    handle = serve_in_background(
        router,
        workers=SERVER_WORKERS,
        max_pending=MAX_PENDING,
        request_timeout_s=120.0,
        idle_timeout_s=600.0,
    )
    print(f"READY {handle.address[1]}", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "drain":
            break
        if command == "cpu":
            print(repr(time.process_time()), flush=True)
        elif command == "clear":
            router.clear_cache()
            print("cleared", flush=True)
    handle.drain()
    router.shutdown()
    recorded = tracer.dump() if tracer is not None else []
    sys.stdout.write(json.dumps({"spans": recorded}, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
