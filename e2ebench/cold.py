"""One plan pass in a fresh interpreter: ``python -m e2ebench.cold``.

Everything before :func:`main` runs — interpreter start and imports — is
the pass's set-up; the parent measures it from its own spawn time to the
``ready`` stamp printed here (``time.monotonic`` is system-wide).  The
pass runs the full plan on the serial executor with an in-memory result
cache, or against ``--store`` (a directory or a store-server URL) when it
fills a store for a warm workload.  The last stdout line is one JSON
object with timings, the output digest, fidelity and — with ``--trace``
— the per-layer attribution.  ``--setup-only`` exits right after the
ready stamp, to sample set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.runtime import InMemoryResultCache, RunConfig, SerialExecutor
from repro.serve import open_store

from e2ebench.layers import LayerTrace, installed, layer_metrics, reconcile
from e2ebench.plan import run_plan


def main() -> int:
    ready = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", help="comma-separated sweep order")
    parser.add_argument("--store", default=None, metavar="PATH_OR_URL")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    store = open_store(args.store) if args.store is not None else None
    cache = store.result_cache if store is not None else InMemoryResultCache()
    config = RunConfig(executor=SerialExecutor(), cache=cache, store=store,
                       store_url=args.store)
    trace = LayerTrace()
    try:
        cpu0 = time.process_time()
        with installed(trace, None if args.trace else frozenset({"runtime.run"})):
            result = run_plan(config, args.order.split(","))
        cpu_s = time.process_time() - cpu0
    finally:
        if store is not None:
            store.close()
    out = {
        "ready": ready,
        "wall_s": result.wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": result.digest,
        "fidelity": result.fidelity,
        "sweep_s": result.sweep_s,
        "render_s": result.render_s,
        "runs": trace.run_totals(),
    }
    if args.trace:
        out["layers"] = layer_metrics(trace)
        out["problems"] = reconcile(trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
