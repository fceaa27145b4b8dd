"""End-to-end reproduction benchmark.

Usage (from the root of a checkout; nothing needs installing)::

    python3 e2ebench/run.py --workload cold-repro --seed 1 --seconds 10 --trace 0

The benchmark drives the paper's full plan — Tables 1/2/3/5 at 5 trials
per cell and the three Figure 1 heatmaps at 1 trial: 7 sweeps, 560 units,
456 distinct generations — through the public runner entry points
(``run_configuration``, ``run_annotation``, ``run_translation``,
``run_fewshot``, ``run_prompt_sensitivity``) and the ``repro.reporting``
renderers, exactly the calls ``examples/reproduce_tables.py`` makes.
Every workload runs on the serial executor with no scoring pool, from
one client process; warm-remote adds exactly one ``python -m repro.serve``
process (2 shards, loopback TCP).  The benchmark and every process it
starts share one CPU.  The seed permutes the order of the seven sweeps;
the output does not depend on it.

Workloads, and why each exists
------------------------------
``cold-repro``
    The full plan in a fresh interpreter per pass, with an in-memory
    cache and no store: what a user waits for on a first reproduction.
    Per-cell ``calibrate`` and per-trial ``local_recalibrate`` dominate,
    so calibration and metric-kernel changes show here; persist and
    serve do no work.
``warm-local``
    The same plan against an on-disk ``RunStore`` filled by one cold pass
    during set-up (history: the fill's 7 manifests).  Each pass reopens a
    byte-identical copy of the filled store and generates nothing, so
    record reads and runtime bookkeeping dominate; the model layer is
    idle.  It is the bypass for both remote mechanisms below.
``warm-remote``
    The same warm pass through a store server whose root holds the
    filled records plus a 500-run manifest history (about 70 earlier
    reproductions of a shared store), restarted from a byte-identical
    copy for every pass, with a new client.  Its costs are one
    ``RemoteScoreCache.get`` round trip per score key and the
    O(history) ``latest_manifest`` scan behind each ``record_run``.
    Its set-up fills the server through the write path (456 generation
    and 456 score records), which is checked but not timed per pass.

Metrics
-------
End-to-end (``--trace 0``, untraced passes): ``wall_s`` and ``cpu_s``
(client CPU, plus server CPU on warm-remote) of the fastest pass of the
run — :meth:`e2ebench.workloads.Report.end_to_end` says why not the
median; ``peak_rss_mb`` (client, plus server on warm-remote);
``setup_s`` (one-time preparation plus the median per-pass preparation:
fresh-interpreter start-ups for cold-repro, a fill plus a store copy
and/or a server start for the warm workloads); and the fidelity of the
44 Table 1/2/3 cells to the paper (``bleu_mae``, ``chrf_mae``,
``bleu_max_err``, ``chrf_max_err``), computed from the returned grids.
Failed units go to the result's ``failed`` count against ``attempted``.

Per-layer (``--trace 1``): the untraced passes run as usual, then one
pass runs with :mod:`e2ebench.layers` wrappers installed.  Its wall over
the untraced median is ``obs.trace_overhead``.  Which end-to-end metric
each layer should move, and where (every other pairing: no change):

======================================  ==========================================
layer metrics                           moves
======================================  ==========================================
experiments.sweep_s.*                   wall_s on every workload (fig1b+fig1c are
                                        ~60% of cold-repro)
runtime.run.*, runtime.{units,...}      wall_s on warm-local
runtime.result_cache.*                  wall_s on warm-local
runtime.score_cache.*                   wall_s on warm-local and warm-remote
llm.calibrate.*, llm.recalibrate.*,     wall_s on cold-repro only; the warm
llm.generate.*, llm.depths_*            workloads never generate
metrics.*                               wall_s on cold-repro
persist.open_s, get_generations,        wall_s on warm-local
bytes_read, read_lru_hit_ratio
persist.record_run.*, manifests_parsed  wall_s on warm-local and warm-remote;
                                        tracks history depth
serve.client.*, serve.server.*          wall_s and cpu_s on warm-remote
reporting.render_s                      wall_s everywhere (tiny)
======================================  ==========================================

Baseline shares, one traced pass each on a 2-core x86-64 VM (Python
3.11); absolute times drift by up to ~30% with the host's load:

* cold-repro, 13.6 s traced: ``llm.calibrate`` 9.5 s (70%, 232 calls)
  plus ``llm.recalibrate`` 3.0 s (22%, 342 calls) = 92%; inside them
  ``metrics.bleu_compiled`` 11.9 s over 50,957 depth scores; scoring
  0.37 s (3%); runtime self time and caches under 0.2%; fig1b + fig1c
  8.3 s (61%).
* warm-local, 71 ms traced: ``runtime.score_cache.get`` 16 ms (23%, 560
  disk score reads), ``persist.record_run`` 15 ms (21%, 7 calls parsing
  70 manifests), ``runtime.result_cache.get_many`` 13 ms (19%, of which
  ``persist.get_generations`` 12 ms), runtime self time 4 ms (6%); the
  rest is building the sweeps' tasks and plans.
* warm-remote, 0.71 s traced: the client waits 0.64 s (91%) on 595
  requests; ``persist.record_run`` 0.36 s (51%), nearly all of it the
  server's ``latest_manifest`` scan of 500 manifests (0.33 s);
  ``runtime.score_cache.get`` 0.28 s (39%, one round trip per key);
  server CPU 0.59 s.

Correctness gate: every pass's output digest (the rendered tables,
heatmaps and paper-vs-measured lines, without timing or store lines)
must equal the golden digest for every workload, pass and sweep order;
warm passes must generate nothing and start from the expected manifest
count; the server filled during warm-remote's set-up must hold 456
generations and 456 scores and verify clean; and in the traced pass the
wrapper counts must reconcile with the program's own counters.  Any
mismatch sets ``correct`` to false and the exit code to 1.

The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the same object, plus any problems and every
pass's wall time, is written with the server log under
``.e2ebench-out/``.  Scratch state lives in ``.e2ebench-work/`` and is
removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description="end-to-end reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # one CPU for this process and every child it starts (they inherit it):
    # on a contended 2-vCPU VM, cross-vCPU wake-ups made warm-remote's
    # loopback round trips 2-3x slower in some runs than in others
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from e2ebench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".e2ebench-out" / tag
    work = ROOT / ".e2ebench-work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    work.mkdir(parents=True)
    bench = Bench(root=ROOT, work=work, out=out_dir, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    try:
        report = WORKLOADS[args.workload](bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = {name: report.layers.get(name, 0) for name, _unit, _better in PER_LAYER}
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = report.end_to_end()
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out_dir / "result.json").write_text(
        json.dumps({**result, "problems": report.problems, "wall_s": report.wall,
                    "setup_each_s": report.setup_each}, indent=1))
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
