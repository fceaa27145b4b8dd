"""Regenerate every table and figure of the paper in one run.

Prints Tables 1/2/3/5 with paper-vs-measured deltas and the three
Figure 1 heatmap groups.  All sweeps route through the parallel
evaluation runtime: ``--executor`` picks the backend (``serial``, the
default and the fastest for the CPU-bound offline simulator, or
``threads`` with ``--workers`` calls in flight on a thread pool, for
latency-bound endpoints; both print the same tables) and one shared
result cache spans the whole run, so e.g. the Figure 1 ``original``
rows reuse the epoch-0 generations already produced for Tables 1-3.

With ``--store PATH_OR_URL`` the run is durable: generations, scores and
one manifest per sweep land in a :class:`repro.persist.RunStore`, so
re-running the script against the same store performs zero model
generations (and N concurrent runs may share one store).  A plain path
opens an on-disk store in this process; ``tcp://host:port`` or
``unix:///path/to.sock`` connects to a shared store server
(``python -m repro.serve``), so many machines hit one warm cache.  All
runtime knobs travel as one :class:`repro.runtime.RunConfig`.  Inspect a
local store with ``python -m repro.persist {stats,verify,gc,ls-runs} PATH``.

Scores are computed after each sweep's generations, one scorer call
per score-cache miss.  ``--profile`` prints
the :mod:`repro.obs` phase breakdown of the whole script — where the
wall time went, phase by phase, summed over every sweep's trace — and
``--profile-json PATH`` saves it for ``python -m repro.obs report PATH``.
Profiling arms the same tracer as ``--trace``, so with ``--store`` each
run's trace lands on its manifest.

``--trace`` arms distributed tracing for the whole script: every sweep
gets a trace id (printed at the end, one line per run), spans cross the
store-server process boundary, and with ``--store`` each run's trace
lands on its manifest next to its stats
(``python -m repro.obs trace RUN_ID --store ... --chrome out.json``
exports it later).  ``--trace-chrome PATH`` additionally saves the last
sweep's trace as Chrome trace-event JSON, ready for ``chrome://tracing``
or Perfetto.  Grids are bit-identical with tracing on or off.

The fault-tolerance knobs (see :mod:`repro.runtime.faults`) install a
:class:`repro.runtime.FaultPolicy` on every sweep: ``--max-attempts``,
``--retry-budget`` and ``--unit-deadline`` shape the retry loop, and
``--on-failure isolate`` quarantines units that stay down instead of
aborting the run (the failure set lands in the run's manifest; inspect
with ``python -m repro.persist ls-runs --failures PATH``).
``--resume-failed RUN_ID`` (with ``--store``) prints a prior run's
quarantined units, re-runs the sweeps against the same store — only
failed/missing units re-execute, everything else is a cache hit — and
reports ``units_failed`` before → after.

Usage:  python examples/reproduce_tables.py [--fast]
            [--executor {serial,threads}] [--workers N]
            [--cache {memory,disk}]
            [--store PATH_OR_URL]
            [--on-failure {raise,isolate,skip}] [--max-attempts N]
            [--retry-budget N] [--unit-deadline SECONDS]
            [--resume-failed RUN_ID]
            [--profile] [--profile-json PATH]
            [--trace] [--trace-chrome PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from repro import obs

from repro.core.experiments import (
    run_annotation,
    run_configuration,
    run_fewshot,
    run_prompt_sensitivity,
    run_translation,
)
from repro.data import TABLE1, TABLE2, TABLE3
from repro.errors import ReproError
from repro.reporting import (
    compare_with_paper,
    render_fewshot_table,
    render_figure1,
    render_grid_table,
)
from repro.runtime import InMemoryResultCache, SerialExecutor, ThreadExecutor


class UsageError(Exception):
    """A CLI knob received a value the runtime has no backend for."""


EXECUTORS = ("serial", "threads")
CACHES = ("memory", "disk")


def make_executor(name: str, workers: int):
    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return ThreadExecutor(max_concurrency=workers)
    raise UsageError(f"unknown executor {name!r}; choose from {', '.join(EXECUTORS)}")


def make_faults(args):
    """A :class:`repro.runtime.FaultPolicy`, or None when untouched.

    The default run carries no fault layer at all (zero overhead);
    touching any fault knob — or resuming, which implies quarantine
    semantics — builds one policy shared by every sweep.
    """
    tuned = (
        args.on_failure,
        args.max_attempts,
        args.retry_budget,
        args.unit_deadline,
    )
    if all(value is None for value in tuned) and args.resume_failed is None:
        return None
    from repro.runtime import FaultPolicy, RetryPolicy

    retry = (
        RetryPolicy()
        if args.max_attempts is None
        else RetryPolicy(max_attempts=args.max_attempts)
    )
    on_failure = args.on_failure
    if on_failure is None:
        on_failure = "isolate" if args.resume_failed is not None else "raise"
    return FaultPolicy(
        retry=retry,
        unit_deadline_s=args.unit_deadline,
        retry_budget=args.retry_budget,
        on_failure=on_failure,
    )


def make_cache(name: str, store):
    if name == "memory":
        return InMemoryResultCache()
    if name == "disk":
        if store is None:
            raise UsageError("--cache disk requires --store PATH_OR_URL")
        return store.result_cache  # local or remote: same facade
    raise UsageError(f"unknown cache {name!r}; choose from {', '.join(CACHES)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="2 trials per cell")
    parser.add_argument(
        "--executor",
        default="serial",
        help=f"runtime execution backend: {', '.join(EXECUTORS)} (default: serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=8,
        help="threads executor: provider calls in flight",
    )
    parser.add_argument(
        "--cache", default=None,
        help=f"result-cache backend: {', '.join(CACHES)} (default: memory, "
             "or disk when --store is given)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH_OR_URL",
        help="durable run store: a directory path (on-disk cross-process "
             "cache plus one recorded manifest per sweep; see python -m "
             "repro.persist), or tcp://host:port / unix:///path/to.sock for "
             "a shared store server (python -m repro.serve)",
    )
    parser.add_argument(
        "--on-failure", default=None, choices=("raise", "isolate", "skip"),
        help="what to do with a unit that stays down after retries: raise "
             "(default, abort the sweep), isolate (quarantine it, record it "
             "on the manifest, keep going) or skip (quarantine and assemble "
             "partial results)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="attempts per unit for transient provider errors (default: 3)",
    )
    parser.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="cap the total retries shared by a whole run (default: unlimited)",
    )
    parser.add_argument(
        "--unit-deadline", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock deadline across all attempts "
             "(default: none)",
    )
    parser.add_argument(
        "--resume-failed", default=None, metavar="RUN_ID",
        help="re-run only the units a prior run quarantined (requires "
             "--store; find run ids with python -m repro.persist ls-runs "
             "--failures PATH)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the repro.obs phase breakdown of the whole script",
    )
    parser.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="save the phase profile as JSON (implies --profile; render "
             "later with python -m repro.obs report PATH)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="arm distributed tracing: one trace per sweep (ids printed at "
             "the end), spans crossing into the store server, the trace on "
             "each manifest when --store is given",
    )
    parser.add_argument(
        "--trace-chrome", default=None, metavar="PATH",
        help="save the last sweep's trace as Chrome trace-event JSON "
             "(implies --trace; open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args()
    epochs = 2 if args.fast else 5

    from repro.errors import HarnessError, StoreError

    store = None
    try:
        # every knob that needs no store is checked before the store is
        # opened, so a bad one leaves no store directory behind
        executor = make_executor(args.executor, args.workers)
        faults = make_faults(args)
        if args.resume_failed is not None and args.store is None:
            raise UsageError("--resume-failed requires --store PATH")
        if args.store is not None:
            from repro.serve import open_store

            store = open_store(args.store)
        cache_name = args.cache or ("disk" if store is not None else "memory")
        cache = make_cache(cache_name, store)
        from repro.runtime import RunConfig

        config = RunConfig(
            executor=executor, cache=cache, store=store, faults=faults,
            store_url=args.store,
        )
        resume_prior = None
        if args.resume_failed is not None:
            resume_prior = store.manifest(args.resume_failed)
            if resume_prior is None:
                raise UsageError(
                    f"store at {args.store} has no recorded run "
                    f"{args.resume_failed!r}"
                )
    except (UsageError, StoreError, HarnessError) as exc:
        if store is not None:
            store.close()
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    if resume_prior is not None:
        print(f"resuming after {resume_prior.describe()}")
        for failure in resume_prior.failures:
            print(f"    {failure.describe()}")
        print()
    profiled = args.profile or args.profile_json is not None
    tracing = args.trace or args.trace_chrome is not None
    traces: list = []
    trace_ctx = (
        obs.tracing(obs.Tracer(on_finish=traces.append))
        if tracing or profiled
        else contextlib.nullcontext()
    )
    started = time.perf_counter()

    try:
        with trace_ctx:
            grid1 = run_configuration(epochs=epochs, config=config)
            print(render_grid_table(grid1, "Table 1: workflow configuration"))
            print()

            grid2 = run_annotation(epochs=epochs, config=config)
            print(render_grid_table(grid2, "Table 2: task code annotation"))
            print()

            grid3 = run_translation(epochs=epochs, config=config)
            print(render_grid_table(grid3, "Table 3: task code translation"))
            print()

            comparison = run_fewshot(epochs=epochs, config=config)
            print(render_fewshot_table(comparison, "Table 5: few-shot vs zero-shot"))
            print()

            for experiment, title in (
                ("configuration", "Figure 1(a): configuration"),
                ("annotation", "Figure 1(b): annotation"),
                ("translation", "Figure 1(c): translation"),
            ):
                results = run_prompt_sensitivity(experiment, epochs=1, config=config)
                print(render_figure1(results, title))
                print()

        print("=== paper vs measured (BLEU deltas, original prompts) ===")
        for (system, model), paper in sorted(TABLE1.items()):
            print(compare_with_paper(grid1.cell(system, model), paper,
                                     f"T1 {system}/{model}"))
        for (system, model), paper in sorted(TABLE2.items()):
            print(compare_with_paper(grid2.cell(system, model), paper,
                                     f"T2 {system}/{model}"))
        for (direction, model), paper in sorted(TABLE3.items()):
            print(compare_with_paper(grid3.cell(direction, model), paper,
                                     f"T3 {direction[0]}->{direction[1]}/{model}"))

        print(f"\ntotal time: {time.perf_counter() - started:.1f}s "
              f"({epochs} trial(s) per table cell, executor={args.executor}, "
              f"{len(cache)} cached generations)")
    finally:
        # snapshot the store index even when a sweep fails midway; query
        # the summary first — a remote client cannot answer stats once its
        # connection pool is closed
        store_summary = healed = None
        if store is not None:
            try:
                store_summary = (f"store: {store.stats().describe()}; "
                                 f"{len(store.manifests())} run manifest(s) "
                                 "recorded")
                if resume_prior is not None:
                    healed = store.latest_manifest(resume_prior.plan_fingerprint)
            except ReproError:
                pass  # mid-sweep failure already propagating; don't mask it
            store.close()
    if store_summary is not None:
        print(store_summary)
    if resume_prior is not None:
        after = len(healed.failures) if healed is not None else 0
        print(f"resume-failed: units_failed {len(resume_prior.failures)} "
              f"-> {after}")
    if tracing:
        print(f"\n=== traces ({len(traces)} run(s)) ===")
        for trace in traces:
            print(f"{trace.trace_id}  {trace.name:<32} "
                  f"{len(trace.spans):>5} spans  {trace.root.duration_s:.2f}s")
        if store is not None:
            print("[persisted on each run manifest; export with python -m "
                  "repro.obs trace RUN_ID --store ... --chrome out.json]")
        if args.trace_chrome is not None and traces:
            traces[-1].write_chrome(args.trace_chrome)
            print(f"[chrome trace of {traces[-1].name} saved to "
                  f"{args.trace_chrome}; open in chrome://tracing or Perfetto]")
    if profiled:
        profile = functools.reduce(
            obs.PhaseProfile.merged,
            (trace.profile() for trace in traces),
            obs.PhaseProfile({}),
        )
        title = obs.profile_title(
            "phase profile (whole script, repro.obs)",
            sum(trace.dropped for trace in traces),
        )
        print()
        print(obs.render_profile(profile, title=title))
        if args.profile_json is not None:
            payload = obs.profile_payload(
                profile,
                script="reproduce_tables",
                executor=args.executor,
                epochs=epochs,
                wall_seconds=time.perf_counter() - started,
            )
            with open(args.profile_json, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"\n[profile saved to {args.profile_json}; render with "
                  f"python -m repro.obs report {args.profile_json}]")


if __name__ == "__main__":
    main()
