"""Metrics hot path — quality curves and per-trial recalibration.

Times the two operations that dominate cold-cache table reproduction on
the real Wilkins and Henson artifacts:

* ``quality_curve`` — the full BLEU(k) scan every calibrated cell pays
  once (incremental prefixes scored from per-depth n-gram deltas, one
  sparse kernel call per range query, vs. the naive
  rebuild-every-prefix / re-tokenize-every-call construction);
* ``local_recalibrate`` — the windowed depth search every jittery trial
  pays per epoch;
* ``metrics_kernels`` (``bench_metrics_kernels``) — per-hypothesis
  scoring itself: the reference ``bleu``/``chrf`` vs the vectorized
  numpy kernels, on corrupted variants of the real artifacts.

All fast paths are asserted bit-identical to their reference
implementations while being timed.  Results are written human-readably
to ``benchmarks/output/metrics_hotpath.txt`` /
``metrics_kernels.txt`` and machine-readably to ``BENCH_metrics.json``
at the repo root (the kernels section merged under the ``kernels``
key), establishing the performance trajectory PR-over-PR.  Set
``REPRO_BENCH_SMOKE=1`` (CI does) to run on a truncated artifact with
fewer trials.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.assets import reference_config
from repro.llm.calibration import QualityCurve, calibrate, local_recalibrate
from repro.llm.corruption import apply_ops, build_ops, shuffle_within_bands
from repro.llm.profiles import ALL_PROFILES
from repro.metrics import bleu
from repro.metrics.kernels import compile_reference
from repro.metrics.tokenizers import _tokenize_segment, tokenize_13a_cached
from repro.utils.rng import rng_for

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SYSTEMS = ("wilkins",) if SMOKE else ("wilkins", "henson")
RECAL_TRIALS = 4 if SMOKE else 16
TARGET_BLEU = 70.0


def _naive_quality_curve(reference: str, ops) -> list[float]:
    """The pre-engine construction: every prefix from scratch, plain bleu."""
    return [bleu(apply_ops(reference, ops, k), reference) for k in range(len(ops) + 1)]


def _naive_local_recalibrate(reference: str, ops, target: float, *, center: int,
                             window: int = 8) -> int:
    """The pre-engine windowed search (scratch prefixes, plain bleu)."""
    lo, hi = max(0, center - window), min(len(ops), center + window)
    best_k, best_err = center, float("inf")
    for k in range(lo, hi + 1):
        err = abs(bleu(apply_ops(reference, ops, k), reference) - target)
        if err < best_err:
            best_k, best_err = k, err
    if best_err > 6.0:
        for k, score in enumerate(_naive_quality_curve(reference, ops)):
            err = abs(score - target)
            if err < best_err:
                best_k, best_err = k, err
    return best_k


def _clear_metric_caches() -> None:
    """Start each timed section cold.

    The shared tokenizer/compiled-reference LRUs would otherwise let the
    section timed second ride on the section timed first.  Note the
    naive baseline still *warms* these caches during its own run (the
    true pre-engine code had none at all), so the reported speedups are
    a lower bound on the improvement over the pre-PR hot path.
    """
    tokenize_13a_cached.cache_clear()
    _tokenize_segment.cache_clear()
    compile_reference.cache_clear()


def _artifact(system: str) -> str:
    reference = reference_config(system)
    if SMOKE:
        reference = "\n".join(reference.split("\n")[:12])
    return reference


def bench_metrics_hotpath(report):
    profile = ALL_PROFILES["o3"]()
    results = []
    lines = [
        "metrics hot path — quality_curve + local_recalibrate "
        f"({'smoke' if SMOKE else 'full'} mode, {RECAL_TRIALS} recal trials)",
        "",
        f"{'artifact':<10} {'ops':>5} {'curve':>10} {'naive curve':>12} "
        f"{'recal/trial':>12} {'naive recal':>12} {'speedup':>8}",
    ]
    for system in SYSTEMS:
        reference = _artifact(system)
        knowledge = profile.knowledge_for("configuration", system)
        ops = build_ops(reference, knowledge, seed_labels=("bench", system))

        _clear_metric_caches()
        started = time.perf_counter()
        fast_curve = QualityCurve(reference, ops).scores()
        curve_s = time.perf_counter() - started

        _clear_metric_caches()
        started = time.perf_counter()
        naive_curve = _naive_quality_curve(reference, ops)
        naive_curve_s = time.perf_counter() - started
        assert fast_curve == naive_curve, f"{system}: curve mismatch"

        center = calibrate(reference, ops, TARGET_BLEU, tolerance=50.0).k

        shuffles = [
            shuffle_within_bands(ops, rng_for("bench-recal", system, t))
            for t in range(RECAL_TRIALS)
        ]
        _clear_metric_caches()
        started = time.perf_counter()
        fast_ks = [
            local_recalibrate(reference, epoch_ops, TARGET_BLEU, center=center,
                              curve=QualityCurve(reference, epoch_ops))
            for epoch_ops in shuffles
        ]
        recal_s = (time.perf_counter() - started) / RECAL_TRIALS

        _clear_metric_caches()
        started = time.perf_counter()
        naive_ks = [
            _naive_local_recalibrate(reference, epoch_ops, TARGET_BLEU, center=center)
            for epoch_ops in shuffles
        ]
        naive_recal_s = (time.perf_counter() - started) / RECAL_TRIALS
        assert fast_ks == naive_ks, f"{system}: recalibration depth mismatch"

        speedup = (naive_curve_s + naive_recal_s) / max(curve_s + recal_s, 1e-9)
        results.append(
            {
                "artifact": system,
                "n_ops": len(ops),
                "curve_depths": len(fast_curve),
                "quality_curve_ms": curve_s * 1000,
                "naive_quality_curve_ms": naive_curve_s * 1000,
                "local_recalibrate_ms_per_trial": recal_s * 1000,
                "naive_local_recalibrate_ms_per_trial": naive_recal_s * 1000,
                "combined_speedup": speedup,
            }
        )
        lines.append(
            f"{system:<10} {len(ops):>5} {curve_s * 1000:>8.1f} ms "
            f"{naive_curve_s * 1000:>9.1f} ms {recal_s * 1000:>9.2f} ms "
            f"{naive_recal_s * 1000:>9.2f} ms {speedup:>7.1f}x"
        )

    payload = {
        "benchmark": "metrics_hotpath",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "recal_trials": RECAL_TRIALS,
        "target_bleu": TARGET_BLEU,
        "results": results,
    }
    # deliberately NOT carrying any previous "persist" section forward:
    # the file must only ever describe *this* session's runs, so run this
    # bench first and bench_persist.py after it (the CI order) — the
    # regression gate fails loudly on a missing section rather than
    # silently comparing stale timings relabelled as fresh.
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines += ["", f"[machine-readable results in {RESULTS_PATH}]"]
    report("metrics_hotpath", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) is report-only: the truncated artifact shrinks the
        # O(N²)-vs-O(N) gap and shared runners add timing noise, so a hard
        # wall-clock assertion there would flake
        for entry in results:
            assert entry["combined_speedup"] >= 3.0, (
                f"{entry['artifact']}: metrics engine should be >= 3x "
                f"faster than the naive hot path, got {entry['combined_speedup']:.1f}x"
            )


# enough hypotheses to amortize the one-time kernel interning the way a
# real sweep does (hundreds of completions scored per reference cell)
N_HYPOTHESES = 24 if SMOKE else 256
KERNEL_REPEATS = 2 if SMOKE else 3


def _hypotheses(reference: str, system: str, n: int) -> list[str]:
    """Corrupted variants of the reference at evenly spread depths."""
    profile = ALL_PROFILES["o3"]()
    knowledge = profile.knowledge_for("configuration", system)
    ops = build_ops(reference, knowledge, seed_labels=("bench-kernels", system))
    depths = [round(i * len(ops) / max(n - 1, 1)) for i in range(n)]
    return [apply_ops(reference, ops, k) for k in depths]


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """(best wall seconds, last result) over ``repeats`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_metrics_kernels(report):
    """Vectorized kernels vs the reference scorers, per hypothesis."""
    from repro.metrics import chrf
    from repro.metrics.kernels import bleu_kernel, chrf_kernel

    results = []
    lines = [
        "metric kernels — reference vs vectorized "
        f"({'smoke' if SMOKE else 'full'} mode, {N_HYPOTHESES} hypotheses)",
        "",
        f"{'artifact':<10} {'reference':>12} {'vectorized':>12} {'vec speedup':>12}",
    ]
    for system in SYSTEMS:
        reference = _artifact(system)
        hyps = _hypotheses(reference, system, N_HYPOTHESES)

        # the kernels' interned vocabularies (and the reference's cached
        # 13a tokens, which both paths use) are one-time by design and
        # amortized over hundreds of hypotheses in a real sweep — warm
        # them outside the timed region so the comparison is strictly
        # per-hypothesis
        _clear_metric_caches()
        ref = compile_reference(reference)
        bleu(hyps[0], reference), chrf(hyps[0], reference)
        bleu_kernel(hyps[0], ref), chrf_kernel(hyps[0], ref)

        def reference_pass():
            return [(bleu(hyp, reference), chrf(hyp, reference)) for hyp in hyps]

        def vectorized_pass():
            return [(bleu_kernel(hyp, ref), chrf_kernel(hyp, ref)) for hyp in hyps]

        reference_s, reference_scores = _best_of(KERNEL_REPEATS, reference_pass)
        vector_s, vector_scores = _best_of(KERNEL_REPEATS, vectorized_pass)
        assert vector_scores == reference_scores, f"{system}: kernel mismatch"

        reference_ms = reference_s * 1000 / N_HYPOTHESES
        vector_ms = vector_s * 1000 / N_HYPOTHESES
        results.append(
            {
                "artifact": system,
                "scenario": system,
                "n_hypotheses": N_HYPOTHESES,
                "reference_ms_per_hyp": reference_ms,
                "vectorized_ms_per_hyp": vector_ms,
                "vectorized_over_reference": vector_ms / max(reference_ms, 1e-9),
                "speedup_vectorized": reference_ms / max(vector_ms, 1e-9),
            }
        )
        entry = results[-1]
        lines.append(
            f"{system:<10} {reference_ms:>9.3f} ms {vector_ms:>9.3f} ms "
            f"{entry['speedup_vectorized']:>11.2f}x"
        )

    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["kernels"] = {
        "benchmark": "metrics_kernels",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("metrics_kernels", "\n".join(lines))
