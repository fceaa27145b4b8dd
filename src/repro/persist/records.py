"""Durable record encoding for the on-disk run store.

Every persisted entry — a generation or a memoized score — is one
*record*: a single line of the form ::

    <sha256 hex of payload> <compact JSON payload>\\n

The checksum covers the exact payload bytes, so a flipped bit, a torn
write (process killed mid-append), or a truncated tail is detected on
read and the record is skipped rather than trusted.  Payloads are
canonical JSON (sorted keys, no whitespace, ASCII-escaped) so the same
logical record always produces the same bytes — and therefore the same
checksum — on every platform and in every process.

Two record kinds exist:

* ``gen`` — one :class:`~repro.runtime.units.Generation`, addressed by
  its content key (:func:`repro.runtime.units.generation_key`);
* ``score`` — one memoized :class:`~repro.core.samples.Score`, addressed
  by :func:`disk_score_key` (a digest of the in-memory
  :func:`repro.runtime.runner.score_key` tuple).  The payload carries the
  generation key it was scored for, so GC can drop orphaned scores.

Score keys are only persistable when the scorer's fingerprint is
*stable* across processes: plain data plus module-level functions.  A
lambda or a bound method has no cross-process identity, so such scores
stay in the in-memory layer only (see :func:`stable_fingerprint_token`).
"""

from __future__ import annotations

import hashlib
import json
import types
from typing import Any, Hashable

from repro.core.samples import Score
from repro.errors import RecordCorruptError
from repro.llm.types import ModelUsage
from repro.runtime.units import Generation

GEN_KIND = "gen"
SCORE_KIND = "score"
RECORD_KINDS = (GEN_KIND, SCORE_KIND)


def encode_payload(payload: dict[str, Any]) -> bytes:
    """Canonical JSON bytes for ``payload`` (stable across processes)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def encode_record(payload: dict[str, Any]) -> bytes:
    """One checksummed record line (including the trailing newline)."""
    body = encode_payload(payload)
    digest = hashlib.sha256(body).hexdigest()
    return digest.encode("ascii") + b" " + body + b"\n"


def decode_record(line: bytes) -> dict[str, Any]:
    """Parse and verify one record line; raises :class:`RecordCorruptError`."""
    if not line.endswith(b"\n"):
        raise RecordCorruptError("unterminated record (torn tail)")
    digest, sep, body = line[:-1].partition(b" ")
    if not sep:
        raise RecordCorruptError("malformed record: no checksum separator")
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise RecordCorruptError("checksum mismatch")
    try:
        # decode to str before json.loads: bytes input would pay a
        # detect_encoding regex pass per record on the read hot path
        payload = json.loads(str(body, "utf-8"))
    except ValueError as exc:  # pragma: no cover - checksum catches this first
        raise RecordCorruptError(f"payload is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") not in RECORD_KINDS:
        raise RecordCorruptError(f"unknown record kind {payload!r:.80}")
    return payload


def index_key(kind: str, key: str) -> str:
    """The store-index key for one record: ``<kind>:<content key>``."""
    return f"{kind}:{key}"


# -- generations --------------------------------------------------------------


def generation_payload(gen: Generation) -> dict[str, Any]:
    return {
        "kind": GEN_KIND,
        "key": gen.key,
        "model": gen.model,
        "completion": gen.completion,
        "elapsed_s": gen.elapsed_s,
        **gen.usage.as_dict(),
    }


def generation_from_payload(payload: dict[str, Any]) -> Generation:
    return Generation(
        key=payload["key"],
        model=payload["model"],
        completion=payload["completion"],
        usage=ModelUsage.from_dict(payload),
        cached=False,  # callers mark cache provenance via as_cached()
        elapsed_s=payload["elapsed_s"],
    )


# -- scores --------------------------------------------------------------


def score_payload(disk_key: str, gen_key: str, score: Score) -> dict[str, Any]:
    return {
        "kind": SCORE_KIND,
        "key": disk_key,
        "gen": gen_key,
        "values": dict(score.values),
        "answer": score.answer,
    }


def score_from_payload(payload: dict[str, Any]) -> Score:
    return Score(values=dict(payload["values"]), answer=payload["answer"])


def stable_fingerprint_token(obj: object) -> str | None:
    """A cross-process identity string for one fingerprint element.

    Plain data (str/int/float/bool/None) and nested tuples/lists of it
    are rendered directly; module-level functions become
    ``module:qualname``.  Anything whose identity dies with the process
    — lambdas, locally defined functions, bound methods, arbitrary
    objects — returns ``None``, which marks the whole fingerprint
    unpersistable.
    """
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        tokens = [stable_fingerprint_token(item) for item in obj]
        if any(token is None for token in tokens):
            return None
        return "(" + ",".join(tokens) + ")"  # type: ignore[arg-type]
    if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
        qualname = getattr(obj, "__qualname__", "")
        module = getattr(obj, "__module__", "")
        if module and qualname and "<lambda>" not in qualname and "<locals>" not in qualname:
            return f"{module}:{qualname}"
    return None


def disk_score_key(key: Hashable) -> str | None:
    """Durable digest of one :func:`repro.runtime.runner.score_key` tuple.

    Returns ``None`` when the scorer fingerprint has no stable
    cross-process identity — such entries are memoized in memory only.
    """
    if not (isinstance(key, tuple) and len(key) == 3):
        return None
    gen_key, target_hash, fingerprint = key
    if not (isinstance(gen_key, str) and isinstance(target_hash, str)):
        return None
    token = stable_fingerprint_token(fingerprint)
    if token is None:
        return None
    body = "\x1f".join((gen_key, target_hash, token)).encode("utf-8")
    return hashlib.sha256(body).hexdigest()
