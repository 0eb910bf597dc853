"""Wire protocol of the job service: JSON lines, content-addressed ids.

Every message — request or response — is one JSON object on one
``\\n``-terminated line, UTF-8, canonically encoded (sorted keys).
Requests carry ``{"op": ..., ...}``; responses carry ``{"ok": true,
...}`` or ``{"ok": false, "error": ..., ...}``.  A rejected
submission additionally carries ``"retry_after"`` (seconds, float):
explicit backpressure the client library honours instead of
hammering a full queue.

Job identity is content-addressed: ``job_id_for`` hashes the
canonical JSON of ``(tenant, kind, normalised spec)``, so submitting
the same work twice — by a retrying client, or by two operators —
lands on the same job instead of running it twice.  The server
recomputes the id and rejects a client-supplied id that does not
match its spec, which keeps ids trustworthy as result-cache keys.
"""

from __future__ import annotations

import hashlib
import json

from repro.checkpoint import canonical_json

PROTOCOL_VERSION = 1

#: job kinds the service executes.  ``sleep`` is a diagnostics kind
#: (chaos tests and operators pacing a queue) — it holds a runner
#: slot for ``seconds`` while staying cancellable.
JOB_KINDS = ("inject", "sweep", "explore", "run", "compile", "sleep")

#: request operations.  ``metrics`` serves the Prometheus-renderable
#: registry snapshot; ``trace`` serves one job's end-to-end trace
#: events (when the server runs with tracing enabled).
OPS = ("health", "submit", "status", "jobs", "result", "tail",
       "cancel", "drain", "metrics", "trace")

#: maximum accepted request line, bytes.  Campaign specs are small;
#: anything larger is a confused or malicious client and is refused
#: before it can balloon server memory.
MAX_LINE_BYTES = 1 << 20

DEFAULT_TENANT = "default"

#: the spec fields accepted per kind (everything else is rejected —
#: a typo like ``sede`` must fail loudly, not silently run with the
#: default seed).  Values are normalised but deliberately not deeply
#: validated here: the execution layer applies the same validation
#: the CLI does (``CampaignConfig.__post_init__`` etc.).
SPEC_FIELDS = {
    "inject": {
        "extension", "workload", "source", "entry", "scale", "faults",
        "seed", "models", "clock_ratio", "fifo_depth", "jobs",
        "checkpoint_every", "recover", "mdl", "task_timeout",
        "max_retries", "serial_fallback", "warm_start",
    },
    "sweep": {"points", "engine"},
    "explore": {
        "space", "mode", "max_points", "population", "generations",
        "faults", "ci_target", "budget", "batch", "min_faults",
        "seed", "jobs", "engine",
    },
    "run": {"workload", "extension", "clock_ratio", "fifo_depth",
            "scale", "predecode", "scaled_memory", "engine"},
    "compile": {"source", "filename"},
    "sleep": {"seconds"},
}

#: spec fields that must be present.
REQUIRED_FIELDS = {
    "inject": {"extension"},
    "sweep": {"points"},
    "explore": {"space"},
    "run": {"workload"},
    "compile": {"source"},
    "sleep": {"seconds"},
}


class ProtocolError(Exception):
    """A malformed or unacceptable protocol message."""


def encode(message: dict) -> bytes:
    """One canonical JSON line, ready for the socket."""
    return (canonical_json(message) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError`."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise ProtocolError(f"not a JSON line: {err}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def normalize_spec(kind: str, spec: dict) -> dict:
    """Validate and canonicalise one job spec.

    Normalisation makes idempotent submission work: two specs that
    mean the same job must hash identically, so defaults are *not*
    filled in (a spec that says ``seed=1`` explicitly and one that
    omits it are different submissions — the executor applies the
    same default either way, but we refuse to guess equivalence),
    while key order and JSON-level representation differences are
    erased by the canonical encoding.
    """
    if kind not in JOB_KINDS:
        known = ", ".join(JOB_KINDS)
        raise ProtocolError(f"unknown job kind {kind!r} (known: {known})")
    if not isinstance(spec, dict):
        raise ProtocolError(f"{kind} spec must be a JSON object")
    allowed = SPEC_FIELDS[kind]
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown {kind} spec field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )
    missing = sorted(REQUIRED_FIELDS[kind] - set(spec))
    if missing:
        raise ProtocolError(
            f"{kind} spec is missing required field(s): "
            f"{', '.join(missing)}"
        )
    try:
        canonical_json(spec)
    except (TypeError, ValueError) as err:
        raise ProtocolError(
            f"{kind} spec is not plain JSON data: {err}"
        ) from None
    return dict(spec)


def job_id_for(tenant: str, kind: str, spec: dict) -> str:
    """Content-addressed job id: the same submission always maps to
    the same id, on the client and on the server independently.

    The submission's optional ``trace`` context is deliberately *not*
    part of the hash: trace ids are per-attempt lineage, and folding
    them in would break idempotent resubmission (the whole point of
    content addressing).
    """
    normalized = normalize_spec(kind, spec)
    payload = canonical_json(
        {"tenant": tenant, "kind": kind, "spec": normalized}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def normalize_trace(trace) -> dict:
    """Validate/complete a submission's trace context; raises
    :class:`ProtocolError` on malformed input."""
    from repro.service.observe import ensure_trace_context

    try:
        return ensure_trace_context(trace)
    except ValueError as err:
        raise ProtocolError(str(err)) from None


# -- response helpers --------------------------------------------------------


def ok(**fields) -> dict:
    return {"ok": True, **fields}


def error(message: str, **fields) -> dict:
    return {"ok": False, "error": message, **fields}


def reject(message: str, retry_after: float, **fields) -> dict:
    """Backpressure response: try again, but not before
    ``retry_after`` seconds."""
    return error(message, retry_after=round(retry_after, 3),
                 rejected=True, **fields)
