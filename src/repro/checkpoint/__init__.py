"""Crash-safe checkpoint/restore for FlexCore simulations.

The subsystem has four layers, each usable on its own:

* :mod:`repro.checkpoint.atomic` — torn-write-free file replacement
  (temp file + fsync + rename), used by every on-disk artifact;
* :mod:`repro.checkpoint.codec` — a deterministic tagged binary
  encoding of plain Python data (bit-exact floats included), and the
  state digest and compact packed form that compare and keep snapshots;
* :mod:`repro.checkpoint.container` — the versioned, per-section
  CRC-checked ``.ckpt`` file format;
* :class:`SystemSnapshot` — capture/restore of a complete
  :class:`~repro.flexcore.system.FlexCoreSystem`, identity-checked
  against the program image and extension.

On top of those sit :class:`ResultsJournal` (append-only, resumable
fault-campaign journals) and :class:`GoldenCache` (memoised golden-run
profiles).
"""

from repro.checkpoint.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_file,
)
from repro.checkpoint.codec import (
    CodecError,
    decode_obj,
    encode_obj,
    pack_state,
    state_digest,
    unpack_state,
)
from repro.checkpoint.container import (
    SCHEMA_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    read_container,
    write_container,
)
from repro.checkpoint.golden_cache import (
    GoldenCache,
    IdentityCache,
    golden_identity,
)
from repro.checkpoint.journal import (
    EventJournal,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    ResultsJournal,
    canonical_json,
)
from repro.checkpoint.snapshot import (
    CheckpointMismatchError,
    SystemSnapshot,
    program_digest,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointMismatchError",
    "CheckpointVersionError",
    "CodecError",
    "EventJournal",
    "GoldenCache",
    "IdentityCache",
    "JournalCorruptError",
    "JournalError",
    "JournalMismatchError",
    "ResultsJournal",
    "SystemSnapshot",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "decode_obj",
    "encode_obj",
    "fsync_file",
    "golden_identity",
    "pack_state",
    "program_digest",
    "read_container",
    "state_digest",
    "unpack_state",
    "write_container",
]
