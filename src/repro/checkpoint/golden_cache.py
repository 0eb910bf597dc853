"""On-disk identity-keyed caches (golden-run profiles, sweep results).

:class:`IdentityCache` is the generic machinery: entries are
checkpoint containers (CRC-checked, atomically written) named
``<stem>-<hash12>.ckpt`` where ``hash12`` prefixes the SHA-256 of the
canonical identity JSON.  Loading re-verifies the *full* identity
stored inside the entry; any mismatch or corruption is reported as a
human-readable invalidation diagnostic and treated as a miss (the
payload is recomputed and the entry rewritten) — a cache can slow a
run down, never poison it.

:class:`GoldenCache` specialises it for fault campaigns.  The golden
run is the serial prefix of every campaign: it must finish before any
fault can be planned, and for the larger workloads it is most of
campaign start-up.  It runs once per campaign (pool workers get the
parent's profile).  Its result, the
:class:`~repro.faultinject.models.GoldenProfile`, depends only on the
(workload, extension, simulator configuration) triple — and on the MDL
sources, when the extension is a compiled monitor — so it is safe to
memoise on disk.  :class:`repro.engine.sweep.SweepRunner` reuses
the same machinery for table/figure sweep points.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.checkpoint.codec import decode_obj, encode_obj
from repro.checkpoint.container import (
    CheckpointError,
    read_container,
    write_container,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faultinject.campaign import CampaignConfig
    from repro.faultinject.models import GoldenProfile

IDENTITY_SECTION = "identity"
PROFILE_SECTION = "profile"

#: version of the cached :class:`~repro.faultinject.models.GoldenProfile`
#: layout.  Bump it whenever the profile gains a field older entries
#: lack, so they are diagnosed stale and regenerated instead of loading
#: without it.  Version 2 added per-landmark state digests, version 3
#: the packed landmark states that warm-started runs fork from and the
#: digest of the program image those states belong to, version 4 the
#: instret of each instruction class's first commit.
GOLDEN_FORMAT = 4


def golden_identity(config: "CampaignConfig") -> dict:
    """The fields the golden run's outcome depends on — and nothing
    else (``jobs``, ``faults``, ``seed`` etc. must not fragment the
    cache) — plus the profile layout version.

    A campaign's MDL specs may register a monitor under a built-in
    name, so the identity carries them; only when there are any, so
    entries of campaigns without MDL keep their key."""
    identity = {
        "format": GOLDEN_FORMAT,
        "workload": config.workload,
        "source": config.source,
        "entry": config.entry,
        "scale": config.scale,
        "extension": config.extension,
        "clock_ratio": config.clock_ratio,
        "fifo_depth": config.fifo_depth,
        "max_instructions": config.max_instructions,
    }
    if config.mdl:
        identity["mdl"] = [list(pair) for pair in config.mdl]
    return identity


def _identity_key(identity: dict) -> str:
    payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class IdentityCache:
    """A directory of identity-keyed, CRC-checked cache entries.

    ``label`` names the cache in diagnostics ("golden cache", "sweep
    cache"); ``section`` names the payload section inside each
    container.  Payloads are plain JSON-able dicts.
    """

    def __init__(self, root, *, label: str, section: str):
        self.root = Path(root)
        self.label = label
        self.section = section
        #: set the first time a write fails with an environment error
        #: (ENOSPC, EROFS, EACCES, ...).  A cache is a pure
        #: accelerant: once it proves unwritable, further stores
        #: become no-ops and the run continues uncached — a full disk
        #: must never abort a multi-hour sweep.  Callers surface this
        #: as a one-shot structured warning.
        self.disabled_reason: str | None = None

    def path_for(self, identity: dict, stem: str) -> Path:
        return self.root / (
            f"{stem}-{_identity_key(identity)[:12]}.ckpt"
        )

    def load(self, identity: dict, stem: str
             ) -> tuple[dict | None, str | None]:
        """Look a payload up: ``(payload, diagnostic)``.

        Exactly one of the pair is ``None``: a hit returns the stored
        payload; a miss returns a diagnostic explaining *why* the
        entry was unusable (absent, corrupt, or stale identity).
        """
        path = self.path_for(identity, stem)
        try:
            if not path.exists():
                return None, f"{self.label} miss: no entry at {path}"
            sections = read_container(path)
            stored = decode_obj(sections[IDENTITY_SECTION])
            payload = decode_obj(sections[self.section])
        except (CheckpointError, KeyError, OSError) as err:
            # OSError covers unreadable entries (EACCES, EIO): a
            # broken cache degrades to a miss, never to a crash.
            return None, (
                f"{self.label} entry {path} is unusable "
                f"({type(err).__name__}: {err}); recomputing"
            )
        if stored != identity:
            stale = sorted(
                key for key in set(stored) | set(identity)
                if stored.get(key) != identity.get(key)
            )
            return None, (
                f"{self.label} entry {path} was built for a different "
                f"configuration (stale fields: {', '.join(stale)}); "
                f"recomputing"
            )
        return payload, None

    def store(self, identity: dict, stem: str,
              payload: dict) -> Path | None:
        """Atomically (re)write the entry for this identity.

        Returns the entry path, or ``None`` when the cache directory
        is unwritable (full disk, read-only mount, no permission) —
        the cache disables itself with :attr:`disabled_reason` set
        and the caller continues uncached.
        """
        if self.disabled_reason is not None:
            return None
        path = self.path_for(identity, stem)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            write_container(path, {
                IDENTITY_SECTION: encode_obj(identity),
                self.section: encode_obj(payload),
            })
        except OSError as err:
            self.disabled_reason = (
                f"{self.label} disabled: cannot write {path} "
                f"({type(err).__name__}: {err}); continuing uncached"
            )
            return None
        return path


class GoldenCache:
    """A directory of memoised golden-run profiles."""

    def __init__(self, root):
        self._cache = IdentityCache(
            root, label="golden cache", section=PROFILE_SECTION
        )

    @property
    def root(self) -> Path:
        return self._cache.root

    @property
    def disabled_reason(self) -> str | None:
        """Why writes are disabled (``None`` while healthy)."""
        return self._cache.disabled_reason

    def _stem(self, config: "CampaignConfig") -> str:
        workload = config.workload or "inline"
        return f"{workload}-{config.extension}"

    def path_for(self, config: "CampaignConfig") -> Path:
        return self._cache.path_for(golden_identity(config),
                                    self._stem(config))

    def load(
        self, config: "CampaignConfig"
    ) -> tuple["GoldenProfile | None", str | None]:
        """Look the profile up: ``(profile, diagnostic)``.

        Exactly one of the pair is ``None``: a hit returns the
        profile; a miss returns a diagnostic explaining *why* the
        entry was unusable (absent, corrupt, stale identity, or a
        matching identity over a profile layout this code cannot
        build).
        """
        from repro.faultinject.models import GoldenProfile, ProfileMark

        fields, diagnostic = self._cache.load(golden_identity(config),
                                              self._stem(config))
        if fields is None:
            return None, diagnostic
        try:
            fields["store_addresses"] = tuple(fields["store_addresses"])
            fields["first_commits"] = tuple(fields["first_commits"])
            fields["marks"] = tuple(
                ProfileMark(*mark) for mark in fields["marks"]
            )
            return GoldenProfile(**fields), None
        except (KeyError, TypeError, ValueError) as err:
            return None, (
                f"golden cache entry {self.path_for(config)} is unusable "
                f"({type(err).__name__}: {err}); recomputing"
            )

    def store(self, config: "CampaignConfig",
              profile: "GoldenProfile") -> Path | None:
        """Atomically (re)write the entry for this configuration
        (``None`` when the cache directory is unwritable)."""
        return self._cache.store(golden_identity(config),
                                 self._stem(config),
                                 vars(profile).copy())
