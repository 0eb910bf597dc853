"""Golden run digests: the simulator's observable behavior is pinned.

``tests/golden/digests.json`` records the ``run_digest`` of every
(workload, extension) point of the experiment grid under the fast
engine, and ``tests/golden/metrics.json`` the metrics snapshot a
metrics-on fast run of it publishes.  Any change to decode, timing, forwarding, or extension
semantics shifts a digest and fails here — so architectural changes
are always explicit diffs of the pinned file, never silent.  The
reference engine is held to the same results by
``tests/test_engine_differential.py``.
The grid definition lives in ``tests/golden/regenerate.py`` (single
source of truth for this test and the regeneration script).
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", _GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_regen = _load_regenerate()
GOLDEN = json.loads((_GOLDEN_DIR / "digests.json").read_text())
GOLDEN_METRICS = json.loads(_regen.METRICS_PATH.read_text())


def test_pinned_file_covers_the_grid():
    assert set(GOLDEN) == set(_regen.GOLDEN_ENGINES)
    grid = {_regen.key(p) for p in _regen.golden_points()}
    for engine in _regen.GOLDEN_ENGINES:
        assert set(GOLDEN[engine]) == grid
    assert set(GOLDEN_METRICS) == grid


#: engine names each point is run under: the pinned engine(s), plus
#: ``superblock``, the alias old flags, configs and journals still
#: use, which must reproduce the fast digests and report ``"fast"``.
CHECKED_ENGINES = _regen.GOLDEN_ENGINES + ("superblock",)


@pytest.mark.parametrize("engine", CHECKED_ENGINES)
@pytest.mark.parametrize("point", _regen.golden_points(),
                         ids=_regen.key)
def test_digest_matches_pinned(point, engine):
    """The ``fast`` pass runs with metrics on: it must stay on the
    fused engine, keep the digest, and publish the pinned snapshot
    (whose counter-backed values were taken from the per-event
    counters the simulator used to keep)."""
    from repro.engine.sweep import run_point
    from repro.telemetry import Telemetry

    telemetry = Telemetry.enabled() if engine == "fast" else None
    outcome = run_point(point, engine=engine, telemetry=telemetry)
    pinned = "fast" if engine == "superblock" else engine
    assert outcome.engine == pinned
    expected = GOLDEN[pinned][_regen.key(point)]
    assert outcome.digest == expected, (
        f"{_regen.key(point)}: digest {outcome.digest} != pinned "
        f"{expected}.  If this architectural change is intentional, "
        "rerun tests/golden/regenerate.py and review the diff."
    )
    if telemetry is not None:
        assert (telemetry.metrics.snapshot()
                == GOLDEN_METRICS[_regen.key(point)])
