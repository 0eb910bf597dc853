"""Rewrite ``expected.json``, the benchmark's reference outputs.

Run after a deliberate change to the simulated model (one that is
meant to change run digests or coverage reports), from the
repository root::

    python3 perfbench/regenerate.py

It records, untimed:

* ``points`` -- the run digest, instruction and cycle count of every
  grid point the sweeps run and every job the service workload
  submits, computed directly with ``SweepRunner`` (so the served
  documents are also checked against the in-process path);
* ``campaign`` -- the digest of each of the campaign workload's faults
  (:func:`suite.fault_digest`, by fault index) and the sha256 of their
  coverage report, run in one ``Campaign.run`` call: a run in any
  order must reproduce both.

Review the diff before committing: a speed-only change must leave the
file byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import suite  # noqa: E402


def point_references(points) -> dict:
    """``point key -> checked outcome fields`` for sweep points."""
    from repro.engine.sweep import SweepRunner

    references = {}
    for point in points:
        [outcome] = SweepRunner().run([point])
        payload = outcome.payload()
        key = suite.point_key(point.workload, point.extension,
                              point.clock_ratio, point.scale)
        references[key] = {name: payload[name]
                           for name in suite.POINT_FIELDS}
    return references


def service_points(spec: suite.ServiceSpec) -> list:
    from repro.engine.sweep import SweepPoint
    return [SweepPoint(**job) for job in spec.round()]


def campaign_reference(spec: suite.CampaignSpec) -> dict:
    """Per-fault digests and the report digest of the campaign
    workload's faults, run serially and journaled in index order."""
    from repro.faultinject import Campaign

    os.makedirs(suite.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="regenerate-",
                                     dir=suite.OUT) as scratch:
        report = Campaign(spec.config()).run(
            indices=range(spec.faults),
            journal_path=os.path.join(scratch, "campaign.jsonl"))
    return {"faults": [suite.fault_digest(fault)
                       for fault in report.results],
            "report": suite.report_digest(report)}


def build() -> dict:
    points = []
    campaign = {}
    for spec in suite.WORKLOADS.values():
        if isinstance(spec, suite.SweepSpec):
            points.extend(spec.points())
        elif isinstance(spec, suite.ServiceSpec):
            points.extend(service_points(spec))
        else:
            campaign = campaign_reference(spec)
    return {"points": point_references(points), "campaign": campaign}


def main() -> int:
    expected = build()
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected['points'])} point references and "
          f"{len(expected['campaign']['faults'])} fault references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
