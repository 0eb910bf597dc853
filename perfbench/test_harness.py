"""Self-test of the benchmark harness at reduced sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
Each workload function runs on a small spec passed as an argument,
untraced and traced, against reference outputs computed here.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import regenerate  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMALL = {
    "sweep-monitored": suite.SweepSpec(
        monitors=suite.UNMONITORED + (("dift", 0.5),), scale=0.03125,
        kernels=("bitcount", "basicmath")),
    "campaign-sha-dift": suite.CampaignSpec(scale=0.03125, faults=4),
    "service-mixed": suite.ServiceSpec(
        kernels=("bitcount", "crc32"),
        monitors=suite.UNMONITORED + (("umc", 0.5),), jobs=8),
}
SEED = 3


def small_expected(spec) -> dict:
    if isinstance(spec, suite.CampaignSpec):
        return {"points": {},
                "campaign": regenerate.campaign_reference(spec)}
    if isinstance(spec, suite.ServiceSpec):
        points = regenerate.service_points(spec)
    else:
        points = spec.points()
    return {"points": regenerate.point_references(points),
            "campaign": {}}


@pytest.fixture(scope="module", params=sorted(SMALL))
def passes(request):
    """``(spec, expected, untraced, traced)`` for one small workload."""
    name = request.param
    spec = SMALL[name]
    expected = small_expected(spec)
    untraced = suite.run_workload(name, SEED, 1.0, False, expected,
                                  spec=spec, setup_repeats=1)
    traced = suite.run_workload(name, SEED, 1.0, True, expected,
                                spec=spec)
    return name, spec, expected, untraced, traced


def benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE),
                           "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_names_every_emitted_metric():
    doc = benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert end_to_end == suite.END_TO_END
    assert per_layer == suite.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(
        run.WORKLOAD_NAMES)
    names = [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.15


def test_baseline_holds_within_the_bounds():
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    with open(os.path.join(HERE, "baseline.json")) as handle:
        baseline = json.load(handle)
    assert sorted(baseline["workloads"]) == sorted(run.WORKLOAD_NAMES)
    for name, workload in baseline["workloads"].items():
        assert workload["runs"]["all_correct"], name
        assert len(workload["sets"]) == 2, name
        assert set(workload["checks"]) == set(bounds), name
        for metric, check in workload["checks"].items():
            assert check["bound"] == bounds[metric], (name, metric)
            assert check["worse_by"] <= check["bound"], (name, metric)
            assert check["max_spread"] <= check["bound"], (name, metric)
        assert workload["traced_correct"], name
        assert workload["traced_seed_1"]["trace_overhead"] <= 1.05, name


def test_untraced_pass_is_correct_and_complete(passes):
    _name, _spec, _expected, untraced, _traced = passes
    assert untraced.correct, untraced.errors
    payload = untraced.payload(suite.END_TO_END)
    assert set(payload["metrics"]) == set(suite.END_TO_END)
    for name, metric in payload["metrics"].items():
        assert metric["value"] > 0, name
    json.dumps(payload, allow_nan=False)


def test_traced_pass_reports_every_layer(passes):
    name, _spec, _expected, _untraced, traced = passes
    assert traced.correct, traced.errors
    payload = traced.payload(suite.PER_LAYER)
    assert set(payload["metrics"]) == set(suite.PER_LAYER)
    shares = [payload["metrics"][f"host.{layer}_share"]["value"]
              for layer in tracing.LAYERS]
    assert payload["metrics"]["host.samples"]["value"] > 0
    assert math.isclose(sum(shares), 1.0, abs_tol=1e-9)
    # at these sizes the ratio is noisy; baseline.json holds the
    # full-length figures, which test_baseline_holds_within_the_bounds
    # checks against 1.05
    assert 0.8 <= payload["metrics"]["trace_overhead"]["value"] <= 1.25
    with open(os.path.join(suite.OUT, f"{name}.trace.json")) as handle:
        events = json.load(handle)["traceEvents"]
    assert {e["name"] for e in events} & set(suite.OP_SPANS)


def test_traced_pass_reproduces_untraced_outputs(passes):
    _name, _spec, _expected, untraced, traced = passes
    assert traced.result_digest == untraced.result_digest
    sim = {k: v for k, v in untraced.counts.items()
           if k.startswith(("sim.", "campaign."))}
    assert sim == {k: v for k, v in traced.counts.items() if k in sim}


def test_corrupted_reference_counts_as_failure(passes):
    name, spec, expected, _untraced, _traced = passes
    corrupted = json.loads(json.dumps(expected))
    for reference in corrupted["points"].values():
        reference["digest"] = "0" * 16
    if corrupted["campaign"]:
        faults = corrupted["campaign"]["faults"]
        corrupted["campaign"]["faults"] = ["0" * 16] * len(faults)
    result = suite.run_workload(name, SEED, 0.2, False, corrupted,
                                spec=spec, setup_repeats=1)
    assert not result.correct
    assert result.failed > 0


def test_service_latency_is_not_poll_quantised(passes):
    name, _spec, _expected, untraced, _traced = passes
    if name != "service-mixed":
        pytest.skip("service workload only")
    residues = {round(seconds * 1000) % 100
                for seconds in untraced.wall_latencies}
    assert len(residues) > 1


def test_exit_status_reflects_correctness(capsys):
    expected = run.load_expected()
    for reference in expected["points"].values():
        reference["digest"] = "0" * 16
    cpus = os.sched_getaffinity(0)
    status = run.main(["--workload", "service-mixed", "--seed", "1",
                       "--seconds", "0.2", "--trace", "0"],
                      expected=expected)
    assert os.sched_getaffinity(0) == cpus
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert payload["correct"] is False and payload["failed"] > 0


def test_a_model_that_always_raises_exits_1(capsys, monkeypatch):
    from repro.engine.sweep import SweepRunner

    def broken(self, points, *args, **kwargs):
        raise RuntimeError("broken model")

    monkeypatch.setattr(SweepRunner, "run", broken)
    status = run.main(["--workload", "sweep-baseline", "--seed", "1",
                       "--seconds", "0.1", "--trace", "0"])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert payload["correct"] is False
    assert payload["failed"] == payload["attempted"] > 0


def test_timeline_counts_slow_seconds_as_fewer_reference_seconds():
    # half speed from t=0 to t=10, then full speed; one probe at t=5
    # took 4x as long (an interrupt) and must not move the clock
    samples = [(float(t), 2.0 if t <= 10 else 1.0) for t in range(21)]
    samples[5] = (5.0, 8.0)
    timeline = hostspeed.Timeline(samples, reference_seconds=1.0)
    assert math.isclose(timeline.at(4.0) - timeline.at(2.0), 1.0)
    assert math.isclose(timeline.at(6.0) - timeline.at(4.0), 1.0)
    assert math.isclose(timeline.at(20.0) - timeline.at(12.0), 8.0)
    assert math.isclose(timeline.at(22.0) - timeline.at(20.0), 2.0)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "sweep-baseline", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60)
    assert process.returncode == 2
    assert process.stdout == ""


def test_layer_map_follows_the_package_layout():
    sampler = tracing.Sampler()
    root = tracing._repro_root()
    cases = {
        "engine/fastloop.py": "engine", "engine/sweep.py": "other",
        "flexcore/system.py": "system", "flexcore/fifo.py": "flexcore",
        "mdl/ir.py": "monitor", "extensions/dift.py": "monitor",
        "checkpoint/journal.py": "checkpoint", "core/timing.py": "core",
    }
    for relative, layer in cases.items():
        assert sampler.layer_of(root + relative) == layer, relative
