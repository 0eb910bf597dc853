"""Integrated infra-chaos tests: campaigns and sweeps under fire.

The contract under test is the tentpole's: whatever the
*infrastructure* does — workers SIGKILLed, workers wedged, the disk
full, multiprocessing missing entirely — the science stays intact.
Completed results are bit-identical to a healthy serial run, and
anything that could not complete is *reported* (quarantined), never
silently dropped.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.checkpoint import ResultsJournal
from repro.engine import supervisor
from repro.engine.sweep import SweepPoint, SweepRunner
from repro.faultinject import Campaign, CampaignConfig, Outcome
from tests import chaos
from tests.test_resume import SOURCE, sec_config

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="chaos injection relies on fork inheritance",
)


def parallel_config(**overrides) -> CampaignConfig:
    settings = dict(jobs=3, task_timeout=5.0)
    settings.update(overrides)
    return sec_config(**settings)


@fork_only
class TestCampaignChaos:
    def test_kills_and_hangs_do_not_change_the_report(
            self, tmp_path, monkeypatch):
        reference = Campaign(sec_config()).run()
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill=(2, 5, 9), hang=(7,), hang_seconds=60.0))
        campaign = Campaign(parallel_config(task_timeout=2.0))
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        stats = campaign.pool_stats
        assert stats.crashes >= 3
        assert stats.timeouts >= 1
        assert stats.quarantined == 0

    def test_poisonous_index_becomes_infra_failed(
            self, tmp_path, monkeypatch):
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=(4,), in_children_only=True))
        campaign = Campaign(parallel_config(
            max_retries=1, serial_fallback="never"))
        report = campaign.run()
        counts = report.counts()
        assert counts[Outcome.INFRA_FAILED] == 1
        assert report.total == campaign.config.faults
        quarantined = [r for r in report.results
                       if r.outcome is Outcome.INFRA_FAILED]
        assert quarantined[0].index == 4
        assert quarantined[0].termination == "infra-failure"
        # the planned fault spec rides along for later reproduction
        assert quarantined[0].spec == campaign.plan(4)[1]
        assert "worker died" in quarantined[0].detail
        rendered = report.format()
        assert "infra:" in rendered
        assert "resume" in rendered

    def test_infra_failures_cannot_move_detection_coverage(
            self, tmp_path, monkeypatch):
        reference = Campaign(sec_config()).run()
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=(3,), in_children_only=True))
        report = Campaign(parallel_config(
            max_retries=0, serial_fallback="never")).run()
        # index 3 is masked in the reference, so removing it from
        # both numerator-eligible and denominator sets must leave
        # coverage untouched
        ref = reference.counts()
        got = report.counts()
        assert got[Outcome.INFRA_FAILED] == 1
        assert (got[Outcome.DETECTED] + got[Outcome.MASKED]
                + got[Outcome.SDC]
                == ref[Outcome.DETECTED] + ref[Outcome.MASKED]
                + ref[Outcome.SDC] - 1)

    def test_resume_heals_quarantined_indices(
            self, tmp_path, monkeypatch):
        journal = tmp_path / "campaign.jsonl"
        reference = Campaign(sec_config()).run()
        with monkeypatch.context() as patched:
            chaos.install(patched, chaos.ChaosPlan(
                tmp_path / "markers", kill_always=(4, 8),
                in_children_only=True))
            damaged = Campaign(parallel_config(
                max_retries=1, serial_fallback="never"))
            report = damaged.run(journal_path=journal)
            assert report.counts()[Outcome.INFRA_FAILED] == 2
        # chaos gone (monkeypatch restored): resume re-runs exactly
        # the quarantined indices and the science heals to reference —
        # while the journaled infra history (the quarantines the
        # campaign lived through) stays visible in the metrics
        healer = Campaign(parallel_config())
        healed = healer.run(journal_path=journal, resume=True)
        healed_doc = json.loads(healed.to_json())
        reference_doc = json.loads(reference.to_json())
        assert healed_doc["metrics"].pop("infra") != \
            reference_doc["metrics"].pop("infra")
        assert healed_doc == reference_doc
        assert healed.infra["quarantined"] == 2
        assert healed.infra["crashes"] >= 2
        assert "infra: retries=" in healed.format(metrics=True)
        assert any("re-running 2" in w for w in healer.warnings)

    def test_cli_exits_3_when_no_coverage_was_measured(
            self, tmp_path, monkeypatch, capsys):
        """Every index quarantined: the printed 100.0% coverage is
        vacuous, so the CLI must not exit 0 (CI would green-light a
        campaign that measured nothing)."""
        from repro.__main__ import main
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path / "markers", kill_always=tuple(range(12)),
            in_children_only=True))
        source = tmp_path / "prog.asm"
        source.write_text(SOURCE)
        code = main([
            "inject", "--extension", "sec", "--source", str(source),
            "--faults", "12", "--seed", "7", "--jobs", "3",
            "--max-retries", "0", "--serial-fallback", "never",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "no coverage measured" in captured.err
        assert "12/12" in captured.err

    def test_no_coverage_is_about_infra_not_masking(self):
        """``no_coverage`` flags *infrastructure* vacuity only: an
        all-masked (or empty) healthy campaign is a legitimate result
        and must not trip the exit-3 path."""
        from repro.faultinject.report import CoverageReport
        profile = Campaign(sec_config()).profile
        healthy = CoverageReport.build(sec_config(), profile, ())
        assert not healthy.no_coverage
        report = Campaign(sec_config()).run()
        assert not report.no_coverage

    def test_hung_worker_mid_batch_requeues_only_unfinished(
            self, tmp_path, monkeypatch):
        """One fault per task: when a worker wedges on fault 3, the
        reaped task re-runs fault 3 alone — the doomed attempt plus
        one retry — and every other fault runs exactly once."""
        from collections import Counter
        reference = Campaign(sec_config()).run()
        run_log = tmp_path / "runs.log"
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path / "markers", hang=(3,), hang_seconds=60.0,
            run_log=run_log))
        campaign = Campaign(parallel_config(task_timeout=2.0, jobs=2))
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert campaign.pool_stats.timeouts == 1
        assert campaign.pool_stats.quarantined == 0
        counts = Counter(
            int(line) for line in run_log.read_text().split()
        )
        assert counts[3] == 2, "hung fault: doomed attempt + retry"
        del counts[3]
        assert counts == {i: 1 for i in range(12) if i != 3}, (
            "every other fault must run exactly once — a fault re-ran "
            "or was dropped"
        )

    def test_indices_subset_batches_only_the_subset(
            self, tmp_path, monkeypatch):
        """``run(indices=)`` dispatches only the requested subset,
        one fault per task, even under a worker kill: the killed
        fault is the only one attempted twice."""
        from collections import Counter
        run_log = tmp_path / "runs.log"
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path / "markers", kill=(4,), run_log=run_log))
        campaign = Campaign(parallel_config(jobs=2))
        subset = [1, 3, 4, 8, 9]
        report = campaign.run(indices=subset)
        assert sorted(r.index for r in report.results) == subset
        assert campaign.pool_stats.crashes == 1
        counts = Counter(
            int(line) for line in run_log.read_text().split()
        )
        assert counts == {i: 2 if i == 4 else 1 for i in subset}
        serial = Campaign(sec_config()).run(indices=subset)
        assert report.to_json() == serial.to_json()

    def test_serial_fallback_completes_the_campaign(
            self, tmp_path, monkeypatch):
        reference = Campaign(sec_config()).run()
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=tuple(range(12)),
            in_children_only=True))
        campaign = Campaign(parallel_config())
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert campaign.pool_stats.degraded
        assert any("serial" in w for w in campaign.warnings)


class TestDegradedEnvironments:
    def test_multiprocessing_unavailable_is_survivable(
            self, monkeypatch):
        reference = Campaign(sec_config()).run()

        def no_multiprocessing():
            raise OSError("forks are disabled on this box")
        monkeypatch.setattr(supervisor, "_get_context",
                            no_multiprocessing)
        campaign = Campaign(parallel_config())
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert campaign.pool_stats.degraded

    def test_forced_serial_fallback_is_bit_identical(self):
        reference = Campaign(sec_config()).run()
        campaign = Campaign(parallel_config(serial_fallback="force"))
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert campaign.pool_stats.degraded

    def test_enospc_golden_cache_degrades_to_uncached(
            self, tmp_path, monkeypatch):
        reference = Campaign(sec_config()).run()
        monkeypatch.setattr("repro.checkpoint.golden_cache"
                            ".write_container", chaos.enospc)
        campaign = Campaign(sec_config(
            cache_dir=str(tmp_path / "cache")))
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert any("disabled" in w and "uncached" in w
                   for w in campaign.warnings)

    def test_enospc_journal_degrades_to_unjournaled(
            self, tmp_path, monkeypatch):
        reference = Campaign(sec_config()).run()
        monkeypatch.setattr("repro.checkpoint.journal.fsync_file",
                            chaos.enospc)
        campaign = Campaign(sec_config())
        report = campaign.run(journal_path=tmp_path / "j.jsonl")
        assert report.to_json() == reference.to_json()
        assert any("journal disabled" in w
                   for w in campaign.warnings)


SWEEP_POINTS = [
    SweepPoint(workload="crc32", scale=0.125),
    SweepPoint(workload="crc32", extension="sec", clock_ratio=0.5,
               scale=0.125),
    SweepPoint(workload="crc32", extension="sec", clock_ratio=0.25,
               scale=0.125),
    SweepPoint(workload="crc32", extension="dift", clock_ratio=0.5,
               scale=0.125),
]


def sweep_digests(outcomes) -> list[str | None]:
    return [o.digest if o is not None else None for o in outcomes]


@fork_only
class TestSweepChaos:
    def test_chaotic_sweep_matches_serial_reference(
            self, tmp_path, monkeypatch):
        reference = SweepRunner(jobs=1).run(SWEEP_POINTS)
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill=(1,), hang=(2,), hang_seconds=60.0))
        runner = SweepRunner(jobs=2, policy=supervisor.PoolPolicy(
            task_timeout=10.0))
        outcomes = runner.run(SWEEP_POINTS)
        assert sweep_digests(outcomes) == sweep_digests(reference)
        assert runner.stats.crashes >= 1
        assert runner.stats.timeouts >= 1

    def test_quarantined_point_is_reported_not_dropped(
            self, tmp_path, monkeypatch):
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=(3,), in_children_only=True))
        failures: list = []
        runner = SweepRunner(jobs=2, policy=supervisor.PoolPolicy(
            max_retries=1, fallback="never"))
        outcomes = runner.run(
            SWEEP_POINTS,
            on_infra_failure=lambda point, err: failures.append(point))
        assert outcomes[3] is None
        assert [o is not None for o in outcomes[:3]] == [True] * 3
        assert failures == [SWEEP_POINTS[3]]
        assert runner.failures[0][0] == SWEEP_POINTS[3]
        assert "worker died" in runner.failures[0][1]

    def test_quarantine_without_handler_raises(
            self, tmp_path, monkeypatch):
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=(3,), in_children_only=True))
        runner = SweepRunner(jobs=2, policy=supervisor.PoolPolicy(
            max_retries=0, fallback="never"))
        with pytest.raises(supervisor.Quarantined):
            runner.run(SWEEP_POINTS)


class TestSweepDegradation:
    def test_enospc_sweep_cache_degrades_to_uncached(
            self, tmp_path, monkeypatch):
        reference = SweepRunner(jobs=1).run(SWEEP_POINTS)
        monkeypatch.setattr("repro.checkpoint.golden_cache"
                            ".write_container", chaos.enospc)
        diagnostics: list[str] = []
        runner = SweepRunner(jobs=1,
                             cache_dir=str(tmp_path / "cache"))
        outcomes = runner.run(SWEEP_POINTS,
                              diagnostics=diagnostics.append)
        assert sweep_digests(outcomes) == sweep_digests(reference)
        assert any("disabled" in d for d in diagnostics)

    def test_interrupted_sweep_keeps_completed_cache_entries(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        boom = SWEEP_POINTS[2]

        class Stop(KeyboardInterrupt):
            pass

        runner = SweepRunner(jobs=1, cache_dir=str(cache_dir))
        original = SweepRunner._store

        def store_then_stop(self, outcome, diagnostics):
            original(self, outcome, diagnostics)
            if outcome.point == boom:
                raise Stop

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(SweepRunner, "_store", store_then_stop)
            with pytest.raises(Stop):
                runner.run(SWEEP_POINTS)
        # everything stored before the interrupt is served from cache
        resumed = SweepRunner(jobs=1, cache_dir=str(cache_dir))
        outcomes = resumed.run(SWEEP_POINTS)
        reference = SweepRunner(jobs=1).run(SWEEP_POINTS)
        assert sweep_digests(outcomes) == sweep_digests(reference)


@fork_only
@pytest.mark.slow
class TestLargeChaosCampaign:
    """The CI pool-chaos scenario in miniature-at-scale: a 100-fault
    campaign with a barrage of worker kills and one wedged worker
    still produces the bit-identical report of a healthy serial run.
    """

    def test_hundred_fault_campaign_under_fire(
            self, tmp_path, monkeypatch):
        config = dict(extension="sec", source=SOURCE, faults=100,
                      seed=11)
        reference = Campaign(CampaignConfig(**config)).run()
        chaos.install(monkeypatch, chaos.ChaosPlan(
            tmp_path,
            kill=tuple(range(0, 100, 9)),
            hang=(50,), hang_seconds=120.0))
        campaign = Campaign(CampaignConfig(
            **config, jobs=4, task_timeout=5.0, max_retries=2))
        report = campaign.run()
        assert report.to_json() == reference.to_json()
        assert campaign.pool_stats.crashes >= 10
        assert campaign.pool_stats.timeouts >= 1
        assert report.counts()[Outcome.INFRA_FAILED] == 0
