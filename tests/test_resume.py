"""Resumable campaigns: journals, golden cache, interruption,
rollback-recovery outcomes, and the kill -9 chaos path."""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.checkpoint import (
    GoldenCache,
    JournalCorruptError,
    JournalMismatchError,
    ResultsJournal,
    decode_obj,
    encode_obj,
    golden_identity,
    pack_state,
    state_digest,
    unpack_state,
    write_container,
)
from repro.faultinject import (
    Campaign,
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    FaultResult,
    FaultSpec,
    Outcome,
)
from repro.faultinject import campaign as campaign_module
from repro.faultinject.campaign import MARK_STRIDE
from repro.faultinject.models import ProfileMark, create_model
from repro.flexcore.system import FlexCoreSystem
from repro.isa.opcodes import ALU_CLASSES, InstrClass
from repro.mdl import SHIPPED_SPEC_DIR

SOURCE = """
        .text
start:  mov     8, %o1
        set     buf, %o2
loop:   st      %o1, [%o2]
        ld      [%o2], %o3
        add     %o2, 4, %o2
        subcc   %o1, 1, %o1
        bne     loop
        nop
        set     checksum, %o4
        st      %o3, [%o4]
        ta      0
        nop
        .data
buf:    .space  64
checksum: .word 0
"""


def sec_config(**overrides) -> CampaignConfig:
    settings = dict(extension="sec", source=SOURCE, faults=12, seed=7)
    settings.update(overrides)
    return CampaignConfig(**settings)


class TestJournal:
    IDENTITY = {"campaign": "x", "seed": 1}

    def test_round_trip(self, tmp_path):
        journal = ResultsJournal(tmp_path / "j.jsonl")
        journal.start(self.IDENTITY)
        journal.append_result({"index": 0, "outcome": "masked"})
        journal.append_result({"index": 1, "outcome": "sdc"})
        journal.close()
        identity, records = journal.read()
        assert identity == self.IDENTITY
        assert [r["index"] for r in records] == [0, 1]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultsJournal(path)
        journal.start(self.IDENTITY)
        journal.append_result({"index": 0})
        journal.append_result({"index": 1})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # cut into the final record
        identity, records = ResultsJournal(path).read()
        assert identity == self.IDENTITY
        assert [r["index"] for r in records] == [0]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultsJournal(path)
        journal.start(self.IDENTITY)
        journal.append_result({"index": 0})
        journal.append_result({"index": 1})
        journal.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"index":0', b'"index":5')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorruptError, match="line 2"):
            ResultsJournal(path).read()

    def test_empty_journal_reads_as_empty(self, tmp_path):
        # A zero-byte file is the very first write cut short: resume
        # restarts cleanly instead of erroring.
        path = tmp_path / "j.jsonl"
        path.write_text("")
        assert ResultsJournal(path).read() == (None, [])

    def test_torn_first_write_reads_as_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultsJournal(path)
        journal.start(self.IDENTITY)
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # header torn mid-line
        assert ResultsJournal(path).read() == (None, [])

    def test_missing_header_raises(self, tmp_path):
        # A *complete* non-header first frame is corruption, not a
        # torn write.
        path = tmp_path / "j.jsonl"
        journal = ResultsJournal(path)
        journal.start(self.IDENTITY)
        journal.append_result({"index": 0})
        journal.close()
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[1:]))  # drop the header
        with pytest.raises(JournalCorruptError, match="header"):
            ResultsJournal(path).read()

    def test_append_after_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultsJournal(path)
        journal.start(self.IDENTITY)
        journal.append_result({"index": 0})
        journal.close()
        journal = ResultsJournal(path)
        journal.open_append()
        journal.append_result({"index": 1})
        journal.close()
        _, records = ResultsJournal(path).read()
        assert [r["index"] for r in records] == [0, 1]


class TestFaultResultRoundTrip:
    def test_dict_round_trip_is_exact(self):
        campaign = Campaign(sec_config(faults=4))
        report = campaign.run()
        for result in report.results:
            clone = FaultResult.from_dict(
                json.loads(json.dumps(result.as_dict()))
            )
            assert clone == result


class TestCampaignResume:
    def test_resume_completes_partial_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = sec_config()
        reference = Campaign(config).run()

        # simulate a crash: keep only the first 5 journaled results
        Campaign(config).run(journal_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:6]))  # header + 5 results

        resumed = Campaign(config).run(journal_path=path, resume=True)
        assert resumed.to_json() == reference.to_json()

    def test_resume_with_different_jobs_is_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = sec_config()
        reference = Campaign(config).run()
        Campaign(config).run(journal_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))
        resumed = Campaign(sec_config(jobs=2)).run(
            journal_path=path, resume=True
        )
        assert resumed.to_json() == reference.to_json()

    def test_resume_of_zero_byte_journal_restarts(self, tmp_path):
        # The campaign died creating the journal (crash inside the
        # very first write): --resume must restart cleanly, not error.
        path = tmp_path / "j.jsonl"
        path.write_text("")
        config = sec_config()
        reference = Campaign(config).run()
        resumed = Campaign(config).run(journal_path=path, resume=True)
        assert resumed.to_json() == reference.to_json()
        identity, records = ResultsJournal(path).read()
        assert identity == config.journal_identity()
        assert len(records) == config.faults

    def test_resume_rejects_other_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Campaign(sec_config()).run(journal_path=path)
        other = Campaign(sec_config(seed=8))
        with pytest.raises(JournalMismatchError, match="different"):
            other.run(journal_path=path, resume=True)

    def test_resume_of_complete_journal_runs_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = sec_config()
        reference = Campaign(config).run(journal_path=path)
        campaign = Campaign(config)
        campaign.run_one = None  # would raise if any run executed
        resumed = campaign.run(journal_path=path, resume=True)
        assert resumed.to_json() == reference.to_json()


class TestInterruption:
    def test_interrupt_raises_with_partial_results(self, tmp_path):
        path = tmp_path / "j.jsonl"
        config = sec_config()

        def progress(done, total):
            if done == 5:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            Campaign(config).run(progress=progress, journal_path=path)
        stop = info.value
        assert len(stop.results) == 5
        partial = stop.partial_report()
        assert partial.total == 5
        assert partial.format()  # renders without crashing

        # everything reported as done is already durable on disk
        _, records = ResultsJournal(path).read()
        assert len(records) == 5

        resumed = Campaign(config).run(journal_path=path, resume=True)
        assert resumed.to_json() == Campaign(config).run().to_json()

    def test_empty_partial_report_renders(self):
        config = sec_config()

        def progress(done, total):
            raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            Campaign(config).run(progress=progress)
        assert "0.0%" in info.value.partial_report().format()


class TestGoldenCache:
    def test_miss_then_hit(self, tmp_path):
        config = sec_config(cache_dir=str(tmp_path))
        first = Campaign(config)
        assert first.cache_diagnostic is not None  # cold cache: a miss
        assert "miss" in first.cache_diagnostic
        assert first.golden is not None

        second = Campaign(config)
        assert second.cache_diagnostic is None  # hit
        assert second.golden is None  # golden run skipped entirely
        assert second.profile == first.profile

    def test_hit_produces_identical_report(self, tmp_path):
        config = sec_config(cache_dir=str(tmp_path))
        uncached = Campaign(sec_config()).run()
        Campaign(config)  # warm the cache
        cached = Campaign(config).run()
        assert cached.to_json() == uncached.to_json()

    def test_stale_identity_diagnosed(self, tmp_path):
        cache = GoldenCache(tmp_path)
        config = sec_config(cache_dir=str(tmp_path))
        campaign = Campaign(config)
        # forge an entry whose *file name* matches another config but
        # whose stored identity differs (truncated-hash collision)
        other = sec_config(scale=0.25, cache_dir=str(tmp_path))
        forged = cache.path_for(other)
        cache.path_for(config).rename(forged)
        profile, diagnostic = cache.load(other)
        assert profile is None
        assert "stale fields" in diagnostic
        assert "scale" in diagnostic

    def test_entry_without_digests_diagnosed_and_recomputed(self, tmp_path):
        # A profile cached before landmarks carried state digests must
        # not load: its runs could never stop early.  Forge one in the
        # old layout (no format in the identity, 3-element marks) under
        # the current entry's file name.
        cache = GoldenCache(tmp_path)
        config = warm_config("bitcount", "dift", cache_dir=str(tmp_path))
        fresh = Campaign(config).profile
        assert fresh.marks
        identity = golden_identity(config)
        del identity["format"]
        fields = vars(fresh).copy()
        fields["marks"] = [mark[:3] for mark in fresh.marks]
        write_container(cache.path_for(config), {
            "identity": encode_obj(identity),
            "profile": encode_obj(fields),
        })
        rebuilt = Campaign(config)
        assert "stale fields: format" in rebuilt.cache_diagnostic
        assert rebuilt.golden is not None  # recomputed
        assert rebuilt.profile == fresh
        assert Campaign(config).cache_diagnostic is None  # rewritten

    def test_entry_without_states_diagnosed_and_recomputed(self, tmp_path):
        # A format-2 entry carries digests but no landmark states, so
        # its runs would have nothing to fork from.  Forge one under
        # the current entry's file name: it is stale, not loaded.
        cache = GoldenCache(tmp_path)
        config = warm_config("bitcount", "dift", cache_dir=str(tmp_path))
        fresh = Campaign(config).profile
        assert fresh.marks
        identity = golden_identity(config)
        identity["format"] = 2
        fields = vars(fresh).copy()
        fields["marks"] = [mark[:4] for mark in fresh.marks]
        write_container(cache.path_for(config), {
            "identity": encode_obj(identity),
            "profile": encode_obj(fields),
        })
        rebuilt = Campaign(config)
        assert "stale fields: format" in rebuilt.cache_diagnostic
        assert rebuilt.golden is not None  # recomputed
        assert rebuilt.profile == fresh
        reloaded = Campaign(config)  # rewritten, states included
        assert reloaded.cache_diagnostic is None
        assert all(mark.state for mark in reloaded.profile.marks)

    def test_entry_for_another_program_diagnosed_and_recomputed(
            self, tmp_path):
        # Landmark states are memory deltas against the program image,
        # so a profile recorded from another image under the same
        # identity (say, after a workload generator changed) must not
        # load.
        cache = GoldenCache(tmp_path)
        config = sec_config(cache_dir=str(tmp_path))
        fresh = Campaign(config).profile
        cache.store(config, replace(fresh, program="0" * 64))
        rebuilt = Campaign(config)
        assert "different program image" in rebuilt.cache_diagnostic
        assert rebuilt.golden is not None  # recomputed
        assert rebuilt.profile == fresh
        assert Campaign(config).cache_diagnostic is None  # rewritten

    def test_entry_with_old_mark_layout_diagnosed_and_recomputed(
            self, tmp_path):
        # An entry whose identity matches the current format but whose
        # marks lack a field cannot be built into a profile: it is
        # diagnosed and recomputed, not raised from Campaign(config).
        cache = GoldenCache(tmp_path)
        config = warm_config("bitcount", "dift", cache_dir=str(tmp_path))
        fresh = Campaign(config).profile
        assert fresh.marks
        fields = vars(fresh).copy()
        fields["marks"] = [mark[:4] for mark in fresh.marks]
        write_container(cache.path_for(config), {
            "identity": encode_obj(golden_identity(config)),
            "profile": encode_obj(fields),
        })
        profile, diagnostic = cache.load(config)
        assert profile is None
        assert "unusable (TypeError" in diagnostic
        assert diagnostic.endswith("recomputing")
        rebuilt = Campaign(config)
        assert "unusable" in rebuilt.cache_diagnostic
        assert rebuilt.golden is not None  # recomputed
        assert rebuilt.profile == fresh
        assert Campaign(config).cache_diagnostic is None  # rewritten

    def test_mdl_monitor_under_a_builtin_name_keys_its_own_entry(
            self, tmp_path):
        # An MDL spec that defines a slower ``bc`` writes the cache
        # for ``--extension bc``; the hand-written bc campaign sharing
        # the cache directory must miss that entry, not take its
        # profile, and report exactly what it reports uncached.
        source = (SHIPPED_SPEC_DIR / "bc.mdl").read_text()
        assert "cycles 2" in source
        spec = ("bc.mdl", source.replace("cycles 2", "cycles 6"))
        settings = dict(extension="bc", workload="bitcount",
                        scale=0.03125, faults=30, seed=1)
        uncached = Campaign(CampaignConfig(**settings)).run().to_json()
        cached = CampaignConfig(**settings, cache_dir=str(tmp_path))
        mdl = Campaign(replace(cached, mdl=(spec,)))
        handwritten = Campaign(cached)
        assert handwritten.profile != mdl.profile
        assert handwritten.run().to_json() == uncached
        assert "miss" in handwritten.cache_diagnostic
        assert Campaign(cached).cache_diagnostic is None  # its own entry
        # entries of campaigns without MDL keep their key
        assert "mdl" in golden_identity(mdl.config)
        assert "mdl" not in golden_identity(cached)

    def test_corrupt_entry_diagnosed_and_recomputed(self, tmp_path):
        cache = GoldenCache(tmp_path)
        config = sec_config(cache_dir=str(tmp_path))
        Campaign(config)
        entry = cache.path_for(config)
        raw = bytearray(entry.read_bytes())
        raw[-1] ^= 0xFF
        entry.write_bytes(bytes(raw))
        rebuilt = Campaign(config)
        assert "unusable" in rebuilt.cache_diagnostic
        assert rebuilt.golden is not None  # recomputed
        # and the entry was rewritten to a good state
        assert Campaign(config).cache_diagnostic is None


class TestRecoveredOutcome:
    def test_recover_mode_turns_detections_into_recoveries(self):
        plain = Campaign(sec_config(faults=20)).run()
        recovered = Campaign(sec_config(
            faults=20, checkpoint_every=10, recover=True,
        )).run()
        plain_counts = plain.counts()
        rec_counts = recovered.counts()
        assert plain_counts[Outcome.DETECTED] > 0
        assert rec_counts[Outcome.RECOVERED] > 0
        # recovered runs count as covered
        assert recovered.detection_coverage >= plain.detection_coverage
        for result in recovered.results:
            if result.outcome is Outcome.RECOVERED:
                assert result.recoveries > 0
                assert result.trap is None
                assert "rollback" in result.detail
        assert "recovery:" in recovered.format()

    def test_recover_requires_checkpoint_every(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            sec_config(recover=True)

    def test_recover_report_fields(self):
        report = Campaign(sec_config(
            faults=6, checkpoint_every=10, recover=True,
        )).run()
        data = report.as_dict()
        assert data["campaign"]["recover"] is True
        assert data["campaign"]["checkpoint_every"] == 10
        assert "recovered" in data["counts"]


#: the warm-start equivalence grid: three real workloads × three
#: monitoring extensions, each with its own seed so the injection
#: windows land at different (randomized) points of the run.
WARM_WORKLOADS = ("bitcount", "basicmath", "gmac")
WARM_EXTENSIONS = ("dift", "umc", "bc")


def warm_config(workload: str, extension: str,
                **overrides) -> CampaignConfig:
    seed = (211 + 7 * WARM_WORKLOADS.index(workload)
            + 13 * WARM_EXTENSIONS.index(extension))
    settings = dict(extension=extension, workload=workload,
                    scale=0.0625, faults=4, seed=seed)
    settings.update(overrides)
    return CampaignConfig(**settings)


class TestWarmStartEquivalence:
    """Warm-started campaigns (faulted runs forked from the golden
    run's landmark states) must be bit-identical to cold campaigns
    that re-run every fault-free prefix from reset."""

    @pytest.mark.parametrize("extension", WARM_EXTENSIONS)
    @pytest.mark.parametrize("workload", WARM_WORKLOADS)
    def test_warm_report_matches_cold(self, workload, extension):
        cold = Campaign(
            warm_config(workload, extension, warm_start=False)
        ).run()
        campaign = Campaign(warm_config(workload, extension))
        forks = []
        plan = campaign._warm_plan

        def spy(*args):
            forks.append(plan(*args))
            return forks[-1]

        campaign._warm_plan = spy
        warm = campaign.run()
        assert warm.to_json() == cold.to_json()
        # prove the warm path and the convergence exit actually
        # engaged — otherwise this test would pass vacuously with both
        # sides running cold, or every warm run to the end
        assert any(forks)
        assert campaign.converged_exits > 0

    def test_warm_crash_attributed_to_the_suffix_system(self):
        # Regression: a fault whose crash escapes the warm run's
        # hook-free suffix leg (a *second* system object) must report
        # the crashing system's pc/instret/stats — not the paused
        # window leg's — or warm crash results diverge from cold.
        settings = dict(extension="dift", workload="bitcount",
                        scale=0.0625, faults=30, seed=7)
        cold = Campaign(CampaignConfig(**settings, warm_start=False))
        warm = Campaign(CampaignConfig(**settings))
        crashed = 0
        for index in (17, 23, 27):
            cold_result = cold.run_one(index)
            crashed += cold_result.outcome is Outcome.CRASH
            assert warm.run_one(index) == cold_result
        assert crashed  # the scenario still exercises the crash path

    def test_accelerants_do_not_change_journal_identity(self):
        # warm_start is a pure accelerant: flipping it must never
        # invalidate an existing journal or cache.
        base = sec_config().journal_identity()
        assert sec_config(warm_start=False).journal_identity() == base

    def test_golden_entry_carries_landmark_states(self, tmp_path,
                                                  monkeypatch):
        config = warm_config("bitcount", "dift",
                             cache_dir=str(tmp_path))
        first = Campaign(config)
        report = first.run()
        # the golden entry is the only cache file, and it carries the
        # landmark states warm runs fork from
        entry = GoldenCache(tmp_path).path_for(config)
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]
        cached, _ = GoldenCache(tmp_path).load(config)
        assert cached.marks == first.profile.marks
        assert all(mark.state for mark in cached.marks)
        # a second campaign loads that profile, runs no fused prefix
        # replay (every fused leg is a sprint under the full budget)
        # and still reproduces the report exactly
        calls = []
        run_bounded = FlexCoreSystem.run_bounded

        def spy(system, **kwargs):
            calls.append(kwargs)
            return run_bounded(system, **kwargs)

        monkeypatch.setattr(FlexCoreSystem, "run_bounded", spy)
        second = Campaign(config)
        assert second.golden is None  # the profile came from the cache
        assert second.run().to_json() == report.to_json()
        fused = [kw for kw in calls if kw.get("engine") == "superblock"]
        assert fused
        assert all(kw["max_instructions"] == second._instr_budget
                   for kw in fused)
        # the cached profile's digests still let runs stop early
        assert second.converged_exits > 0


class TestLandmarkForks:
    """Warm runs fork from the states the golden run keeps at its
    landmarks, at the landmark the fault model's trigger counter
    names."""

    def test_every_landmark_state_restores_to_its_digest(self):
        campaign = Campaign(warm_config("bitcount", "dift"))
        marks = campaign.profile.marks
        assert len(marks) >= 4
        for mark in marks:
            state = unpack_state(mark.state)
            assert state["cpu"]["instret"] == mark.instret
            fresh = campaign._build_system()
            fresh.restore_state(state)
            # fifo-drop rebases its index on the restored counter
            assert fresh.interface.stats.forwarded == mark.forwarded
            assert state_digest(fresh.snapshot_state()) == mark.digest

    @pytest.mark.parametrize("model, unit", [
        ("alu-result", "alu"),
        ("fifo-drop", "forwarded"),
    ])
    def test_fork_and_settle_straddle_the_trigger(self, model, unit):
        campaign = Campaign(warm_config("bitcount", "dift"))
        marks = campaign.profile.marks
        stride = marks[0].instret
        by_instret = {mark.instret: mark for mark in marks}
        fault = create_model(model)
        checked = 0
        for below, above in zip(marks, marks[1:]):
            assert above.instret - below.instret == stride
            for index in (below.count(unit) + 1, above.count(unit)):
                if index <= below.count(unit):
                    continue  # the counter stood still this stride
                spec = FaultSpec.make(model, index=index, bit=3)
                fork = campaign._warm_mark(fault, spec)
                settle = by_instret[campaign._warm_settle(fault, spec)]
                assert fork.count(unit) < index <= settle.count(unit)
                assert settle.instret - fork.instret == stride
                checked += 1
        assert checked >= len(marks)

    def test_halving_keeps_one_state_per_mark(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "MAX_PROFILE_MARKS", 3)
        campaign = Campaign(warm_config("bitcount", "dift"))
        marks = campaign.profile.marks
        assert marks[0].instret > MARK_STRIDE  # the stride doubled
        assert 3 <= len(marks) < 2 * 3
        for mark in marks:
            state = unpack_state(mark.state)
            assert state["cpu"]["instret"] == mark.instret
            assert state_digest(state) == mark.digest
        # and faults still fork from the survivors, matching cold
        cold = Campaign(warm_config("bitcount", "dift",
                                    warm_start=False))
        for index in range(4):
            assert campaign.run_one(index) == cold.run_one(index)


#: the CFGR-upset equivalence grid: three workload/monitor pairs whose
#: golden runs commit different sets of instruction classes.
CFGR_CAMPAIGNS = (("sha", "dift"), ("crc32", "sec"), ("bitcount", "bc"))


class TestCfgrUpsets:
    """``lut-config`` faults on the warm path: an upset of a class the
    golden run never commits is decided from the golden profile, any
    other forks from the last landmark before that class's first
    commit.  Both must equal the cold run, which upsets the CFGR at
    reset and runs to the end."""

    @staticmethod
    def config(workload, extension, **overrides):
        return CampaignConfig(extension=extension, workload=workload,
                              scale=0.03125, faults=1, seed=1,
                              models=("lut-config",), **overrides)

    @pytest.mark.parametrize("workload, extension", CFGR_CAMPAIGNS)
    def test_every_bit_matches_cold(self, workload, extension):
        warm = Campaign(self.config(workload, extension))
        cold = Campaign(self.config(workload, extension,
                                    warm_start=False))
        plans = []
        plan = warm._warm_plan

        def spy(*args):
            plans.append(plan(*args))
            return plans[-1]

        warm._warm_plan = spy
        paths = set()
        for bit in range(64):
            spec = FaultSpec.make("lut-config", bit=bit)
            before = len(plans)
            result = warm.classify(spec, 0, warm.run_spec(spec))
            if len(plans) == before:
                paths.add("decided")
            elif plans[-1] is not None:
                paths.add("forked")
            assert result == cold.classify(spec, 0, cold.run_spec(spec))
        assert paths == {"decided", "forked"}
        # an upset digest never matches a golden one
        assert warm.converged_exits == 0

    def test_never_committed_class_simulates_nothing(self, monkeypatch):
        campaign = Campaign(self.config("bitcount", "bc"))
        bit = 2 * int(InstrClass.RESERVED27) + 1
        spec = FaultSpec.make("lut-config", bit=bit)
        assert campaign.profile.first_commits[InstrClass.RESERVED27] is None
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an inert fault must not simulate")

        monkeypatch.setattr(FlexCoreSystem, "run_bounded", refuse)
        monkeypatch.setattr(campaign, "_build_system", refuse)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert not calls
        assert result.outcome is Outcome.MASKED
        assert result.termination == "halted"
        assert (result.instructions, result.cycles) == (
            campaign.profile.instructions, campaign.profile.cycles)

    @pytest.mark.parametrize("overrides", [
        dict(warm_start=False),
        dict(checkpoint_every=500, recover=True),
    ])
    def test_cold_referees_still_simulate(self, overrides, monkeypatch):
        campaign = Campaign(self.config("bitcount", "bc", **overrides))
        spec = FaultSpec.make("lut-config",
                              bit=2 * int(InstrClass.RESERVED27))
        calls = []
        run_bounded = FlexCoreSystem.run_bounded

        def spy(system, **kwargs):
            calls.append(kwargs)
            return run_bounded(system, **kwargs)

        monkeypatch.setattr(FlexCoreSystem, "run_bounded", spy)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert len(calls) == 1
        assert result.outcome is Outcome.MASKED

    def test_first_commits_match_a_reference_scan(self):
        campaign = Campaign(self.config("sha", "dift"))
        assert_matches_reference_scan(campaign)
        system = campaign._build_system()
        first = {}
        commits = [0]

        def scan(record):
            commits[0] += 1
            if not record.annulled:
                first.setdefault(record.instr_class, commits[0])

        system.record_hooks.append(scan)
        result = system.run_bounded(engine="reference")
        assert result.instructions == campaign.profile.instructions
        assert campaign.profile.first_commits == tuple(
            first.get(klass) for klass in InstrClass)
        # some classes never commit, and the halt is the last first
        assert any(f is None for f in campaign.profile.first_commits)
        assert max(first.values()) == result.instructions  # the halt


#: a loop that rewrites one of its own text words with that word's
#: original encoding every iteration; ``patch`` stores what it
#: computed, and the next iteration overwrites that store.
SELF_REPAIRING = """
        .text
start:  set     patch, %o5
        ld      [%o5], %o4
        set     slot, %o2
        mov     150, %o1
loop:   st      %o4, [%o5]
patch:  mov     7, %g3
        st      %g3, [%o2]
        subcc   %o1, 1, %o1
        bne     loop
        nop
        ta      0
        nop
        .data
slot:   .word 0
"""


#: delay slots the golden run annuls: the loop's ``bne,a`` annuls its
#: slot once, on the exit; ``ba,a`` always annuls its slot, a store to
#: ``spare``; and the final ``bne,a`` is never taken, so the only MUL
#: in the program never commits.
ANNULLED_SLOTS = """
        .text
start:  set     buf, %o2
        set     spare, %o3
        mov     200, %o1
loop:   subcc   %o1, 1, %o1
        st      %o1, [%o2]
        bne,a   loop
        add     %o2, 4, %o2
        ba,a    done
        st      %o1, [%o3]
done:   bne,a   done
        smul    %o1, %o1, %o4
        ta      0
        nop
        .data
buf:    .space  800
spare:  .word   0
"""


def reference_scan(campaign: Campaign):
    """The campaign's golden profile as a record hook sees it on the
    reference engine, and the number of annulled slots it saw: the
    referee for the fused engine's per-PC profile counters."""
    system = campaign._build_system()
    cpu = system.cpu
    counts = {"alu": 0, "load": 0, "store": 0, "annulled": 0}
    addresses: dict[int, None] = {}
    first = [None] * len(InstrClass)
    marks = []
    stride = MARK_STRIDE

    def hook(record):
        if record.annulled:
            counts["annulled"] += 1
            return
        klass = record.instr_class
        if first[klass] is None:
            first[klass] = cpu.instret
        if klass in ALU_CLASSES:
            counts["alu"] += 1
        if record.is_load:
            counts["load"] += 1
        if record.is_store:
            counts["store"] += 1
            if len(addresses) < campaign_module.MAX_PROFILE_ADDRESSES:
                addresses[record.addr & ~3] = None

    def landmark(_system, state):
        nonlocal stride
        instret = state["cpu"]["instret"]
        marks.append(ProfileMark(instret, counts["alu"],
                                 system.interface.stats.forwarded,
                                 *pack_state(state)))
        if len(marks) == 2 * campaign_module.MAX_PROFILE_MARKS:
            del marks[::2]
            stride *= 2
        return instret + stride

    system.record_hooks.append(hook)
    result = system.run_bounded(checkpoint_every=MARK_STRIDE,
                                on_checkpoint=landmark)
    assert result.engine == "reference"
    profile = replace(
        campaign.profile,
        instructions=result.instructions,
        cycles=result.cycles,
        alu_commits=counts["alu"],
        load_commits=counts["load"],
        store_commits=counts["store"],
        forwarded=result.interface_stats.forwarded,
        store_addresses=tuple(addresses),
        output=campaign._signature(result),
        marks=tuple(marks),
        first_commits=tuple(first),
    )
    return profile, counts["annulled"]


def assert_matches_reference_scan(campaign: Campaign) -> int:
    """Hold the campaign's golden profile, counted on the fast engine,
    field for field against :func:`reference_scan`; return the number
    of annulled slots the scan saw."""
    assert campaign.golden.engine == "fast"
    fused = campaign.profile
    reference, annulled = reference_scan(campaign)
    for field in dataclasses.fields(fused):
        assert (getattr(fused, field.name)
                == getattr(reference, field.name)), field.name
    assert fused.marks and fused.store_addresses
    return annulled


class TestGoldenProfileReferee:
    """The golden run profiles on the fast engine, with counters its
    handlers carry; a record-hook scan on the reference engine must
    see the same profile, landmark states included."""

    @pytest.mark.parametrize("workload, extension",
                             CFGR_CAMPAIGNS[1:])
    def test_workload_profile_matches(self, workload, extension):
        campaign = Campaign(TestCfgrUpsets.config(workload, extension))
        assert_matches_reference_scan(campaign)

    def test_text_stores_rewrap_rebuilt_handlers(self):
        # Each iteration's store into text drops the handler of
        # ``patch``; its rebuilt handler must count as the first did.
        campaign = Campaign(CampaignConfig(
            extension="sec", source=SELF_REPAIRING, faults=1))
        assert_matches_reference_scan(campaign)
        profile = campaign.profile
        assert campaign.program.symbol("patch") in profile.store_addresses

    def test_annulled_slots_count_nowhere(self):
        campaign = Campaign(CampaignConfig(
            extension="dift", source=ANNULLED_SLOTS, faults=1))
        assert assert_matches_reference_scan(campaign) == 3
        profile = campaign.profile
        assert profile.first_commits[InstrClass.MUL] is None
        assert (campaign.program.symbol("spare")
                not in profile.store_addresses)
        assert profile.store_commits == 200

    def test_store_address_cap_keeps_first_seen(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "MAX_PROFILE_ADDRESSES", 5)
        campaign = Campaign(TestCfgrUpsets.config("crc32", "sec"))
        assert_matches_reference_scan(campaign)
        assert len(campaign.profile.store_addresses) == 5

    def test_marks_survive_halving(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "MAX_PROFILE_MARKS", 3)
        campaign = Campaign(TestCfgrUpsets.config("bitcount", "bc"))
        assert_matches_reference_scan(campaign)
        assert campaign.profile.marks[0].instret > MARK_STRIDE

    def test_reference_fallback_refuses_to_profile(self, monkeypatch):
        monkeypatch.setattr(FlexCoreSystem, "_fast_loop_supported",
                            lambda system: False)
        with pytest.raises(CampaignError, match="reference engine"):
            Campaign(TestCfgrUpsets.config("bitcount", "bc"))

    def test_profile_pickles(self):
        # pool workers may receive the parent's profile pickled
        campaign = Campaign(TestCfgrUpsets.config("bitcount", "bc"))
        clone = pickle.loads(pickle.dumps(campaign.profile))
        assert clone == campaign.profile
        assert all(type(mark) is ProfileMark for mark in clone.marks)


class TestConvergenceExit:
    """A warm run stops where its state digest equals the golden run's
    at a landmark, and reports the golden outcome.  Each test compares
    against the cold (``warm_start=False``) result, which never
    stops early."""

    SETTINGS = dict(extension="dift", workload="bitcount", scale=0.0625,
                    faults=30, seed=7)

    def pair(self, **settings):
        settings = {**self.SETTINGS, **settings}
        return (Campaign(CampaignConfig(**settings)),
                Campaign(CampaignConfig(**settings, warm_start=False)))

    @pytest.mark.parametrize("index, model", [
        (4, "register"),  # "commits"-indexed
        (10, "alu-result"),  # "alu"-indexed
        (0, "fifo-drop"),  # "forwarded"-indexed
    ])
    def test_each_trigger_kind_matches_cold(self, index, model):
        warm, cold = self.pair()
        assert warm.plan(index)[0].name == model
        result = warm.run_one(index)
        assert warm.converged_exits == 1
        assert result == cold.run_one(index)
        assert result.outcome is Outcome.MASKED

    @pytest.mark.parametrize("corrupt", ["exit-landmark", "every"])
    def test_corrupt_digests_run_to_the_end(self, corrupt, monkeypatch):
        warm, cold = self.pair()
        index = 4
        exits = []
        rejoined = warm._rejoined

        def spy(system):
            exits.append(system.cpu.instret)
            return rejoined(system)

        monkeypatch.setattr(warm, "_rejoined", spy)
        exited = warm.run_one(index)
        [landmark] = exits
        profile = warm.profile
        warm.profile = replace(profile, marks=tuple(
            ProfileMark(*mark[:3], state_digest(None), mark.state)
            if corrupt == "every" or mark.instret == landmark else mark
            for mark in profile.marks
        ))
        again = warm.run_one(index)
        # the corrupted landmark no longer matches: the run goes on,
        # to a later landmark or to the end, with the same result
        assert landmark not in exits[1:]
        if corrupt == "every":
            assert len(exits) == 1
        assert again == exited == cold.run_one(index)

    def test_state_digest_survives_restore(self):
        # snapshot -> restore into a fresh system -> snapshot digests
        # the same, straight or through the codec (disk-cached prefix
        # snapshots come back with lists for tuples), and a hook-free
        # fast run reaches the golden digest at each landmark checked.
        campaign = Campaign(warm_config("bitcount", "dift"))
        golden = {mark.instret: mark.digest
                  for mark in campaign.profile.marks}
        states = {}

        def keep(_system, state):
            states[state["cpu"]["instret"]] = state

        campaign._build_system().run_bounded(
            checkpoint_every=MARK_STRIDE, on_checkpoint=keep,
        )
        landmarks = sorted(golden)[::6]
        assert len(landmarks) >= 4
        for instret in landmarks:
            state = states[instret]
            assert state_digest(state) == golden[instret]
            for source in (state, decode_obj(encode_obj(state))):
                fresh = campaign._build_system()
                fresh.restore_state(source)
                assert state_digest(fresh.snapshot_state()) == \
                    golden[instret]

    def test_text_upset_rejoins_after_the_program_repairs_it(self):
        # A memory upset on a text word, struck right after the loop
        # rewrote it: the sprint leg executes the flipped word from
        # its restored memory, the next rewrite must invalidate the
        # handler built from it, and the run then rejoins the golden
        # run.  A stale handler would store 5 instead of 7 forever.
        warm, cold = self.pair(extension="sec", workload=None,
                               source=SELF_REPAIRING, scale=0.125)
        program = warm.program
        loop, patch = program.symbol("loop"), program.symbol("patch")
        commits = []
        system = warm._build_system()
        system.record_hooks.append(lambda record: commits.append(record.pc))
        system.run()
        index = next(n for n, pc in enumerate(commits, 1)
                     if pc == loop and n > MARK_STRIDE + 32)
        spec = FaultSpec.make("memory", index=index, addr=patch, bit=1)
        result = warm.classify(spec, 0, warm.run_spec(spec))
        assert warm.converged_exits == 1
        assert result == cold.classify(spec, 0, cold.run_spec(spec))
        assert result.outcome is Outcome.MASKED


@pytest.mark.slow
class TestWarmChaosKill:
    """kill -9 a journaled warm-start campaign mid-run, resume it with
    the same cache dir, and demand the final report be bit-identical
    to a *cold* (``--no-warm-start``) reference — the resumed leg
    forks from the landmark states in the golden-cache entry the
    killed process already wrote."""

    def test_sigkill_then_resume_forks_from_golden_entry(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        cache_dir = tmp_path / "cache"
        ref_json = tmp_path / "ref.json"
        resumed_json = tmp_path / "resumed.json"
        base = [
            sys.executable, "-m", "repro", "inject",
            "--extension", "dift", "--workload", "bitcount",
            "--scale", "0.0625", "--faults", "30", "--seed", "7",
        ]
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")

        # cold, uninterrupted reference: no snapshots anywhere
        subprocess.run(
            base + ["--no-warm-start", "--json", str(ref_json)],
            env=env, check=True, capture_output=True, timeout=300,
        )

        victim = subprocess.Popen(
            base + ["--journal", str(journal),
                    "--cache-dir", str(cache_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        entry = GoldenCache(cache_dir).path_for(CampaignConfig(
            extension="dift", workload="bitcount", scale=0.0625,
        ))

        # kill only once the campaign is both journaled (≥3 durable
        # results) and warm (its golden entry, landmark states
        # included, persisted): the state the resumed leg must pick up
        deadline = time.monotonic() + 120
        killed = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it — still fine
            if (journal.exists()
                    and journal.read_text().count('"result"') >= 3
                    and entry.exists()):
                victim.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.05)
        victim.wait(timeout=60)
        assert killed or victim.returncode == 0

        # the killed process already persisted the golden entry whose
        # landmark states the resumed leg will fork from
        assert entry.exists()

        resumed = subprocess.run(
            base + ["--journal", str(journal), "--resume",
                    "--cache-dir", str(cache_dir),
                    "--json", str(resumed_json)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        assert resumed_json.read_bytes() == ref_json.read_bytes()
        # a golden-cache miss would print its diagnostic here
        assert b"golden cache" not in resumed.stderr


@pytest.mark.slow
class TestChaosKill:
    """The CI chaos scenario in miniature: SIGKILL a journaled
    campaign mid-run, resume it, and demand the final report be
    bit-identical to an uninterrupted reference."""

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        source = tmp_path / "prog.s"
        source.write_text(SOURCE)
        journal = tmp_path / "campaign.jsonl"
        ref_json = tmp_path / "ref.json"
        resumed_json = tmp_path / "resumed.json"
        base = [
            sys.executable, "-m", "repro", "inject",
            "--extension", "sec", "--source", str(source),
            "--faults", "40", "--seed", "7",
        ]
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")

        # uninterrupted reference
        subprocess.run(
            base + ["--json", str(ref_json)],
            env=env, check=True, capture_output=True, timeout=300,
        )

        # SIGKILL once a few results are durably journaled
        victim = subprocess.Popen(
            base + ["--journal", str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        killed = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it — still fine
            if (journal.exists()
                    and journal.read_text().count('"result"') >= 3):
                victim.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.05)
        victim.wait(timeout=60)
        assert killed or victim.returncode == 0

        completed = subprocess.run(
            base + ["--journal", str(journal), "--resume",
                    "--json", str(resumed_json)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        assert resumed_json.read_bytes() == ref_json.read_bytes()
        assert b"detection coverage" in completed.stdout
