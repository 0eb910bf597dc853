"""Fault-injection campaign subsystem: models, watchdog, outcome
classification, determinism, parallel fan-out, crash safety."""

import json
import os
import pickle

import pytest

from repro.core.executor import SimulationError
from repro.faultinject import (
    Campaign,
    CampaignConfig,
    CampaignError,
    FaultModel,
    FaultSpec,
    MODEL_CLASSES,
    Outcome,
    create_model,
)
from repro.flexcore import (
    FlexCoreSystem,
    InterfaceConfig,
    SystemConfig,
    Termination,
)
from repro.isa.assembler import assemble

#: 8-iteration store/load loop ending in a checksum store; small
#: enough that every campaign test runs in milliseconds.
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


def umc_campaign(**overrides) -> Campaign:
    settings = dict(extension="umc", source=SOURCE, faults=12, seed=7)
    settings.update(overrides)
    return Campaign(CampaignConfig(**settings))


class TestConfigValidation:
    def test_unknown_extension(self):
        with pytest.raises(ValueError, match="unknown extension"):
            CampaignConfig(extension="nope", source=SOURCE)

    def test_workload_xor_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            CampaignConfig(extension="sec")
        with pytest.raises(ValueError, match="exactly one"):
            CampaignConfig(extension="sec", workload="crc32",
                           source=SOURCE)

    def test_positive_faults_and_jobs(self):
        with pytest.raises(ValueError, match="faults"):
            CampaignConfig(extension="sec", source=SOURCE, faults=0)
        with pytest.raises(ValueError, match="jobs"):
            CampaignConfig(extension="sec", source=SOURCE, jobs=0)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            CampaignConfig(extension="sec", source=SOURCE,
                           models=("cosmic-ray",))

    def test_system_config_validation(self):
        with pytest.raises(ValueError, match="nwindows"):
            SystemConfig(nwindows=1)
        with pytest.raises(ValueError, match="stack_top"):
            SystemConfig(stack_top=0x1002)
        with pytest.raises(ValueError, match="max_instructions"):
            SystemConfig(max_instructions=0)

    def test_interface_config_validation(self):
        with pytest.raises(ValueError, match="clock ratio"):
            InterfaceConfig(clock_ratio=0)
        with pytest.raises(ValueError, match="clock ratio"):
            InterfaceConfig(clock_ratio=1.5)
        with pytest.raises(ValueError, match="FIFO depth"):
            InterfaceConfig(fifo_depth=0)


class TestGoldenRun:
    def test_profile_counts(self):
        campaign = umc_campaign()
        profile = campaign.profile
        assert profile.instructions > 0
        assert profile.store_commits == 9  # 8 loop stores + checksum
        assert profile.load_commits == 8
        assert profile.forwarded > 0
        assert profile.store_addresses  # stores were profiled
        assert profile.has_memory_tags and not profile.has_shadow_tags

    def test_golden_must_halt(self):
        hang = """
        .text
start:  ba      start
        nop
"""
        with pytest.raises(CampaignError, match="golden run"):
            Campaign(CampaignConfig(
                extension="umc", source=hang, faults=1,
                max_instructions=1000,
            ))

    def test_inapplicable_model_rejected(self):
        # SEC keeps no meta-data, so the meta model has no fault space.
        with pytest.raises(CampaignError, match="meta"):
            Campaign(CampaignConfig(
                extension="sec", source=SOURCE, faults=1,
                models=("meta",),
            ))


class TestOutcomeClassification:
    """Targeted specs driving each outcome class deterministically."""

    def test_corrupted_load_detected_by_umc(self):
        # Flip a high address bit of the first load's trace packet:
        # UMC checks the tag of an address nobody initialised.
        campaign = umc_campaign()
        spec = FaultSpec.make("packet", index=5, field="addr", bit=20)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert result.outcome == Outcome.DETECTED
        assert "uninitialized" in result.trap

    def test_misaligned_pointer_is_crash(self):
        # Flip bit 0 of the buffer pointer: the next store faults.
        campaign = umc_campaign()
        spec = FaultSpec.make("register", index=3, reg=10, bit=0)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert result.outcome == Outcome.CRASH
        assert result.termination == "error"
        assert "misaligned" in result.detail
        assert "pc=" in result.detail  # structured triage context

    def test_corrupted_checksum_is_sdc(self):
        # Flip the register holding the final checksum value just
        # before it is stored: clean halt, wrong output.
        campaign = umc_campaign()
        index = campaign.profile.instructions - 2  # before final st
        spec = FaultSpec.make("register", index=index, reg=11, bit=4)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert result.outcome == Outcome.SDC

    def test_dead_register_flip_is_masked(self):
        campaign = umc_campaign()
        spec = FaultSpec.make("register", index=2, reg=13, bit=7)
        result = campaign.classify(spec, 0, campaign.run_spec(spec))
        assert result.outcome == Outcome.MASKED

    def test_infinite_loop_is_hang(self):
        """The watchdog converts a wedged program into a HANG result
        instead of stalling the campaign."""

        class InfiniteLoop(FaultModel):
            name = "infinite-loop"

            def plan(self, rng, profile):
                return FaultSpec.make(self.name, index=5)

            def arm(self, system, spec):
                def wedge(record):
                    # overwrite the next instruction with `ba .`
                    system.memory.write_word(record.pc + 8, 0x10800000)

                self.at_commit(system, spec.get("index"), wedge)

        campaign = umc_campaign()
        spec = FaultSpec.make("infinite-loop", index=5)
        result = campaign.classify(
            spec, 0, campaign.run_spec(spec, InfiniteLoop())
        )
        assert result.outcome == Outcome.HANG
        assert "watchdog" in result.detail

    def test_simulator_exception_becomes_crash(self):
        """Crash safety: a fault that breaks the *simulator* (not just
        the simulated program) still degrades into a CRASH result."""

        class Saboteur(FaultModel):
            name = "saboteur"

            def plan(self, rng, profile):
                return FaultSpec.make(self.name)

            def arm(self, system, spec):
                def boom(packet):
                    raise RuntimeError("fabric model wedged")

                system.extension.process = boom

        campaign = umc_campaign()
        spec = FaultSpec.make("saboteur")
        result = campaign.classify(
            spec, 0, campaign.run_spec(spec, Saboteur())
        )
        assert result.outcome == Outcome.CRASH
        assert "fabric model wedged" in result.detail


class TestCampaignRuns:
    def test_counts_sum_and_every_model_plans(self):
        campaign = umc_campaign(faults=16)
        report = campaign.run()
        assert report.total == 16
        assert sum(report.counts().values()) == 16
        assert sum(
            sum(row.values()) for row in report.by_model().values()
        ) == 16

    def test_same_seed_is_bit_identical(self):
        first = umc_campaign().run()
        second = umc_campaign().run()
        assert first.to_json() == second.to_json()
        assert first.format(details=True) == second.format(details=True)

    def test_different_seed_differs(self):
        first = umc_campaign().run()
        second = umc_campaign(seed=8).run()
        assert first.to_json() != second.to_json()

    def test_parallel_matches_serial(self):
        serial = umc_campaign(faults=6).run()
        parallel = umc_campaign(faults=6, jobs=2).run()
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("fallback", ["auto", "force"])
    def test_parallel_runs_the_golden_run_once(self, fallback, tmp_path,
                                               monkeypatch):
        # Pool workers, and the in-process serial fallback, build their
        # campaign from the parent's golden profile.  Each golden run
        # appends its pid to a file, so forked workers' runs count too.
        log = tmp_path / "golden-runs"
        golden_run = Campaign._golden_run

        def logged(campaign):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return golden_run(campaign)

        monkeypatch.setattr(Campaign, "_golden_run", logged)
        serial = umc_campaign(faults=6).run()
        log.unlink()
        parallel = umc_campaign(faults=6, jobs=2,
                                serial_fallback=fallback).run()
        assert log.read_text().split() == [str(os.getpid())]
        assert serial.to_json() == parallel.to_json()

    def test_json_round_trips(self):
        report = umc_campaign(faults=4).run()
        doc = json.loads(report.to_json())
        assert doc["campaign"]["extension"] == "umc"
        assert sum(doc["counts"].values()) == 4
        assert len(doc["results"]) == 4

    def test_plan_is_deterministic_per_index(self):
        campaign = umc_campaign()
        for index in range(5):
            model_a, spec_a = campaign.plan(index)
            model_b, spec_b = campaign.plan(index)
            assert spec_a == spec_b
            assert model_a.name == model_b.name

    def test_every_builtin_model_arms(self):
        """Each applicable built-in model plans and survives a run."""
        campaign = umc_campaign()
        for model in campaign.models:
            spec = model.plan(campaign.rng_for(99), campaign.profile)
            result = campaign.classify(
                spec, 0, campaign.run_spec(spec, model)
            )
            assert result.outcome in Outcome

    def test_model_registry(self):
        assert set(MODEL_CLASSES) >= {
            "register", "memory", "meta", "packet", "alu-result",
            "fifo-drop", "lut-config",
        }
        with pytest.raises(ValueError, match="unknown fault model"):
            create_model("nope")


class TestBoundedRun:
    def build(self, source=SOURCE):
        from repro import create_extension

        return FlexCoreSystem(
            assemble(source, entry="start"), create_extension("umc")
        )

    def test_clean_halt(self):
        result = self.build().run_bounded()
        assert result.termination == Termination.HALTED
        assert result.error is None

    def test_instruction_limit_does_not_raise(self):
        result = self.build().run_bounded(max_instructions=5)
        assert result.termination == Termination.INSTRUCTION_LIMIT
        assert result.error is not None
        assert not result.halted

    def test_cycle_limit(self):
        result = self.build().run_bounded(max_cycles=10)
        assert result.termination == Termination.CYCLE_LIMIT

    def test_run_still_raises_on_limit(self):
        with pytest.raises(SimulationError, match="limit"):
            self.build().run(max_instructions=5)

    def test_crash_is_captured_with_context(self):
        bad = """
        .text
start:  set     0x1001, %o0
        ld      [%o0], %o1
        ta      0
        nop
"""
        result = self.build(bad).run_bounded()
        assert result.termination == Termination.ERROR
        error = result.error
        assert error.pc is not None
        assert error.instret is not None
        assert error.cycle is not None
        assert "ld" in error.instruction
        assert "misaligned" in str(error)

    def test_trap_termination(self):
        bad = """
        .text
start:  set     0x90000, %g1
        ld      [%g1], %o0
        ta      0
        nop
"""
        result = self.build(bad).run_bounded()
        assert result.termination == Termination.TRAP
        assert result.trap is not None


class TestSimulationErrorContext:
    def test_diagnosis_line(self):
        err = SimulationError(
            "boom", pc=0x1000, instruction="ld [%o0], %o1",
            instret=42, cycle=99,
        )
        line = err.diagnosis()
        assert "boom" in line and "pc=0x1000" in line
        assert "instret=42" in line and "cycle=99" in line
        assert "\n" not in line

    def test_pickle_preserves_context(self):
        err = SimulationError("boom", pc=0x1000, instruction="nop",
                              instret=1, cycle=2)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.pc == 0x1000
        assert clone.instruction == "nop"
        assert clone.instret == 1 and clone.cycle == 2


class TestMdlMonitors:
    """Compiled MDL monitors ride inside the config as (filename,
    source) pairs so every worker process can rebuild them."""

    REDZONE = open("examples/redzone.mdl").read()

    def _config(self, **overrides):
        from repro.extensions import unregister_extension
        unregister_extension("redzone")  # the campaign needs no registry
        defaults = dict(
            extension="redzone",
            source=SOURCE,
            faults=3,
            seed=7,
            mdl=(("redzone.mdl", self.REDZONE),),
        )
        defaults.update(overrides)
        return CampaignConfig(**defaults)

    def test_config_accepts_mdl_extension(self):
        assert self._config().extension == "redzone"

    def test_unknown_extension_message_lists_mdl_names(self):
        with pytest.raises(ValueError, match="redzone"):
            self._config(extension="nosuch")

    def test_bad_spec_is_a_value_error(self):
        with pytest.raises(ValueError, match="bad.mdl"):
            self._config(
                mdl=(("bad.mdl", 'monitor x "d"\non load {'),)
            )

    def test_journal_identity_keys_on_specs(self):
        with_mdl = self._config().journal_identity()
        assert with_mdl["mdl"] == [["redzone.mdl", self.REDZONE]]
        without = CampaignConfig(
            extension="umc", source=SOURCE, faults=3,
        ).journal_identity()
        assert "mdl" not in without

    def test_campaign_runs_serial(self):
        report = Campaign(self._config()).run()
        assert len(report.results) == 3

    def test_campaign_runs_parallel_and_matches_serial(self):
        # Three faults start a pool, and each worker builds the
        # monitor from the config alone.
        serial = Campaign(self._config()).run()
        parallel = Campaign(self._config(jobs=2)).run()
        assert ([r.as_dict() for r in serial.results]
                == [r.as_dict() for r in parallel.results])

    def test_config_pickles_with_specs(self):
        config = self._config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone.mdl == config.mdl
        # Rebuilding the campaign from the clone rebuilds the monitor.
        report = Campaign(clone).run()
        assert len(report.results) == 3

    def test_campaign_registers_nothing(self):
        # An ``inject`` job in a long-lived process (the job service)
        # must not turn later runs' built-in ``bc`` into its MDL one.
        from repro.extensions import (
            ArrayBoundCheck,
            create_extension,
            extension_names,
        )
        from repro.mdl import SHIPPED_SPEC_DIR, CompiledMonitor
        source = (SHIPPED_SPEC_DIR / "bc.mdl").read_text()
        spec = ("bc.mdl", source.replace("cycles 2", "cycles 6"))
        campaign = Campaign(self._config(extension="bc", mdl=(spec,)))
        assert isinstance(campaign._build_system().extension,
                          CompiledMonitor)
        assert isinstance(create_extension("bc"), ArrayBoundCheck)
        Campaign(self._config())
        assert "redzone" not in extension_names()
