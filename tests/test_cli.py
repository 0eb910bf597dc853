"""The `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main

PROGRAM = """
        .text
start:  mov     5, %o0
        set     result, %o1
        st      %o0, [%o1]
        ta      0
        nop
        .data
result: .word   0
"""

TRAPPING = """
        .text
start:  set     0x90000, %g1
        ld      [%g1], %o0
        ta      0
        nop
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_baseline_run(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "halted       : True" in out

    def test_with_extension(self, source_file, capsys):
        assert main(["run", source_file, "--extension", "umc"]) == 0
        out = capsys.readouterr().out
        assert "forwarded" in out

    def test_trap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text(TRAPPING)
        assert main(["run", str(path), "--extension", "umc"]) == 2
        assert "TRAP" in capsys.readouterr().out

    def test_ratio_and_fifo_flags(self, source_file, capsys):
        assert main(["run", source_file, "--extension", "sec",
                     "--ratio", "0.25", "--fifo", "16"]) == 0

    def test_unknown_workload_exits_2_with_known_names(self, capsys):
        assert main(["run", "--workload", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nosuch'" in err
        for name in ("sha", "bitcount", "basicmath"):
            assert name in err

    def test_engine_flag_digest_identical(self, source_file, capsys):
        digests = []
        # "superblock" is an accepted alias of the fast engine.
        for engine in ("reference", "fast", "superblock"):
            assert main(["run", source_file, "--extension", "dift",
                         "--digest", "--engine", engine]) == 0
            out = capsys.readouterr().out
            digests.append([line for line in out.splitlines()
                            if line.startswith("digest")])
        assert digests[0] and digests[0] == digests[1] == digests[2]


class TestDisasm:
    def test_listing(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "ta 0" in out
        assert "00001000" in out


class TestReports:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "paper" in out

    def test_table3_no_compare(self, capsys):
        assert main(["table3", "--no-compare"]) == 0
        assert "paper" not in capsys.readouterr().out

    def test_synth(self, capsys):
        assert main(["synth", "dift"]) == 0
        out = capsys.readouterr().out
        assert "LUTs" in out and "ASIC" in out

    def test_synth_extra_extension(self, capsys):
        assert main(["synth", "shadowstack"]) == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


CRASHING = """
        .text
start:  set     0x1001, %o0
        ld      [%o0], %o1
        ta      0
        nop
"""

RUNAWAY = """
        .text
start:  ba      start
        nop
"""


class TestRunErrorPath:
    def test_simulation_error_is_one_line_diagnosis(self, tmp_path,
                                                    capsys):
        path = tmp_path / "crash.s"
        path.write_text(CRASHING)
        assert main(["run", str(path)]) == 3
        captured = capsys.readouterr()
        assert "simulation error:" in captured.err
        assert "misaligned" in captured.err
        assert "pc=" in captured.err and "instr=" in captured.err
        assert "Traceback" not in captured.err

    def test_instruction_limit_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "spin.s"
        path.write_text(RUNAWAY)
        assert main(["run", str(path), "--max-instructions", "100"]) == 3
        assert "limit" in capsys.readouterr().err


class TestInject:
    def test_campaign_report(self, source_file, capsys):
        assert main(["inject", "--extension", "umc",
                     "--source", source_file,
                     "--faults", "6", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault-injection campaign" in out
        assert "detection coverage" in out
        assert "total             6" in out

    def test_repeat_is_bit_identical(self, source_file, capsys):
        args = ["inject", "--extension", "umc", "--source", source_file,
                "--faults", "5", "--seed", "9", "--details"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_json_report(self, source_file, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        assert main(["inject", "--extension", "umc",
                     "--source", source_file,
                     "--faults", "4", "--json", str(json_path)]) == 0
        import json
        doc = json.loads(json_path.read_text())
        assert sum(doc["counts"].values()) == 4

    def test_workload_and_source_exclusive(self, source_file):
        with pytest.raises(SystemExit):
            main(["inject", "--extension", "sec",
                  "--workload", "crc32", "--source", source_file])

    def test_bad_model_reports_campaign_error(self, source_file,
                                              capsys):
        assert main(["inject", "--extension", "sec",
                     "--source", source_file,
                     "--models", "meta", "--faults", "2"]) == 1
        assert "campaign error" in capsys.readouterr().err


class TestRunTelemetryFlags:
    def test_stats_summary(self, source_file, capsys):
        assert main(["run", source_file, "--extension", "sec",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "cache hit rates" in out
        assert "high-water mark" in out

    def test_metrics_dump(self, source_file, capsys):
        assert main(["run", source_file, "--extension", "umc",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "core.instructions" in out
        assert "iface.forwarded" in out

    def test_digest_stable_and_telemetry_invariant(self, source_file,
                                                   capsys):
        assert main(["run", source_file, "--digest"]) == 0
        bare = capsys.readouterr().out
        assert main(["run", source_file, "--digest", "--metrics",
                     "--stats"]) == 0
        metered = capsys.readouterr().out
        digest = [line for line in bare.splitlines()
                  if line.startswith("digest")]
        assert digest and digest[0].split(":")[1].strip()
        assert digest[0] in metered

    def test_run_workload_digest_matches_trace(self, tmp_path, capsys):
        assert main(["run", "--workload", "crc32",
                     "--extension", "sec", "--ratio", "0.25",
                     "--digest"]) == 0
        golden = capsys.readouterr().out
        assert main(["trace", "--workload", "crc32",
                     "--extension", "sec", "--ratio", "0.25",
                     "--perfetto", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        digest = [line for line in golden.splitlines()
                  if line.startswith("digest")]
        assert digest and digest[0] in traced

    def test_run_needs_exactly_one_target(self, source_file, capsys):
        assert main(["run"]) == 1
        assert main(["run", source_file,
                     "--workload", "crc32"]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestTrace:
    def test_trace_source_exports_perfetto_and_jsonl(self, source_file,
                                                     tmp_path, capsys):
        import json
        perfetto = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", source_file, "--extension", "umc",
                     "--perfetto", str(perfetto),
                     "--jsonl", str(jsonl), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "trace        :" in out and "digest       :" in out
        doc = json.loads(perfetto.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert jsonl.read_text().strip()

    def test_trace_workload(self, tmp_path, capsys):
        import json
        perfetto = tmp_path / "crc32.json"
        assert main(["trace", "--workload", "crc32",
                     "--extension", "sec", "--ratio", "0.25",
                     "--fifo", "16",
                     "--perfetto", str(perfetto)]) == 0
        doc = json.loads(perfetto.read_text())
        stalls = [e for e in doc["traceEvents"]
                  if e.get("name") == "stall.fifo_full"]
        assert stalls  # a 16-deep FIFO at 0.25x must stall

    def test_trace_needs_exactly_one_target(self, source_file, capsys):
        assert main(["trace"]) == 1
        assert main(["trace", source_file, "--workload", "crc32"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_trace_small_buffer_reports_overwrites(self, tmp_path,
                                                   capsys):
        assert main(["trace", "--workload", "crc32",
                     "--extension", "umc", "--buffer", "64"]) == 0
        assert "overwritten" in capsys.readouterr().out


class TestInjectMetrics:
    def test_metrics_table_and_phase_profile(self, source_file,
                                             capsys):
        assert main(["inject", "--extension", "umc",
                     "--source", source_file,
                     "--faults", "4", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "mean cycles" in captured.out
        assert "simulated:" in captured.out
        assert "faulted-runs" in captured.err


REDZONE_SPEC = "examples/redzone.mdl"


@pytest.fixture(autouse=True)
def _clean_mdl_registrations():
    """CLI --mdl registrations are process-global; keep tests isolated."""
    yield
    from repro.extensions import unregister_extension
    for name in ("redzone", "umc", "bc"):
        unregister_extension(name)


class TestUnknownExtension:
    """Unknown --extension names exit 2 with the known-name list, not
    a raw traceback (and the list includes --mdl registrations)."""

    def test_run_unknown_extension(self, source_file, capsys):
        assert main(["run", source_file,
                     "--extension", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown extension 'nosuch'" in err
        assert "known:" in err and "umc" in err

    def test_trace_unknown_extension(self, source_file, capsys):
        assert main(["trace", source_file,
                     "--extension", "nosuch"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_inject_unknown_extension(self, source_file, capsys):
        assert main(["inject", "--extension", "nosuch",
                     "--source", source_file, "--faults", "2"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_synth_unknown_extension(self, capsys):
        assert main(["synth", "nosuch"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_known_list_includes_mdl_monitors(self, source_file,
                                              capsys):
        assert main(["run", source_file, "--mdl", REDZONE_SPEC,
                     "--extension", "nosuch"]) == 2
        assert "redzone" in capsys.readouterr().err


class TestMdlOption:
    def test_run_with_mdl_monitor(self, source_file, capsys):
        assert main(["run", source_file, "--mdl", REDZONE_SPEC,
                     "--extension", "redzone"]) == 0
        assert "halted       : True" in capsys.readouterr().out

    def test_missing_spec_file_exits_2(self, source_file, capsys):
        assert main(["run", source_file,
                     "--mdl", "nosuch.mdl"]) == 2
        assert "mdl error" in capsys.readouterr().err

    def test_bad_spec_renders_diagnostics(self, source_file, tmp_path,
                                          capsys):
        bad = tmp_path / "bad.mdl"
        bad.write_text('monitor b "d"\n'
                       'meta { memory_tag_bits = 1 }\n'
                       'on load {\n'
                       '    mem[addrr] = 1\n'
                       '}\n')
        assert main(["run", source_file, "--mdl", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.mdl:4" in err and "addrr" in err

    def test_synth_with_mdl_monitor(self, capsys):
        assert main(["synth", "redzone",
                     "--mdl", REDZONE_SPEC]) == 0
        out = capsys.readouterr().out
        assert "redzone:" in out and "LUTs" in out

    def test_inject_with_mdl_monitor(self, source_file, capsys):
        assert main(["inject", "--extension", "redzone",
                     "--mdl", REDZONE_SPEC,
                     "--source", source_file, "--faults", "3"]) == 0
        assert "outcome" in capsys.readouterr().out


class TestCompile:
    def test_compile_shipped_spec_by_name(self, capsys):
        assert main(["compile", "umc"]) == 0
        out = capsys.readouterr().out
        assert "umc: uninitialized memory read checking" in out
        assert "LUTs" in out and "pipeline stages" in out

    def test_compile_spec_file(self, capsys):
        assert main(["compile", REDZONE_SPEC]) == 0
        out = capsys.readouterr().out
        assert "redzone:" in out
        assert "forward : FLEX, STORE_BYTE" in out

    def test_compile_table3(self, capsys):
        assert main(["compile", REDZONE_SPEC, "--table3"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out
        assert "redzone (fab)" in out

    def test_compile_run_workload(self, capsys):
        assert main(["compile", "umc", "--run", "bitcount",
                     "--scale", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "run bitcount:" in out
        assert "digest" in out

    def test_compile_unknown_spec_lists_shipped(self, capsys):
        assert main(["compile", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "shipped: bc, umc" in err

    def test_compile_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mdl"
        bad.write_text('monitor b "d"\non load {')
        assert main(["compile", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_unknown_workload_exits_2(self, capsys):
        assert main(["compile", "umc", "--run", "nosuch"]) == 2
        assert "compile error" in capsys.readouterr().err
