"""The repro-experiments command-line interface."""

import pytest

from repro.harness.cli import main


class TestCli:
    def test_t3_prints_characteristics(self, capsys):
        assert main(["t3"]) == 0
        out = capsys.readouterr().out
        assert "T3" in out
        assert "blackscholes" in out and "raytrace" in out
        assert "OpenMP" in out and "GLIB" in out

    def test_t2_prints_sensitivity(self, capsys):
        assert main(["t2"]) == 0
        out = capsys.readouterr().out
        assert "spin(3)" in out and "spin(8)" in out
        assert "False alarms" in out

    def test_t1_prints_suite_scores(self, capsys):
        assert main(["t1"]) == 0
        out = capsys.readouterr().out
        assert "Helgrind+ lib" in out and "DRD" in out
        assert "Correct" in out

    def test_k_flag_changes_tools(self, capsys):
        assert main(["--k", "3", "t1"]) == 0
        out = capsys.readouterr().out
        assert "spin(3)" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    @pytest.mark.parametrize("spec", ["adversarial:burst=1", "random:penalty=-3"])
    def test_out_of_range_scheduler_rejected_at_parse_time(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scheduler", spec, "sweep"])
        assert exc.value.code == 2
        assert "out of range" in capsys.readouterr().err

    def test_t4_with_one_seed(self, capsys):
        assert main(["--seeds", "1", "t4"]) == 0
        out = capsys.readouterr().out
        assert "T4a" in out and "T4b" in out
        assert "freqmine" in out and "dedup" in out

    def test_f1_memory_figure(self, capsys):
        assert main(["--repeats", "1", "f1"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "mean memory overhead" in out

    def test_cases_inventory(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "120-case suite" in out
        assert "racy_counter_t2" in out
        assert "29 racy / 91 race-free" in out

    def test_chaos_suite_passes(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "Chaos suite" in out and "0 failing" in out
        assert "drop-flag-store" in out and "livelock" in out
        assert "Faults" in out  # run-log column

    def test_chaos_forwards_retries(self, capsys, monkeypatch):
        import repro.harness.chaos as chaos

        seen = []
        real = chaos.run_sweep

        def recording(specs, **kwargs):
            seen.append(kwargs)
            return real(specs, **kwargs)

        monkeypatch.setattr(chaos, "run_sweep", recording)
        assert main(["chaos", "--retries", "3"]) == 0
        assert [kw["retries"] for kw in seen] == [3]

    def test_chaos_resume_needs_a_cache(self, tmp_path, capsys):
        journal = ["chaos", "--journal-dir", str(tmp_path / "journal")]
        assert main([*journal, "--resume"]) == 2
        assert "cache" in capsys.readouterr().err

    def test_oracle_sweep(self, capsys):
        assert main(["--seeds", "2", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "schedule-stable" in out
        assert "manifest" in out  # the plain races show up


class TestDurabilityCli:
    SWEEP = [
        "--limit", "1", "--seeds", "1", "--tools", "helgrind-lib", "sweep"
    ]

    def test_sweep_journal_then_resume(self, tmp_path, capsys):
        jdir = str(tmp_path / "journal")
        assert main([*self.SWEEP, "--journal-dir", jdir]) == 0
        capsys.readouterr()
        assert main([*self.SWEEP, "--journal-dir", jdir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 run(s) served from the checkpoint journal" in out

    def test_grand_journal_then_resume(self, tmp_path, capsys):
        from repro.harness.grand import grand_specs

        grand = [
            "--limit", "1", "--tools", "drd", "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"), "grand",
        ]
        assert main(grand) == 0
        capsys.readouterr()
        assert main([*grand, "--resume"]) == 0
        out = capsys.readouterr().out
        cells = len(grand_specs(["drd"], suite_limit=1))
        assert f"{cells} run(s) served from the checkpoint journal" in out

    def test_grand_needs_a_trace_store(self, tmp_path, capsys):
        assert main(["--journal-dir", str(tmp_path), "grand"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_doctor_quarantines_and_purges(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        assert main([*self.SWEEP, "--cache-dir", cdir]) == 0
        capsys.readouterr()
        # flip one payload bit so the checksum no longer matches
        (entry,) = (tmp_path / "cache").glob("*.pkl")
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert main(["--cache-dir", cdir, "cache", "doctor"]) == 0
        out = capsys.readouterr().out
        assert "1 newly quarantined" in out and "checksum-mismatch" in out
        assert main(["--cache-dir", cdir, "cache", "doctor", "--purge"]) == 0
        out = capsys.readouterr().out
        assert "1 purged" in out
        assert not list((tmp_path / "cache" / "corrupt").glob("*.pkl"))

    def test_cache_doctor_usage_errors(self, capsys):
        assert main(["cache", "doctor"]) == 2  # no --cache-dir
        assert main(["--cache-dir", "/tmp/x", "cache", "fsck"]) == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err and "unknown cache command" in err

    def test_triage_usage_errors(self, capsys):
        assert main(["triage"]) == 2
        assert main(["triage", "replay"]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "ARTIFACT" in err

    def test_triage_replay_reproduces_artifact(self, tmp_path, capsys):
        from repro.detectors import ToolConfig
        from repro.harness.chaos import chaos_spec
        from repro.harness.parallel import _failure_record
        from repro.harness.triage import capture_failure
        from repro.workloads import chaos_cases

        case = next(c for c in chaos_cases() if c.name == "drop-flag-store")
        spec = chaos_spec(case, ToolConfig.helgrind_lib_spin(7))
        record = _failure_record(spec, "livelock", 1, "")
        dest = capture_failure(spec, record, tmp_path)
        # exit 1 = the failure reproduced: the artifact is a live repro
        assert main(["triage", "replay", str(dest)]) == 1
        out = capsys.readouterr().out
        assert "failure REPRODUCED" in out
        assert main(["--shrunk", "triage", "replay", str(dest)]) == 1
        out = capsys.readouterr().out
        assert "shrunk repro" in out and "REPRODUCED" in out


class TestTraceCli:
    def test_record_summary_never_decodes_the_recording(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.harness.parallel import RunSpec
        from repro.trace import TraceStore, key_for_spec

        def no_decode(self, payload):
            raise AssertionError("trace record decoded the whole recording")

        tdir = str(tmp_path / "traces")
        monkeypatch.setattr(TraceStore, "decode", no_decode)
        assert main(["--trace-dir", tdir, "trace", "record", "streamcluster"]) == 0
        out = capsys.readouterr().out
        monkeypatch.undo()

        spec = RunSpec(
            "streamcluster", "helgrind-lib-spin7", seed=1, trace_mode="record"
        )
        key = key_for_spec(spec)
        trace = TraceStore(tdir).get(key)
        assert out == (
            f"recorded streamcluster seed 1 scheduler {trace.scheduler} "
            f"-> {key[:16]}…: status={trace.status} steps={trace.steps} "
            f"events={len(trace.columns)}\n"
        )
