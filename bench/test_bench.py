"""Self-test of the benchmark at smoke size (8 cells, one pass per window).

    PYTHONPATH=src python -m pytest bench/ -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers, workloads
from bench import run as bench_run

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ["--seconds", "0", "--cells", "8"]


def _bench(capsys, monkeypatch, workload, trace=0):
    """Run one workload in-process; (exit code, stdout lines, result)."""
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))  # restored after
    code = bench_run.main(["--workload", workload, "--trace", str(trace), *SMOKE])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _patched_attributes():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in layers.patch_points()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.NAMES)
def test_metric_names_and_units_match_benchmark_json(capsys, monkeypatch, workload, trace):
    code, lines, result = _bench(capsys, monkeypatch, workload, trace)
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    for name, unit in declared.items():
        assert printed.get(name) == unit


def test_tampered_golden_entry_fails_the_run(capsys, monkeypatch, tmp_path):
    golden = workloads.load_golden()
    golden["blackscholes|drd|1"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(workloads, "GOLDEN_PATH", tampered)
    code, _lines, result = _bench(capsys, monkeypatch, "parsec-replay")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_traced_run_restores_every_patched_attribute(capsys, monkeypatch):
    before = _patched_attributes()
    code, _lines, result = _bench(capsys, monkeypatch, "parsec-live", trace=1)
    assert code == 0
    assert result["metrics"]["detectors.batches"]["value"] > 0  # wrappers were live
    after = _patched_attributes()
    assert all(after[k] is v for k, v in before.items())


def test_untraced_run_installs_no_wrapper(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(layers.Tracer, "installed", refuse)
    before = _patched_attributes()
    code, _lines, _result = _bench(capsys, monkeypatch, "parsec-live")
    assert code == 0
    assert all(_patched_attributes()[k] is v for k, v in before.items())


def test_span_check_catches_misattributed_time():
    tracer = layers.Tracer()
    with tracer.span("window"):
        with tracer.span("child"):
            pass
    assert tracer.check() is None
    sid, name, start, end, parent, cell, _self = tracer.spans[0]
    tracer.spans[0] = (sid, name, start, end, parent, cell, 10 * (end - start) + 10**9)
    assert "apart" in tracer.check()


def test_exits_nonzero_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "parsec-replay"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
