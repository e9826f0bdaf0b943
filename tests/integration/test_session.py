"""The one-call session API: repro.run() end to end."""

import pytest

import repro
from repro import ProgramBuilder, ToolConfig, build_library
from repro.harness.registry import resolve_workload, workload_names
from repro.session import SessionResult
from repro.vm.faults import DropStore, FaultPlan


def _adhoc_builder():
    pb = ProgramBuilder("session_adhoc")
    pb.global_("FLAG", 1)
    pb.global_("DATA", 1)
    producer = pb.function("producer")
    producer.store_global("DATA", 7)
    producer.store_global("FLAG", 1)
    producer.ret()
    consumer = pb.function("consumer")
    f = consumer.addr("FLAG")
    consumer.jmp("spin")
    consumer.label("spin")
    v = consumer.load(f)
    consumer.br(consumer.eq(v, 0), "body", "go")
    consumer.label("body")
    consumer.yield_()
    consumer.jmp("spin")
    consumer.label("go")
    consumer.print_(consumer.load_global("DATA"))
    consumer.ret()
    main = pb.function("main")
    t1 = main.spawn("consumer", [])
    t2 = main.spawn("producer", [])
    main.join(t1)
    main.join(t2)
    main.halt()
    pb.link(build_library())
    return pb


def test_run_program_builder_default_tool():
    session = repro.run(_adhoc_builder())
    assert isinstance(session, SessionResult)
    assert session.ok
    assert session.config == ToolConfig.helgrind_lib_spin(7)
    assert session.seed == 1
    # the default tool identifies the ad-hoc flag handoff: no warnings
    assert session.racy_contexts == 0
    assert session.report is session.detector.report
    assert session.instrumentation is not None
    assert session.workload is None


def test_run_built_program_and_preset_name():
    program = _adhoc_builder().build()
    session = repro.run(program, "helgrind-lib")
    assert session.config == ToolConfig.helgrind_lib()
    # no spin feature -> no instrumentation phase, and the apparent
    # race on DATA/FLAG is reported
    assert session.instrumentation is None
    assert session.instrument_s == 0.0
    assert session.racy_contexts > 0


def test_run_program_factory():
    session = repro.run(lambda: _adhoc_builder().build(), "drd")
    assert session.ok
    assert session.config == ToolConfig.drd()


def test_run_by_workload_name_uses_pinned_seed():
    name = workload_names()[0]
    wl = resolve_workload(name)
    session = repro.run(name)
    assert session.workload is not None
    assert session.workload.name == name
    assert session.seed == wl.seed


def test_run_by_name_matches_run_by_workload():
    name = workload_names()[0]
    wl = resolve_workload(name)
    cfg = ToolConfig.helgrind_lib_spin(7)
    by_workload = repro.run(wl, cfg)
    by_name = repro.run(name, cfg)
    assert by_workload.report.fingerprint() == by_name.report.fingerprint()
    assert by_workload.program is not by_name.program  # fresh vs shared build


def test_symbolization_wired_automatically():
    session = repro.run(_adhoc_builder(), "helgrind-lib")
    assert session.racy_contexts > 0
    text = " ".join(str(w) for w in session.warnings)
    # symbolized names, not bare hex ("race on 0x1000 (addr 0x1000)")
    assert "on DATA" in text and "on FLAG" in text
    assert "on 0x" not in text


def test_explicit_symbolizer_wins():
    session = repro.run(
        _adhoc_builder(), "helgrind-lib", symbolize=lambda addr: f"sym<{addr}>"
    )
    text = " ".join(str(w) for w in session.warnings)
    assert "sym<" in text


def test_faults_and_livelock_passthrough():
    plan = FaultPlan(
        faults=(DropStore(symbol="FLAG", index=0, offset=0),),
        seed=0,
        name="drop-flag",
    )
    session = repro.run(
        _adhoc_builder(), "helgrind-lib-spin7", faults=plan, livelock_bound=2000
    )
    # the consumer spins forever on the never-written flag
    assert not session.ok
    assert session.result.status == "livelock"
    assert session.report.partial


def test_rejects_non_programs():
    with pytest.raises(TypeError):
        repro.run(42)
    with pytest.raises(TypeError):
        repro.run(lambda: "not a program")
    with pytest.raises(KeyError):
        repro.run("no-such-workload-name")


def test_session_result_str_and_summary():
    session = repro.run(_adhoc_builder())
    text = str(session)
    assert "session_adhoc" in text
    assert "racy_contexts=0" in text
    assert session.summary() == session.report.summary()
