"""repro — reproduction of *Identifying Ad-hoc Synchronization for
Enhanced Race Detection* (Jannesari & Tichy, IPDPS 2010).

The package layers, bottom-up:

* :mod:`repro.isa` — the register-machine IR (the paper's "binary code");
* :mod:`repro.vm` — the deterministic multithreaded interpreter that
  stands in for native execution under Valgrind;
* :mod:`repro.runtime` — a threading library written in the IR itself,
  every blocking primitive bottoming out in a spinning read loop;
* :mod:`repro.analysis` — the instrumentation phase: CFG/dominator/loop
  analysis and the spinning-read-loop detector;
* :mod:`repro.detectors` — the runtime phase: vector-clock race
  algorithms (Helgrind+ hybrid, pure-hb DRD), the ad-hoc synchronization
  engine, and the tool-configuration façade;
* :mod:`repro.harness` — experiment runner, metrics, tables, perf;
* :mod:`repro.workloads` — the 120-case suite and the 13 PARSEC
  stand-ins driving every table and figure of the paper.

Quickstart::

    import repro

    pb = repro.ProgramBuilder("demo")
    ...                                  # build an IR program
    pb.link(repro.build_library())

    session = repro.run(pb, "helgrind-lib-spin7", seed=1)
    print(session.report.summary())

:func:`repro.run` performs the whole pipeline — instrumentation phase
(when the tool wants spin detection or lock inference), detector and
machine construction, symbol wiring, execution, finalization — and the
returned :class:`~repro.session.SessionResult` keeps the live detector
and machine for drill-down.  Tool configurations resolve by preset name
(``repro.ToolConfig.presets()`` lists them) or can be passed as
:class:`~repro.detectors.ToolConfig` instances.  The long-form
constructors shown throughout :mod:`repro.vm` and :mod:`repro.detectors`
remain available; ``run()`` is sugar, not a new execution path.
"""

from repro.isa import (
    FunctionBuilder,
    Program,
    ProgramBuilder,
    assemble,
    disassemble,
    validate_program,
)
from repro.vm import (
    AdversarialScheduler,
    Machine,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.runtime import build_library
from repro.analysis import SpinLoopDetector, instrument_program
from repro.detectors import RaceDetector, Report, ToolConfig
from repro.harness import Workload
from repro.session import SessionResult, run
from repro.trace import Trace, record_trace, replay_trace

__version__ = "1.0.0"

__all__ = [
    "FunctionBuilder",
    "Program",
    "ProgramBuilder",
    "assemble",
    "disassemble",
    "validate_program",
    "AdversarialScheduler",
    "Machine",
    "RandomScheduler",
    "RoundRobinScheduler",
    "build_library",
    "SpinLoopDetector",
    "instrument_program",
    "RaceDetector",
    "Report",
    "ToolConfig",
    "Workload",
    "run",
    "SessionResult",
    "Trace",
    "record_trace",
    "replay_trace",
    "__version__",
]
