"""The repo benchmark: three verdict workloads, one command.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-golden

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 1920, "failed": 0,
     "metrics": {"setup_s": {"value": 0.08, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes the spans to
``bench/out/``).  Without ``--workload`` every workload runs in a fresh
subprocess, one after the other.  The exit code is non-zero when any
verdict differs from ``bench/golden.json`` or a check fails — after the
metrics are printed.

The benchmark measures the sources in this checkout (``src/``) and
nothing else: without them it exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("suite-sweep", "parsec-live", "parsec-replay")


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {SRC}/repro")
    sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")
    # Anything that reaches for a temporary directory stays in the checkout.
    tmp = ROOT / "bench" / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def _parse(argv):
    with open(ROOT / "BENCHMARK.json") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cells", type=int, default=None,
                   help="smoke size: first N cells of each workload's list")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate bench/golden.json from live runs and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from bench import workloads

    if args.write_golden:
        n = workloads.write_golden()
        print(f"wrote {n} fingerprints to {workloads.GOLDEN_PATH}")
        return 0
    if args.workload is None:
        code = 0
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.cells is not None:
                cmd += ["--cells", str(args.cells)]
            code = max(code, subprocess.run(cmd).returncode)
        return code

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.cells
    )
    print(
        f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for note in result.notes:
        print(f"  # {note}")
    print(f"  verdicts: {result.attempted} attempted, {result.failed} failed")
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
