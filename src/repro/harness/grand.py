"""The grand sweep: suite x presets x chaos, as whole replay cells.

One command re-analyzes everything the repository knows how to measure:
the 120-case data-race-test suite and the chaos matrix, each crossed
with every registered tool preset.  Every cell is an ordinary
``trace_mode="replay"`` :class:`~repro.harness.parallel.RunSpec`, so the
sweep engine records each trace once (the store prewarm), shares it
across the presets, and brings its checkpoint journal, resource
governor and result cache along: ``repro-experiments grand`` is just
:func:`~repro.harness.parallel.run_sweep` over :func:`grand_specs`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_cases, chaos_spec
from repro.harness.parallel import RunSpec


def grand_specs(
    configs: Sequence[Union[str, ToolConfig]],
    suite_limit: Optional[int] = None,
    include_chaos: bool = True,
    seeds: Sequence[Optional[int]] = (None,),
) -> List[RunSpec]:
    """The grand sweep's cells: suite x ``configs`` x ``seeds``, then
    (with ``include_chaos``) chaos cases x ``configs`` with their fault
    plans and livelock bounds — all replay-mode."""
    from repro.workloads import build_suite

    suite = build_suite()
    if suite_limit:
        suite = suite[:suite_limit]
    specs = [
        RunSpec(workload=wl.name, config=cfg, seed=seed, trace_mode="replay")
        for wl in suite
        for cfg in configs
        for seed in seeds
    ]
    if include_chaos:
        specs += [
            dataclasses.replace(chaos_spec(case, cfg), trace_mode="replay")
            for case in chaos_cases()
            for cfg in configs
        ]
    return specs
