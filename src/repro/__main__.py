"""Command-line entry point: run the paper's experiments.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig11            # run one (prefix match)
    python -m repro all                  # run every experiment
    python -m repro report [path]        # write a Markdown results report
                                         # (--full for EXPERIMENTS.md sizes)
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablation_miniblocks,
    ablation_vertical,
    compiler_workload,
    compression_speed,
    fault_injection,
    fig5_blocks_per_tb,
    fig7_bitwidths,
    fig8_distributions,
    fig9_ssb_compression,
    fig10_decompression,
    fig11_ssb_queries,
    fig12_coprocessor,
    interconnect_sweep,
    lightweight_vs_entropy,
    multigpu_scaling,
    sharding_workload,
    opt_ladder,
    pushdown_sweep,
    random_access,
    related_work,
    semcache_workload,
    sensitivity_gpu,
    serving_workload,
    streaming_scan,
    tiering_workload,
)

EXPERIMENTS = {
    "opt_ladder": (opt_ladder, "E1  — §4.2 optimization ladder"),
    "fig5": (fig5_blocks_per_tb, "E2  — Figure 5: D sweep"),
    "ablation_vertical": (ablation_vertical, "E3  — §4.3 vertical layout"),
    "ablation_miniblocks": (ablation_miniblocks, "§4.3 miniblocks vs single bitwidth"),
    "fig7": (fig7_bitwidths, "E4/E5 — Figure 7: bitwidth sweep"),
    "fig8": (fig8_distributions, "E6-E8 — Figure 8: distributions"),
    "fig9": (fig9_ssb_compression, "E9  — Figure 9: SSB compression"),
    "fig10": (fig10_decompression, "E10/E11 — Figure 10: decompression"),
    "fig11": (fig11_ssb_queries, "E12 — Figure 11: SSB queries"),
    "fig12": (fig12_coprocessor, "E13 — Figure 12: coprocessor"),
    "random_access": (random_access, "E14 — §8 random access"),
    "compression_speed": (compression_speed, "E15 — §8 compression speed"),
    "sensitivity": (sensitivity_gpu, "extension — V100 vs A100"),
    "related_work": (related_work, "extension — VByte/PFOR/Simple-8b vs GPU-FOR"),
    "pushdown": (pushdown_sweep, "extension — metadata tile skipping vs selectivity"),
    "interconnect": (interconnect_sweep, "extension — coprocessor speedup vs link generation"),
    "multigpu": (multigpu_scaling, "extension — sharded SSB scan scaling"),
    "entropy": (lightweight_vs_entropy, "claims — §2.2: lightweight captures most gains"),
    "serving": (serving_workload, "extension — serving layer: pool + scheduler under load"),
    "streaming": (streaming_scan, "extension — morsel streaming: host ms, peak decoded bytes"),
    "semcache": (semcache_workload, "extension — semantic result cache: drill-down reuse"),
    "faults": (fault_injection, "extension — corruption matrix + fault-injected serving"),
    "sharding": (sharding_workload, "extension — sharded serving: tile-range shards + zone-map routing"),
    "tiering": (tiering_workload, "extension — workload-adaptive codec tiering vs static planner"),
    "compiler": (compiler_workload, "extension — star-schema query compiler vs hand-written flights"),
}


def _usage() -> int:
    print(__doc__)
    return 2


def main(argv: list[str]) -> int:
    """Dispatch the CLI: list / run / all / report (returns an exit code)."""
    if not argv:
        return _usage()
    command = argv[0]

    if command == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"  {name:22s} {description}")
        return 0

    if command == "all":
        for name, (module, _) in EXPERIMENTS.items():
            print(f"\n##### {name} #####")
            module.main()
        return 0

    if command == "report":
        from repro.reporting import write_report

        path = "results.md"
        if len(argv) > 1 and not argv[1].startswith("-"):
            path = argv[1]
        quick = "--full" not in argv
        write_report(path, quick=quick)
        print(f"wrote {path} (quick={quick})")
        return 0

    if command == "run":
        if len(argv) < 2:
            return _usage()
        query = argv[1]
        matches = [n for n in EXPERIMENTS if n == query] or [
            n for n in EXPERIMENTS if n.startswith(query)
        ]
        if len(matches) != 1:
            print(f"unknown or ambiguous experiment {query!r}; try 'list'")
            return 2
        EXPERIMENTS[matches[0]][0].main()
        return 0

    return _usage()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
