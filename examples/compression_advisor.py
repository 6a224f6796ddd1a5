"""Compression advisor: the Section 8 scheme-selection workflow.

Walks four realistic column shapes — a sorted primary key, a
dictionary-encoded text column (Zipfian), a timestamp-like run column,
and a random measure — and for each shows the column statistics, the
stats-only rule-of-thumb recommendation, the exact GPU-* choice, and
what every candidate scheme would have cost.

Run:  python examples/compression_advisor.py
"""

from repro import ColumnStats, choose_gpu_star, heuristic_scheme
from repro.workloads import d3_zipf, runs, sorted_keys, uniform_bitwidth

N = 1_000_000

SCENARIOS = {
    "sorted primary key": sorted_keys(N),
    "dictionary-encoded text (Zipf a=1.5)": d3_zipf(1.5, N),
    "per-order timestamp (runs of ~8)": runs(8, N, distinct=40_000),
    "random measure (24-bit)": uniform_bitwidth(24, N),
}


def main() -> None:
    for name, column in SCENARIOS.items():
        stats = ColumnStats.from_values(column)
        choice = choose_gpu_star(column)
        guess = heuristic_scheme(stats)

        print(f"\n== {name} ==")
        print(f"  ndv={stats.distinct_count:,}  sorted={stats.is_sorted}  "
              f"avg_run={stats.avg_run_length:.1f}  "
              f"raw_bits={stats.raw_bits}  for_bits={stats.for_bits}")
        print(f"  rule of thumb (Section 8): {guess}")
        print(f"  exact GPU-* choice:        {choice.codec_name}"
              + ("  (heuristic agreed)" if guess == choice.codec_name else ""))
        for scheme, nbytes in sorted(choice.candidate_bytes.items(), key=lambda kv: kv[1]):
            marker = " <- chosen" if scheme == choice.codec_name else ""
            print(f"    {scheme:9s} {nbytes * 8 / N:6.2f} bits/int{marker}")


if __name__ == "__main__":
    main()
