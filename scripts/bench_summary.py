#!/usr/bin/env python3
"""Summarise alternating A/B benchmark runs, the way choosing-metrics
section 8 asks a host-clock claim to be read.

Usage: scripts/bench_summary.py <dir> <pairs> <A commit> <B commit> <workload>

Reads <dir>/a-<n>.json and <dir>/b-<n>.json for n = 1..pairs (result files
of `benchmark --workload <workload>`), run from the repository root so that
BENCHMARK.json names the end-to-end metrics. Prints the markdown table
(per metric: each side's median and quartiles, Δ %, pairs won by B, and
whether the gain rule holds: B wins at least nine tenths of the pairs and
the medians differ by more than A's interquartile range), and writes the
same numbers to <dir>/summary.json and the run nearest each side's median
`host_work_per_s` to <dir>/median-pair. `scripts/bench_ab.sh` calls it
once per workload; runs alternated by hand are summarised the same way.
"""
import json
import math
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    out, pairs, a_commit, b_commit, workload = sys.argv[1:6]
    pairs = int(pairs)
    contract = json.load(open("BENCHMARK.json"))
    runs = {s: [json.load(open(f"{out}/{s}-{p}.json")) for p in range(1, pairs + 1)] for s in "ab"}
    seeds = {r["seed"] for side in runs.values() for r in side}
    seconds = {r["seconds"] for side in runs.values() for r in side}
    if len(seeds) != 1 or len(seconds) != 1:
        sys.exit(f"bench-summary: runs differ in seed {seeds} or seconds {seconds}")

    need = math.ceil(0.9 * pairs)
    print(f"### {workload}: A = {a_commit[:7]}, B = {b_commit[:7]}, seed {min(seeds)}, "
          f"{pairs} alternating pairs\n")
    print("| metric | A median [q1, q3] | B median [q1, q3] | B vs A | pairs won by B "
          f"| gain holds (≥ {need}/{pairs} won, \\|Δ median\\| > A's q3 − q1) |")
    print("|---|---|---|---|---|---|")
    metrics = []
    for m in contract["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        delta = (b2 - a2) / abs(a2) * 100 if a2 else None
        holds = wins >= need and abs(b2 - a2) > a3 - a1
        won = f"{wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
        shown = f"{delta:+.1f}%" if delta is not None else "n/a"
        print(f"| `{name}` ({m['unit']}, {m['better']}) | {a2:.4f} [{a1:.4f}, {a3:.4f}] "
              f"| {b2:.4f} [{b1:.4f}, {b3:.4f}] | {shown} | {won} | {'yes' if holds else 'no'} |")
        metrics.append({
            "name": name,
            "unit": m["unit"],
            "better": m["better"],
            "a": {"median": a2, "q1": a1, "q3": a3},
            "b": {"median": b2, "q1": b1, "q3": b3},
            "delta_pct": delta,
            "pairs_won": wins,
            "ties": ties,
            "gain_holds": holds,
        })
    failed = {s: sum(r["failed"] for r in runs[s]) for s in "ab"}
    print(f"\nfailed checks: A {failed['a']}, B {failed['b']}")

    summary = {
        "workload": workload,
        "seed": min(seeds),
        "seconds": min(seconds),
        "pairs": pairs,
        "a_commit": a_commit,
        "b_commit": b_commit,
        "failed_checks": failed,
        "metrics": metrics,
    }
    with open(f"{out}/summary.json", "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")

    def nearest_median(side):
        values = [r["metrics"]["host_work_per_s"]["value"] for r in runs[side]]
        return values.index(statistics.median_low(values)) + 1

    with open(f"{out}/median-pair", "w") as f:
        f.write(f"{nearest_median('a')} {nearest_median('b')}\n")


if __name__ == "__main__":
    main()
