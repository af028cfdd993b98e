#!/usr/bin/env bash
# bench-ab: alternating A/B runs of one benchmark workload, the way
# choosing-metrics section 8 asks a host-clock claim to be measured.
#
# Builds `benchmark/` at <base-ref> (A) and at HEAD (B), each in a git
# worktree of its own, then runs the workload `pairs` times per side with
# the benchmark's published settings (`--seconds 10 --trace 0`),
# alternating which side goes first. Prints, per end-to-end metric, each
# side's median and quartiles over the runs and how many pairs B won, then
# `benchmark compare` on the two runs nearest their side's median
# `host_work_per_s`. Uncommitted changes are not measured: commit first.
#
# Usage: scripts/bench_ab.sh <base-ref> <workload> [pairs=10]
#   Result files and the summary stay in target/bench-ab/<workload>/.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/target/bench-ab/$workload"
rm -rf "$out"
mkdir -p "$out"

cleanup() {
  for side in a b; do
    git worktree remove --force "$out/wt-$side" 2>/dev/null || true
  done
}
trap cleanup EXIT

build() { # <side> <ref>
  git worktree add --quiet --detach "$out/wt-$1" "$2"
  cargo build --release --quiet --offline \
    --manifest-path "$out/wt-$1/benchmark/Cargo.toml" --bin benchmark
}
build a "$base_ref"
build b HEAD

run() { # <side> <pair>: one untraced run, from inside that side's worktree
  (cd "$out/wt-$1" &&
    benchmark/target/release/benchmark --workload "$workload" \
      --seconds 10 --trace 0 --out "$out/$1-$2.json" >/dev/null)
}
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for side in $order; do
    run "$side" "$pair"
  done
  echo "pair $pair/$pairs done" >&2
done

python3 - "$out" "$pairs" "$base_ref" "$workload" <<'PY' | tee "$out/summary.md"
import json, statistics, sys
out, pairs, base_ref, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
contract = json.load(open("BENCHMARK.json"))
runs = {s: [json.load(open(f"{out}/{s}-{p}.json")) for p in range(1, pairs + 1)] for s in "ab"}

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

print(f"### {workload}: A = {base_ref}, B = HEAD, {pairs} alternating pairs\n")
print("| metric | A median [q1, q3] | B median [q1, q3] | B vs A | pairs won by B |")
print("|---|---|---|---|---|")
for m in contract["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    a = [r["metrics"][name]["value"] for r in runs["a"]]
    b = [r["metrics"][name]["value"] for r in runs["b"]]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    delta = f"{(b2 - a2) / abs(a2) * 100:+.1f}%" if a2 else "n/a"
    won = f"{wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
    print(f"| `{name}` ({m['unit']}, {m['better']}) | {a2:.4f} [{a1:.4f}, {a3:.4f}] "
          f"| {b2:.4f} [{b1:.4f}, {b3:.4f}] | {delta} | {won} |")
failed = {s: sum(r["failed"] for r in runs[s]) for s in "ab"}
print(f"\nfailed checks: A {failed['a']}, B {failed['b']}")

def nearest_median(side):
    values = [r["metrics"]["host_work_per_s"]["value"] for r in runs[side]]
    mid = statistics.median_low(values)
    return values.index(mid) + 1
open(f"{out}/median-pair", "w").write(f"{nearest_median('a')} {nearest_median('b')}\n")
PY

read -r pa pb <"$out/median-pair"
echo
echo "benchmark compare: A run $pa vs B run $pb (each nearest its side's median host_work_per_s)"
"$out/wt-b/benchmark/target/release/benchmark" compare "$out/a-$pa.json" "$out/b-$pb.json" |
  tee -a "$out/summary.md"
