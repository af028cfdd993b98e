#!/usr/bin/env bash
# bench-ab: alternating A/B runs of benchmark workloads, the way
# choosing-metrics section 8 asks a host-clock claim to be measured.
#
# Builds `benchmark/` at <base-ref> (A) and at HEAD (B), each side twice,
# in two checkouts of its own: where a build lives moves code layout, and
# with it host rates by a few percent. Checkouts are git worktrees, or
# `git archive` extracts where a worktree cannot be added. The four
# builds serve every workload named. Then, one workload after another,
# runs it `pairs` times per side with the benchmark's published settings
# (`--seconds 10 --trace 0`), alternating which side goes first and
# rotating the four binaries, so that every pairing of an A build with a
# B build runs in both orders once per eight pairs. Prints, per workload
# and end-to-end metric, each side's median and quartiles over the runs,
# how many pairs B won, and whether section 8's rule for claiming a gain
# holds (B wins at least nine tenths of the pairs, and the medians differ
# by more than A's interquartile range); then `benchmark compare` on the
# two runs nearest their side's median `host_work_per_s`. Uncommitted
# changes are not measured: commit first.
#
# Usage: scripts/bench_ab.sh <base-ref> <workload>[,<workload>...|all] [pairs=10]
#   `all` is every workload BENCHMARK.json lists, in its order. Result
#   files and each workload's summary stay in target/bench-ab/<workload>/.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
base_ref=$1
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
known=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
if [ "$2" = all ]; then workloads=$known; else workloads=${2//,/ }; fi
for workload in $workloads; do
  case " $known " in
    *" $workload "*) ;;
    *) echo "bench-ab: unknown workload '$workload' (BENCHMARK.json lists: $known)" >&2; exit 2 ;;
  esac
done
out="$root/target/bench-ab"
checkouts=()
cleanup() {
  for dir in "${checkouts[@]}"; do
    git worktree remove --force "$dir" 2>/dev/null || rm -rf "$dir"
  done
}
trap cleanup EXIT
rm -rf "$out"
git worktree prune
mkdir -p "$out"
for workload in $workloads; do mkdir -p "$out/$workload"; done

build() { # <checkout name> <ref>
  local dir="$out/wt-$1"
  checkouts+=("$dir")
  if ! git worktree add --quiet --detach "$dir" "$2" 2>/dev/null; then
    # An extract has no .git of its own: its result files name this
    # repository's HEAD as their commit, whichever ref was extracted.
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$2" | tar -x -C "$dir"
  fi
  cargo build --release --quiet --offline \
    --manifest-path "$dir/benchmark/Cargo.toml" --bin benchmark
}
build a1 "$base_ref"
build a2 "$base_ref"
build b1 HEAD
build b2 HEAD

run() { # <workload> <side> <checkout> <pair>: one untraced run, from inside that checkout
  (cd "$out/wt-$3" &&
    benchmark/target/release/benchmark --workload "$1" \
      --seconds 10 --trace 0 --out "$out/$1/$2-$4.json" >/dev/null)
}

measure() { # <workload>: the pairs, then the summary
  local workload=$1 dir="$out/$1"
  # Which A and B build a round uses; the order alternates every round.
  local builds=("1 1" "2 2" "1 2" "2 1")
  for pair in $(seq 1 "$pairs"); do
    local round=$((pair - 1)) ia ib order
    read -r ia ib <<<"${builds[$(((round / 2) % 4))]}"
    if [ $((round % 2)) -eq 0 ]; then order="a$ia b$ib"; else order="b$ib a$ia"; fi
    for checkout in $order; do
      run "$workload" "${checkout:0:1}" "$checkout" "$pair"
    done
    echo "$workload: pair $pair/$pairs done ($order)" >&2
  done

  python3 - "$dir" "$pairs" "$base_ref" "$workload" <<'PY' | tee "$dir/summary.md"
import json, math, statistics, sys
out, pairs, base_ref, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
contract = json.load(open("BENCHMARK.json"))
runs = {s: [json.load(open(f"{out}/{s}-{p}.json")) for p in range(1, pairs + 1)] for s in "ab"}

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

need = math.ceil(0.9 * pairs)
print(f"### {workload}: A = {base_ref}, B = HEAD, {pairs} alternating pairs, "
      f"two builds per side\n")
print("| metric | A median [q1, q3] | B median [q1, q3] | B vs A | pairs won by B "
      f"| gain holds (≥ {need}/{pairs} won, \\|Δ median\\| > A's q3 − q1) |")
print("|---|---|---|---|---|---|")
for m in contract["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    a = [r["metrics"][name]["value"] for r in runs["a"]]
    b = [r["metrics"][name]["value"] for r in runs["b"]]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    delta = f"{(b2 - a2) / abs(a2) * 100:+.1f}%" if a2 else "n/a"
    won = f"{wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
    holds = "yes" if wins >= need and abs(b2 - a2) > a3 - a1 else "no"
    print(f"| `{name}` ({m['unit']}, {m['better']}) | {a2:.4f} [{a1:.4f}, {a3:.4f}] "
          f"| {b2:.4f} [{b1:.4f}, {b3:.4f}] | {delta} | {won} | {holds} |")
failed = {s: sum(r["failed"] for r in runs[s]) for s in "ab"}
print(f"\nfailed checks: A {failed['a']}, B {failed['b']}")

def nearest_median(side):
    values = [r["metrics"]["host_work_per_s"]["value"] for r in runs[side]]
    mid = statistics.median_low(values)
    return values.index(mid) + 1
open(f"{out}/median-pair", "w").write(f"{nearest_median('a')} {nearest_median('b')}\n")
PY

  local pa pb
  read -r pa pb <"$dir/median-pair"
  echo
  echo "benchmark compare: A run $pa vs B run $pb (each nearest its side's median host_work_per_s)"
  "$out/wt-b1/benchmark/target/release/benchmark" compare "$dir/a-$pa.json" "$dir/b-$pb.json" |
    tee -a "$dir/summary.md"
}

for workload in $workloads; do
  measure "$workload"
  echo
done
