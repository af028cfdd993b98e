#!/usr/bin/env bash
# bench-ab: alternating A/B runs of benchmark workloads, the way
# choosing-metrics section 8 asks a host-clock claim to be measured.
#
# Builds `benchmark/` at <base-ref> (A) and at HEAD (B), each side twice,
# in two `git archive` extracts of its own: where a build lives moves code
# layout, and with it host rates by a few percent. The four builds serve
# every workload named. Then, one workload after another,
# runs it `pairs` times per side with the benchmark's published settings
# (`--seconds 10 --trace 0`), alternating which side goes first and
# rotating the four binaries, so that every pairing of an A build with a
# B build runs in both orders once per eight pairs. Prints, per workload
# and end-to-end metric, each side's median and quartiles over the runs,
# how many pairs B won, and whether section 8's rule for claiming a gain
# holds (B wins at least nine tenths of the pairs, and the medians differ
# by more than A's interquartile range; scripts/bench_summary.py); then
# `benchmark compare` on the two runs nearest their side's median
# `host_work_per_s`. Uncommitted changes are not measured: commit first.
#
# Usage: scripts/bench_ab.sh <base-ref> <workload>[,<workload>...|all] [pairs=10]
#   `all` is every workload BENCHMARK.json lists, in its order. Result
#   files and each workload's summary.md and summary.json stay in
#   target/bench-ab/<workload>/; target/bench-ab/ledger.json lists every
#   workload's summary.json, the shape of a committed BENCH_<n>.json.
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
a_commit=$(git rev-parse --verify "$base_ref^{commit}")
b_commit=$(git rev-parse HEAD)
checkouts=()
cleanup() {
  for dir in "${checkouts[@]}"; do rm -rf "$dir"; done
}
trap cleanup EXIT
rm -rf "$out"
mkdir -p "$out"
for workload in $workloads; do mkdir -p "$out/$workload"; done

build() { # <checkout name> <commit>
  local dir="$out/wt-$1"
  checkouts+=("$dir")
  mkdir -p "$dir"
  git archive "$2" | tar -x -C "$dir"
  cargo build --release --quiet --offline \
    --manifest-path "$dir/benchmark/Cargo.toml" --bin benchmark
}
build a1 "$a_commit"
build a2 "$a_commit"
build b1 "$b_commit"
build b2 "$b_commit"

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

  python3 "$root/scripts/bench_summary.py" "$dir" "$pairs" "$a_commit" "$b_commit" "$workload" |
    tee "$dir/summary.md"

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
python3 - "$out" $workloads <<'PY'
import json, sys
out, workloads = sys.argv[1], sys.argv[2:]
ledger = [json.load(open(f"{out}/{w}/summary.json")) for w in workloads]
with open(f"{out}/ledger.json", "w") as f:
    json.dump(ledger, f, indent=1)
    f.write("\n")
PY
