#!/usr/bin/env bash
# Paired parent-vs-change runs of one bench/perf workload: the protocol
# of bench/perf/README.md's "Claiming a gain". Run from the root of the
# change's checkout:
#
#   bash tools/perf_pairs.sh PARENT WORKLOAD PAIRS [SEED [SECONDS]]
#
# PARENT is another evolvenet checkout, e.g. a `git archive` of the
# parent commit unpacked elsewhere. Pair i (0 .. PAIRS-1) runs seed
# SEED+i (SEED defaults to 1) for SECONDS (default 12) on both sides,
# the parent first on even i and the change first on odd i, so that
# neither side always meets the host's later phase; it writes both
# documents to perf-pairs/WORKLOAD/SEED+i-{parent,change}.json and runs
# `--compare` on that pair alone. A run whose oracle check fails stops
# the script (run.sh exits 1). At the end it prints, per end-to-end
# metric, both sides' median and q1-q3 over the pairs' medians and how
# many pairs the change won. Exits 1 when any pair's `--compare` read
# "worse", 2 on bad usage.
set -eu

usage() {
  echo "usage: bash tools/perf_pairs.sh PARENT WORKLOAD PAIRS [SEED [SECONDS]]" >&2
  exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
[ -f dune-project ] && [ -f bench/perf/run.sh ] || usage
[ -f "$1/bench/perf/run.sh" ] || { echo "perf_pairs: $1 is not an evolvenet checkout" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(pwd)
workload=$2
pairs=$3
seed=${4:-1}
seconds=${5:-12}
case "$pairs$seed$seconds" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

out="$change/perf-pairs/$workload"
mkdir -p "$out"

run() { # side checkout seed
  (cd "$2" && bash bench/perf/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 --out "$out/$3-$1.json" > /dev/null)
}

worse=0
for i in $(seq 0 $((pairs - 1))); do
  s=$((seed + i))
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$s"
    run change "$change" "$s"
  else
    run change "$change" "$s"
    run parent "$parent" "$s"
  fi
  echo "== pair $((i + 1))/$pairs, seed $s"
  ./_build/default/bench/perf/main.exe --compare "$out/$s-parent.json" "$out/$s-change.json" \
    || worse=1
done

python3 - "$out" "$seed" "$pairs" <<'EOF'
import json, statistics, sys

out, first, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seeds = range(first, first + pairs)
docs = {side: [json.load(open(f"{out}/{s}-{side}.json")) for s in seeds]
        for side in ("parent", "change")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

print(f"\n{docs['change'][0]['workload']}: {pairs} pair(s), seeds {first}-{first + pairs - 1}")
print(f"{'metric':<10} {'parent median (q1-q3)':>34} {'change median (q1-q3)':>34}"
      f" {'change/parent':>13} {'change won':>10}  gap > parent q1-q3")
for metric, m in docs["change"][0]["end_to_end"].items():
    higher = m["better"] == "higher"
    p = [d["end_to_end"][metric]["median"] for d in docs["parent"]]
    c = [d["end_to_end"][metric]["median"] for d in docs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
    gap = abs(cq[1] - pq[1]) > pq[2] - pq[0]
    side = lambda q: f"{q[1]:.4g} ({q[0]:.4g}-{q[2]:.4g})"
    print(f"{metric:<10} {side(pq):>34} {side(cq):>34} {cq[1] / pq[1]:>13.3f}"
          f" {won:>7}/{pairs:<2}  {'yes' if gap else 'no'}")
EOF
exit "$worse"
