#!/usr/bin/env bash
# Alternated-pairs A/B run of tangobench: the committed HEAD (the parent)
# against the working tree (the change) on one workload.
#
#   scripts/benchpairs.sh <workload> [seed] [pairs] [seconds]
#   make bench-pairs W=plain_sql SEED=4093 PAIRS=10 SECS=20
#
# It builds one tangobench from `git archive HEAD` and one from the
# working tree, runs them in turn (the order flips every pair, so drift
# of the machine falls on both sides), and prints, for every end-to-end
# metric BENCHMARK.json declares: the parent's median and quartiles, the
# change's median, the median of the per-pair change/parent ratios, how
# many pairs the change won, whether the medians differ by more than the
# parent's interquartile range, and whether the median ratio is worse
# than the metric's bound. Everything it writes goes under .bench_build/.
set -euo pipefail
w=${1:?usage: benchpairs.sh <workload> [seed] [pairs] [seconds]}
seed=${2:-1}
pairs=${3:-10}
secs=${4:-20}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"

rm -rf "$out/head"
mkdir -p "$out/head"
git -C "$root" archive HEAD | tar -x -C "$out/head"
build() { # <checkout> <binary>
	(
		export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" XDG_CONFIG_HOME="$root/.bench_build/config"
		export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
		cd "$1/benchmark" && go build -o "$2" .
	) >&2
}
build "$out/head" "$out/parent"
build "$root" "$out/change"

res="$out/$w-seed$seed.jsonl"
: >"$res"
for i in $(seq "$pairs"); do
	order="parent change"
	if ((i % 2 == 0)); then order="change parent"; fi
	for side in $order; do
		line=$(cd "$root" && "$out/$side" -workload "$w" -seed "$seed" -seconds "$secs" -scratch "$out/run-$side" 2>/dev/null | tail -1)
		printf '{"pair":%d,"side":"%s","result":%s}\n' "$i" "$side" "$line" >>"$res"
		echo "pair $i/$pairs $side done" >&2
	done
done

python3 - "$root/BENCHMARK.json" "$res" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = {"parent": {}, "change": {}}
bad = 0
for line in open(sys.argv[2]):
    r = json.loads(line)
    runs[r["side"]][r["pair"]] = r["result"]
    bad += not r["result"].get("correct") or r["result"].get("failed", 0) > 0

def quantile(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    f = int(k)
    c = min(f + 1, len(xs) - 1)
    return xs[f] + (xs[c] - xs[f]) * (k - f)

pairs = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"{len(pairs)} pairs; runs incorrect or with failed rounds: {bad}")
print(f"{'metric':20} {'parent median [q1, q3]':>34} {'change':>11} {'ratio':>8} {'won':>6}  notes")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [runs["parent"][i]["metrics"][name]["value"] for i in pairs]
    c = [runs["change"][i]["metrics"][name]["value"] for i in pairs]
    ratio = statistics.median(b / a for a, b in zip(p, c) if a)
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    q1, q3 = quantile(p, 0.25), quantile(p, 0.75)
    notes = []
    if abs(statistics.median(c) - statistics.median(p)) > q3 - q1:
        notes.append("beyond parent IQR")
    if ((ratio - 1) if lower else (1 - ratio)) > m["bound"]:
        notes.append(f"WORSE than bound {m['bound']}")
    print(f"{name:20} {statistics.median(p):12.4f} [{q1:9.4f}, {q3:9.4f}] {statistics.median(c):11.4f} "
          f"{100 * (ratio - 1):+7.1f}% {won:>2}/{len(pairs):<3}  {'; '.join(notes)}")
EOF
