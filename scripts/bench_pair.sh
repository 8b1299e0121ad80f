#!/bin/sh
# Paired parent/change comparison of one benchmark workload — the
# "Paired parent/change comparison" recipe of bench/README.md, automated:
#
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]
#
# The parent is cloned into a temp dir and given THIS tree's bench/, so
# both sides run identical benchmark code; each side is built once; then
# seeds 1…pairs run once per side, alternating which side goes first.
# Both sides keep their scratch data under this tree's .bench_out/, so
# fsync and write costs come from one filesystem. Prints the table of
# `go run ./bench -compare` (medians, worse-by, parent IQR, pair wins).
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_out/pair-$workload
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

git clone -q . "$tmp/parent"
git -C "$tmp/parent" checkout -q "$ref"
rm -rf "$tmp/parent/bench"
cp -r bench "$tmp/parent/bench"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./bench)
go build -o "$tmp/bench_change" ./bench

rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

# run <side> <seed>: one untraced run; its last stdout line (the driver's
# result object) is kept as <side>/run-<seed>.json.
run() {
	(cd "$out/$1" && "$tmp/bench_$1" -workload "$workload" -seed "$2" -out scratch) \
		>"$out/$1/run-$2.log"
	tail -n 1 "$out/$1/run-$2.log" >"$out/$1/run-$2.json"
	grep -q '"correct":true' "$out/$1/run-$2.json" || {
		echo "bench_pair: $1 seed $2 failed its oracle, see $out/$1/run-$2.log" >&2
		exit 1
	}
	echo "$workload seed $2: $1 done"
}

seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
	seed=$((seed + 1))
done

# repeat_file <side>: fold the side's result objects, in seed order, into
# the file shape `bench -repeat` writes and `bench -compare` reads.
repeat_file() {
	seed=1
	while [ "$seed" -le "$pairs" ]; do
		cat "$out/$1/run-$seed.json"
		seed=$((seed + 1))
	done | awk -v workload="$workload" '
		{
			line = $0
			while (match(line, /"[A-Za-z0-9_.]+":\{"value":[^,}]+/)) {
				kv = substr(line, RSTART, RLENGTH)
				line = substr(line, RSTART + RLENGTH)
				name = substr(kv, 2, index(kv, "\":{") - 2)
				sub(/^.*"value":/, "", kv)
				if (!(name in runs)) order[++n] = name
				runs[name] = runs[name] (NR > 1 ? "," : "") kv
			}
			seeds = seeds (NR > 1 ? "," : "") NR
		}
		END {
			printf "{\"workload\":\"%s\",\"seeds\":[%s],\"seconds\":10,\"trace\":false,\"runs\":{", workload, seeds
			for (i = 1; i <= n; i++) printf "%s\"%s\":[%s]", (i > 1 ? "," : ""), order[i], runs[order[i]]
			print "}}"
		}' >"$out/$1/repeat-$workload.json"
}
repeat_file parent
repeat_file change

go run ./bench -compare "$out/parent/repeat-$workload.json,$out/change/repeat-$workload.json"
