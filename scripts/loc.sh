#!/bin/sh
# Go lines per top-level package, non-test and test, in the working tree
# and as a delta against REF (default HEAD), totalled with bench/ left
# out: the numbers a simplicity PR reports (ROADMAP house rules).
#	scripts/loc.sh [REF]
set -eu
cd "$(dirname "$0")/.."
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git archive "${1:-HEAD}" | tar -x -C "$old"
lines() { (cd "$1" && find . -name '*.go' -not -path './.*' -exec wc -l {} + | awk -v side="$2" '$2 != "total" { print side, $1, substr($2, 3) }'); }
{ lines "$old" old; lines . new; } | awk '
{	n = split($3, p, "/"); pkg = n == 1 ? "(root)" : (p[1] == "internal" || p[1] == "cmd") ? p[1] "/" p[2] : p[1]
	kind = $3 ~ /_test\.go$/ ? "test" : "code"
	v[pkg, kind, $1] += $2; seen[pkg]
	if (pkg != "bench") v["= outside bench/", kind, $1] += $2 }
END {	seen["= outside bench/"]
	for (pkg in seen) printf "%-24s %7d %+7d %7d %+7d\n", pkg, v[pkg, "code", "new"], v[pkg, "code", "new"] - v[pkg, "code", "old"], v[pkg, "test", "new"], v[pkg, "test", "new"] - v[pkg, "test", "old"]
}' | sort | awk 'BEGIN { printf "%-24s %7s %7s %7s %7s\n", "package", "code", "delta", "test", "delta" } { print }'
