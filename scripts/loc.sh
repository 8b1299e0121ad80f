#!/bin/sh
# Go lines per top-level package, non-test and test, in the working tree
# and as a delta against REF (default HEAD), totalled with bench/ left
# out; then, at REF and in the working tree, two surface counts over the
# same non-test Go outside bench/: exported func/method/type names, and
# exported fields of *Config / *Options structs. These are the numbers a
# simplicity change reports (ROADMAP house rules).
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

# surface DIR prints "names fields" for DIR's non-test Go outside bench/.
# A name is a top-level `func`, method or `type` whose name is exported; a
# field is an exported name declared in a `type …Config struct` or
# `type …Options struct` body.
surface() {
	(cd "$1" && find . -name '*.go' -not -name '*_test.go' -not -path './.*' -not -path './bench/*' -not -path '*/testdata/*' |
		xargs awk '
		FNR == 1 { inblk = 0; inconf = 0 }
		/^func (\([^)]*\) )?[A-Z]/ || /^type [A-Z]/ { names++ }
		/^type \($/ { inblk = 1; next }
		inblk && /^\)/ { inblk = 0 }
		inblk && /^\t[A-Z]/ { names++ }
		/^type [A-Za-z0-9_]*(Config|Options) struct \{$/ { inconf = 1; next }
		inconf && /^}/ { inconf = 0 }
		inconf && /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* / {
			line = $0; sub(/^\t/, "", line); sub(/ [^,].*$/, "", line); fields += split(line, f, ",") }
		END { print names + 0, fields + 0 }')
}
{ surface "$old"; surface .; } | awk '
NR == 1 { n0 = $1; f0 = $2 }
NR == 2 {	printf "%-34s %5d -> %5d %+5d\n", "exported func/method/type names", n0, $1, $1 - n0
	printf "%-34s %5d -> %5d %+5d\n", "*Config/*Options exported fields", f0, $2, $2 - f0 }'
