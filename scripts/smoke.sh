#!/bin/sh
# Real-process smoke, three acts. One: build mbcollectd, mbagent, mbdump
# and mbtrace, run one agent against a durable, tracing collector over a
# real loopback socket, require that mbtrace -url reads one server.ingest,
# epoch.gate, archive.write and figures.apply span per trace off the
# collector's debug address, shut the collector down with SIGTERM, and
# require that what the agent says it delivered is exactly what the
# archive holds. Two: run mbfleet
# into a durable fleet directory with a shard kill and the oracle on, and
# require that the directory is campaign.json plus its shard stores and
# that mbdump reads back the samples mbfleet logged. Three: mbreplay a
# campaign an older build recorded as MBW1 into a second durable collector
# and require that the archive holds the same samples, as MBW3. A
# correctness check only — no timing gate. Run from anywhere in the
# repository.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PID=
cleanup() {
	[ -z "$PID" ] || kill "$PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "smoke: $*" >&2
	echo "--- mbcollectd log" >&2
	cat "$TMP/collectd.log" >&2 || true
	echo "--- mbagent log" >&2
	cat "$TMP/agent.log" >&2 || true
	echo "--- mbfleet log" >&2
	cat "$TMP/fleet.log" >&2 || true
	echo "--- mbreplay log" >&2
	cat "$TMP/replay.log" >&2 || true
	exit 1
}

# start_collectd DIR [FLAG...]: a durable collector on a port of its own
# choosing; its "listening" log line says which, and that lands in ADDR.
start_collectd() {
	dir=$1
	shift
	# Empty the log first: the background job truncates it only once it
	# runs, and until then the loop below would read the previous
	# collector's address.
	: >"$TMP/collectd.log"
	"$TMP/bin/mbcollectd" -listen 127.0.0.1:0 -archive "$dir" -stats 50ms "$@" 2>"$TMP/collectd.log" &
	PID=$!
	ADDR=
	for _ in $(seq 1 200); do
		ADDR=$(sed -n 's/.*msg=listening .*addr=\([^ ]*\).*/\1/p' "$TMP/collectd.log")
		[ -z "$ADDR" ] || break
		kill -0 "$PID" 2>/dev/null || fail "mbcollectd exited before listening"
		sleep 0.05
	done
	[ -n "$ADDR" ] || fail "mbcollectd never logged its listening address"
}

# await_ingest N: wait for the periodic stats line to show that all N
# samples sent have been read.
await_ingest() {
	for _ in $(seq 1 200); do
		grep -q "msg=ingest .*samples=$1 " "$TMP/collectd.log" && break
		sleep 0.05
	done
	grep -q "msg=ingest .*samples=$1 " "$TMP/collectd.log" || fail "mbcollectd never ingested $1 samples"
}

# stop_collectd N: SIGTERM closes connections where they stand, so first
# let all N samples sent be read.
stop_collectd() {
	await_ingest "$1"
	kill -TERM "$PID"
	CODE=0
	wait "$PID" || CODE=$?
	PID=
	[ "$CODE" -eq 0 ] || fail "mbcollectd exited $CODE on SIGTERM"
	grep -q 'msg=draining' "$TMP/collectd.log" || fail "no draining log line"
	grep -q "msg=final .*samples=$1 " "$TMP/collectd.log" || fail "final log line does not account $1 samples"
}

go build -o "$TMP/bin/" ./cmd/mbcollectd ./cmd/mbagent ./cmd/mbdump ./cmd/mbfleet ./cmd/mbreplay ./cmd/mbtrace

start_collectd "$TMP/arch" -http 127.0.0.1:0 -figures -tracing -tracecap 65536
"$TMP/bin/mbagent" -collector "$ADDR" -dur 200ms 2>"$TMP/agent.log" || fail "mbagent exited $?"
DELIVERED=$(sed -n 's/.*delivered=\([0-9]*\).*/\1/p' "$TMP/agent.log")
[ -n "$DELIVERED" ] && [ "$DELIVERED" -gt 0 ] || fail "mbagent delivered nothing"
await_ingest "$DELIVERED"

# The collector traces every batch it admits, so mbtrace's report off its
# debug address has as many server.ingest, epoch.gate, archive.write and
# figures.apply spans as traces. figures.apply is recorded just after the
# stats line counts a batch, hence the retries.
DEBUG=$(sed -n 's/.*msg="debug http listening" .*url=\(http:[^ ]*\)\/metrics.*/\1/p' "$TMP/collectd.log")
[ -n "$DEBUG" ] || fail "mbcollectd never logged its debug address"
for _ in $(seq 1 100); do
	"$TMP/bin/mbtrace" -url "$DEBUG" -n 1 >"$TMP/tracez.txt" 2>>"$TMP/collectd.log" || fail "mbtrace exited $?"
	COUNTS=$(awk '
		NR == 1 { traces = $3 }
		$2 ~ /^[0-9]+$/ { count[$1] = $2 }
		END { print traces + 0, count["server.ingest"] + 0, count["epoch.gate"] + 0,
			count["archive.write"] + 0, count["figures.apply"] + 0 }' "$TMP/tracez.txt")
	TRACES=${COUNTS%% *}
	[ "$TRACES" -gt 0 ] && [ "$COUNTS" = "$TRACES $TRACES $TRACES $TRACES $TRACES" ] && break
	sleep 0.05
done
[ "$TRACES" -gt 0 ] && [ "$COUNTS" = "$TRACES $TRACES $TRACES $TRACES $TRACES" ] ||
	fail "mbtrace counted traces, server.ingest, epoch.gate, archive.write, figures.apply = $COUNTS: $(cat "$TMP/tracez.txt")"
echo "smoke: ok — $(head -1 "$TMP/tracez.txt"), one ingest, gate, archive and figures span each"
stop_collectd "$DELIVERED"

TOTALS=$("$TMP/bin/mbdump" -in "$TMP/arch" -quiet | grep '^total:')
case "$TOTALS" in
*" $DELIVERED samples"*) ;;
*) fail "archive holds '$TOTALS', agent delivered $DELIVERED samples" ;;
esac
echo "smoke: ok — $DELIVERED samples delivered, archived and read back ($TOTALS)"

# Act two: a sharded campaign as a real process. One shard is killed and
# resumed mid-window; the oracle holds the merged state byte-exact.
"$TMP/bin/mbfleet" -racks 8 -shards 2 -out "$TMP/fleet" -oracle -faults kill@1ms 2>"$TMP/fleet.log" || fail "mbfleet exited $?"
grep -q 'msg="byte-exact against the single-collector oracle"' "$TMP/fleet.log" || fail "mbfleet did not report byte-exactness"
grep -q 'msg="fleet campaign complete" .* kills=1 resumes=1 ' "$TMP/fleet.log" || fail "the scheduled kill did not strike and resume"
SAMPLES=$(sed -n 's/.*msg="fleet campaign complete" .* samples=\([0-9]*\) .*/\1/p' "$TMP/fleet.log")
[ -n "$SAMPLES" ] && [ "$SAMPLES" -gt 0 ] || fail "mbfleet logged no samples"
LAYOUT=$(LC_ALL=C ls "$TMP/fleet" | tr '\n' ' ')
[ "$LAYOUT" = "campaign.json shard_000 shard_001 " ] || fail "fleet directory holds '$LAYOUT', want campaign.json and one store per shard"
TOTALS=$("$TMP/bin/mbdump" -in "$TMP/fleet" -quiet | grep '^total:')
case "$TOTALS" in
*" $SAMPLES samples"*) ;;
*) fail "fleet archives hold '$TOTALS', mbfleet logged $SAMPLES samples" ;;
esac
echo "smoke: ok — fleet of 2 shards, 1 kill: $SAMPLES samples logged, archived and read back ($TOTALS)"

# Act three: a campaign d36859d's mbsim recorded in the MBW1 row framing,
# transcoded end to end by shipped binaries. mbreplay streams it into a
# durable collector; the archive must hold what the fixture holds, as MBW3.
LEGACY=cmd/mbreplay/testdata/trace_v1_parent
[ "$(head -c4 "$LEGACY/seg_000001.mbw")" = MBW1 ] || fail "$LEGACY is not an MBW1 recording"
WANT=$("$TMP/bin/mbdump" -in "$LEGACY" -quiet | grep '^total:' | sed 's/, virtual span.*//')
REPLAYED=$(echo "$WANT" | sed -n 's/.* \([0-9]*\) samples.*/\1/p')
[ -n "$REPLAYED" ] && [ "$REPLAYED" -gt 0 ] || fail "mbdump totals '$WANT' for $LEGACY"
start_collectd "$TMP/transcoded"
"$TMP/bin/mbreplay" -trace "$LEGACY" -collector "$ADDR" -unpaced >"$TMP/replay.log" 2>&1 || fail "mbreplay exited $?"
stop_collectd "$REPLAYED"
TOTALS=$("$TMP/bin/mbdump" -in "$TMP/transcoded" -quiet | grep '^total:')
case "$TOTALS" in
"$WANT"*) ;;
*) fail "transcoded archive holds '$TOTALS', the fixture '$WANT'" ;;
esac
[ "$(head -c4 "$TMP/transcoded/seg_000001.mbw")" = MBW3 ] || fail "transcoded archive's first segment is not MBW3"
echo "smoke: ok — MBW1 recording replayed into an MBW3 archive ($TOTALS)"
