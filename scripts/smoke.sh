#!/bin/sh
# Real-process smoke, two acts. One: build mbcollectd, mbagent and mbdump,
# run one agent against a durable collector over a real loopback socket,
# shut the collector down with SIGTERM, and require that what the agent
# says it delivered is exactly what the archive holds. Two: run mbfleet
# into a durable fleet directory with a shard kill and the oracle on, and
# require that the directory is campaign.json plus its shard stores and
# that mbdump reads back the samples mbfleet logged. A correctness check
# only — no timing gate. Run from anywhere in the repository.
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
	exit 1
}

go build -o "$TMP/bin/" ./cmd/mbcollectd ./cmd/mbagent ./cmd/mbdump ./cmd/mbfleet

"$TMP/bin/mbcollectd" -listen 127.0.0.1:0 -archive "$TMP/arch" -stats 50ms 2>"$TMP/collectd.log" &
PID=$!

# The daemon picked its own port; its "listening" log line says which.
ADDR=
for _ in $(seq 1 200); do
	ADDR=$(sed -n 's/.*msg=listening .*addr=\([^ ]*\).*/\1/p' "$TMP/collectd.log")
	[ -z "$ADDR" ] || break
	kill -0 "$PID" 2>/dev/null || fail "mbcollectd exited before listening"
	sleep 0.05
done
[ -n "$ADDR" ] || fail "mbcollectd never logged its listening address"

"$TMP/bin/mbagent" -collector "$ADDR" -dur 200ms 2>"$TMP/agent.log" || fail "mbagent exited $?"
DELIVERED=$(sed -n 's/.*delivered=\([0-9]*\).*/\1/p' "$TMP/agent.log")
[ -n "$DELIVERED" ] && [ "$DELIVERED" -gt 0 ] || fail "mbagent delivered nothing"

# SIGTERM closes connections where they stand, so first let the periodic
# stats line show that everything the agent sent has been read.
for _ in $(seq 1 200); do
	grep -q "msg=ingest .*samples=$DELIVERED " "$TMP/collectd.log" && break
	sleep 0.05
done
grep -q "msg=ingest .*samples=$DELIVERED " "$TMP/collectd.log" || fail "mbcollectd never ingested $DELIVERED samples"

kill -TERM "$PID"
CODE=0
wait "$PID" || CODE=$?
PID=
[ "$CODE" -eq 0 ] || fail "mbcollectd exited $CODE on SIGTERM"
grep -q 'msg=draining' "$TMP/collectd.log" || fail "no draining log line"
grep -q "msg=final .*samples=$DELIVERED " "$TMP/collectd.log" || fail "final log line does not account $DELIVERED samples"

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
