#!/bin/sh
# Real-process smoke: build mbcollectd, mbagent and mbdump, run one agent
# against a durable collector over a real loopback socket, shut the
# collector down with SIGTERM, and require that what the agent says it
# delivered is exactly what the archive holds. A correctness check only —
# no timing gate. Run from anywhere in the repository.
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
	exit 1
}

go build -o "$TMP/bin/" ./cmd/mbcollectd ./cmd/mbagent ./cmd/mbdump

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
