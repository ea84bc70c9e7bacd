#!/bin/sh
# Connection-scale smoke test: build montage-serve and montage-load,
# start a loopback server sized for thousands of connections, and run a
# 1k-connection burst (buffered, then epoch-wait). This exercises the
# pieces a 4-connection burst never touches — the ramped dialer, the
# reactor's surplus workers under churn, the scaled-down per-connection
# buffers, and the capped recorder — and montage-load exits nonzero if
# no operations were acknowledged.
set -e

GO=${GO:-go}
CONNS=${CONNS:-1000}
tmp=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill "$spid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

# Each in-process connection costs two descriptors (server + client
# side); make sure the soft limit leaves room, or skip rather than fail
# on a constrained host.
need=$((CONNS * 2 + 512))
limit=$(ulimit -n)
if [ "$limit" != "unlimited" ] && [ "$limit" -lt "$need" ]; then
	if ! ulimit -n "$need" 2>/dev/null; then
		echo "conns-smoke: SKIP (fd limit $limit < $need)" >&2
		exit 0
	fi
fi

$GO build -o "$tmp/montage-serve" ./cmd/montage-serve
$GO build -o "$tmp/montage-load" ./cmd/montage-load

"$tmp/montage-serve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
	-pool "$tmp/pool.img" -epoch 1ms -max-conns $((CONNS + 64)) \
	>"$tmp/serve.log" 2>&1 &
spid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "conns-smoke: server did not bind" >&2
		cat "$tmp/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(head -n 1 "$tmp/addr")

for mode in buffered epoch-wait; do
	"$tmp/montage-load" -addr "$addr" -conns "$CONNS" -duration 2s \
		-records 10000 -pipeline 8 -mode "$mode"
done

kill -TERM "$spid"
if ! wait "$spid"; then
	echo "conns-smoke: server exited uncleanly" >&2
	cat "$tmp/serve.log" >&2
	exit 1
fi
spid=""
echo "conns-smoke: OK"
