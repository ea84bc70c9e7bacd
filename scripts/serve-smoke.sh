#!/bin/sh
# End-to-end smoke test of the network front end: build montage-serve
# and montage-load, start a loopback server on a kernel-picked port,
# run a short load burst in each durability-ack mode (montage-load
# exits nonzero if no operations were acknowledged), then check a
# clean SIGTERM drain with a saved pool image. Last, restart the server
# on that image asking for two shards: the image's own shard count must
# win, and every key the bursts wrote must come back.
set -e

GO=${GO:-go}
tmp=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill "$spid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/montage-serve" ./cmd/montage-serve
$GO build -o "$tmp/montage-load" ./cmd/montage-load

"$tmp/montage-serve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
	-pool "$tmp/pool.img" -epoch 1ms -max-conns 16 \
	>"$tmp/serve.log" 2>&1 &
spid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "serve-smoke: server did not bind" >&2
		cat "$tmp/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(head -n 1 "$tmp/addr")

for mode in buffered sync epoch-wait; do
	"$tmp/montage-load" -addr "$addr" -conns 4 -duration 1s \
		-records 1000 -pipeline 8 -mode "$mode"
done

kill -TERM "$spid"
if ! wait "$spid"; then
	echo "serve-smoke: server exited uncleanly" >&2
	cat "$tmp/serve.log" >&2
	exit 1
fi
spid=""
grep -q "pool saved" "$tmp/serve.log" || {
	echo "serve-smoke: pool was not saved on drain" >&2
	cat "$tmp/serve.log" >&2
	exit 1
}

"$tmp/montage-serve" -addr 127.0.0.1:0 -pool "$tmp/pool.img" -shards 2 \
	>"$tmp/reopen.log" 2>&1 &
spid=$!
i=0
until grep -q "listening on" "$tmp/reopen.log"; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "serve-smoke: reopened server did not bind" >&2
		cat "$tmp/reopen.log" >&2
		exit 1
	fi
	sleep 0.1
done
kill -TERM "$spid"
wait "$spid" || true
spid=""
grep "listening on" "$tmp/reopen.log" | grep -q "shards=1 items=1000 " || {
	echo "serve-smoke: reopened image should report shards=1 items=1000" >&2
	cat "$tmp/reopen.log" >&2
	exit 1
}
echo "serve-smoke: OK"
