#!/usr/bin/env bash
# Daemon smoke test: boots dnsmonitord as fleet shard s0 and dnsfleetd
# over it on loopback, reads the five shared routes from both, checks
# that an oversized POST /add answers 413 on each, then sends SIGTERM
# and requires both processes to exit 0. Needs go and curl.
#
#   bash scripts/daemon-smoke.sh
#
# MON_ADDR and FLEET_ADDR override the listen addresses.
set -euo pipefail

mon="${MON_ADDR:-127.0.0.1:18153}"
fleet="${FLEET_ADDR:-127.0.0.1:18163}"
work="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "daemon-smoke: $*" >&2
	for f in "$work"/*.log; do echo "--- $f" >&2; tail -n 20 "$f" >&2; done
	exit 1
}

wait_up() {
	for _ in $(seq 240); do
		curl -fsS -o /dev/null "http://$1/summary" 2>/dev/null && return 0
		sleep 0.5
	done
	fail "$1 never came up"
}

go build -o "$work/" ./cmd/dnsmonitord ./cmd/dnsfleetd

"$work/dnsmonitord" -addr "$mon" -names 300 -shard-name s0 >"$work/monitor.log" 2>&1 &
mon_pid=$!
pids+=("$mon_pid")
wait_up "$mon"
"$work/dnsfleetd" -addr "$fleet" -shards "s0=http://$mon" -interval 2s >"$work/fleet.log" 2>&1 &
fleet_pid=$!
pids+=("$fleet_pid")
wait_up "$fleet"

name=www.site0.com # always in the seed-1 corpus
head -c $((16 * 1024 * 1024 + 1)) /dev/zero | tr '\0' 'a' >"$work/oversized"
for base in "$mon" "$fleet"; do
	for route in /summary "/tcb?name=$name" "/bottleneck?name=$name" /generations /diff; do
		code="$(curl -sS -o "$work/body" -w '%{http_code}' "http://$base$route")"
		[ "$code" = 200 ] || fail "GET $base$route = $code: $(cat "$work/body")"
	done
	code="$(curl -sS -o /dev/null -w '%{http_code}' -H 'Expect:' --data-binary @"$work/oversized" "http://$base/add" || true)"
	[ "$code" = 413 ] || fail "POST $base/add of 16 MiB + 1 byte = $code, want 413"
done

for pid in "$fleet_pid" "$mon_pid"; do
	kill -TERM "$pid"
	status=0
	wait "$pid" || status=$?
	[ "$status" = 0 ] || fail "pid $pid exited $status after SIGTERM, want 0"
done
pids=()
echo "daemon-smoke: ok (shared routes on both daemons, 413 on oversized /add, clean SIGTERM exits)"
