#!/bin/sh
# controlplane_smoke.sh — end-to-end smoke for the campaignd control plane:
# boot the daemon against a 50-node live fleet, create a campaign over the
# versioned HTTP API, poll status until probe deliveries are observed, check
# the /metrics families with promcheck, then SIGTERM the daemon and assert
# the drain left a valid versioned checkpoint on disk.
#
# Usage: scripts/controlplane_smoke.sh [port]   (default 8531)
set -eu

cd "$(dirname "$0")/.."
PORT="${1:-8531}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)"
trap 'kill "$CPD" 2>/dev/null || true; rm -rf "$BIN" 2>/dev/null || true' EXIT

go build -o "$BIN/campaignd" ./cmd/campaignd
go build -o "$BIN/promcheck" ./cmd/promcheck

"$BIN/campaignd" -listen "127.0.0.1:$PORT" -nodes 50 -round 100ms \
    -checkpoint "$BIN/ck.json" -checkpoint-every 1s &
CPD=$!

# Wait for the listener (the fleet boots before the HTTP server binds).
i=0
until curl -fsS "$BASE/healthz" > /dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "campaignd never came up" >&2; exit 1; }
    sleep 0.2
done

# Create a campaign and insist on 201.
CODE="$(curl -s -o "$BIN/create.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' \
    -d '{"name":"smoke","area":{"x":400,"y":400,"radius":500},"duration_s":60,"category":"food","rate_per_min":60,"window_s":30}' \
    "$BASE/v1/campaigns")"
[ "$CODE" = "201" ] || {
    echo "create returned $CODE: $(cat "$BIN/create.json")" >&2
    exit 1
}
grep -q '"id": *"c-1"' "$BIN/create.json" || {
    echo "create body lacks c-1: $(cat "$BIN/create.json")" >&2
    exit 1
}

# Poll status until the live fleet delivers to probes.
i=0
until curl -fsS "$BASE/v1/campaigns/c-1/status" | grep -q '"delivered": *[1-9]'; do
    i=$((i + 1))
    [ "$i" -le 60 ] || {
        echo "no probe delivery observed; last status:" >&2
        curl -fsS "$BASE/v1/campaigns/c-1/status" >&2 || true
        exit 1
    }
    sleep 0.5
done

# The metrics surface carries the control-plane and fleet families, and the
# fleet's node_* totals as counters.
"$BIN/promcheck" -url "$BASE/metrics" -timeout 20s -require \
    campaignd_campaigns_created_total:counter,campaignd_ads_injected_total:counter,campaignd_delivery_seconds:histogram,campaignd_live_ads:gauge,fleet_nodes:gauge,node_budget_deferred_total:counter,node_sent_total:counter

# Drain: SIGTERM must stop the API and write a final checkpoint.
kill -TERM "$CPD"
wait "$CPD" || true
CPD=""

[ -s "$BIN/ck.json" ] || { echo "no checkpoint written on drain" >&2; exit 1; }
grep -q '"version": *1' "$BIN/ck.json" || {
    echo "checkpoint is not version 1" >&2
    exit 1
}
grep -q '"id": *"c-1"' "$BIN/ck.json" || {
    echo "checkpoint lost campaign c-1" >&2
    exit 1
}

echo "control plane smoke: ok"
