#!/bin/sh
# metrics_smoke.sh — boot a live adnode with discovery on, scrape its
# /metrics endpoint, and fail when the Prometheus exposition does not parse
# or lacks the core node/discovery families. promcheck retries the scrape
# until the listener is up, so no sleep choreography is needed. The node
# issues one ad and writes its event trace; after SIGTERM, adtrace must
# summarize that trace with its issue and receive events.
#
# Usage: scripts/metrics_smoke.sh [port]   (default 8521)
set -eu

cd "$(dirname "$0")/.."
PORT="${1:-8521}"
BIN="$(mktemp -d)"
trap 'kill "$NODE" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/adnode" ./cmd/adnode
go build -o "$BIN/promcheck" ./cmd/promcheck
go build -o "$BIN/adtrace" ./cmd/adtrace

"$BIN/adnode" -listen 127.0.0.1:0 -beacon 250ms -stats 0 \
    -http "127.0.0.1:$PORT" -events "$BIN/ev.jsonl" -issue smoke &
NODE=$!

"$BIN/promcheck" -url "http://127.0.0.1:$PORT/metrics" -timeout 20s -require \
    node_sent_total:counter,node_received_total:counter,node_peers_live:gauge,node_seen_live:gauge,node_send_latency_seconds:histogram,node_receive_latency_seconds:histogram,discovery_neighbors:gauge,discovery_neighbors_new_total:counter,discovery_beacon_interarrival_seconds:histogram

echo "metrics smoke: ok"

# The trace flushes when the node stops; a failed flush is a non-zero exit.
kill -TERM "$NODE"
wait "$NODE"
"$BIN/adtrace" -summarize "$BIN/ev.jsonl" > "$BIN/ev_summary.txt"
for kind in issue receive; do
    grep -q "^  $kind " "$BIN/ev_summary.txt" || {
        echo "event trace smoke: no $kind events in the node's trace" >&2
        cat "$BIN/ev_summary.txt" >&2
        exit 1
    }
done

echo "event trace smoke: ok"

# Simulation-registry half: run a small road+RSU scenario and check its
# snapshot carries the urban VANET instruments alongside the core families.
go build -o "$BIN/adsim" ./cmd/adsim
"$BIN/adsim" -mobility road -peers 60 -sim-time 300 -rsu 4 \
    -metrics-out "$BIN/road_snapshot.json" > /dev/null
for name in sim_rsu_syncs_total sim_rsu_deliveries_total sim_rsus \
    sim_road_coverage sim_road_edges sim_road_peers; do
    grep -q "\"$name\"" "$BIN/road_snapshot.json" || {
        echo "road metrics smoke: $name missing from adsim snapshot" >&2
        exit 1
    }
done

echo "road metrics smoke: ok"
