#!/bin/sh
# metrics_smoke.sh — boot a live adnode with discovery on, scrape its
# /metrics endpoint, and fail when the Prometheus exposition does not parse
# or lacks the core node/discovery families. promcheck retries the scrape
# until the listener is up, so no sleep choreography is needed. The node
# issues one ad and writes its event trace; after SIGTERM, adtrace must
# summarize that trace with its issue and receive events. A second adnode
# seeded with the first one's UDP address beacons to it, and the first one's
# /metrics must show those datagrams received and the second node as a
# neighbor within 20 s.
#
# Usage: scripts/metrics_smoke.sh [http-port [udp-port]]   (default 8521 7521)
set -eu

cd "$(dirname "$0")/.."
PORT="${1:-8521}"
UDP="${2:-7521}"
BIN="$(mktemp -d)"
NODE=""
PEER=""
trap 'kill $NODE $PEER 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/adnode" ./cmd/adnode
go build -o "$BIN/promcheck" ./cmd/promcheck
go build -o "$BIN/adtrace" ./cmd/adtrace

"$BIN/adnode" -listen "127.0.0.1:$UDP" -beacon 250ms -stats 0 \
    -http "127.0.0.1:$PORT" -events "$BIN/ev.jsonl" -issue smoke &
NODE=$!

"$BIN/promcheck" -url "http://127.0.0.1:$PORT/metrics" -timeout 20s -require \
    node_sent_total:counter,node_received_total:counter,node_peers_live:gauge,node_seen_live:gauge,node_send_latency_seconds:histogram,node_receive_latency_seconds:histogram,discovery_neighbors:gauge,discovery_neighbors_new_total:counter,discovery_beacon_interarrival_seconds:histogram

echo "metrics smoke: ok"

# A real datagram over UDP: the second node's beacons reach the first.
"$BIN/adnode" -listen 127.0.0.1:0 -id 2 -beacon 250ms -stats 0 \
    -seeds "127.0.0.1:$UDP" > /dev/null &
PEER=$!
metric() { # metric NAME: its value in the first node's exposition, or empty
    curl -fsS --max-time 2 "http://127.0.0.1:$PORT/metrics" 2>/dev/null |
        awk -v m="$1" '$1 == m { print $2 }'
}
end=$(($(date +%s) + 20))
until [ "$(date +%s)" -ge "$end" ]; do
    recv="$(metric node_beacons_recv_total)"
    nbrs="$(metric discovery_neighbors)"
    if awk -v r="${recv:-0}" -v n="${nbrs:-0}" 'BEGIN { exit !(r > 0 && n >= 1) }'; then
        break
    fi
    sleep 0.5
done
awk -v r="${recv:-0}" -v n="${nbrs:-0}" 'BEGIN { exit !(r > 0 && n >= 1) }' || {
    echo "udp smoke: after 20 s node_beacons_recv_total=${recv:-none} discovery_neighbors=${nbrs:-none}" >&2
    exit 1
}
kill "$PEER"
wait "$PEER" 2>/dev/null || true
PEER=""

echo "udp smoke: ok (node_beacons_recv_total=$recv, discovery_neighbors=$nbrs)"

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
