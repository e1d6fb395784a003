#!/bin/sh
# bench.sh — run the hot-path microbenchmarks plus the end-to-end Fig. 7
# N=1000 sweep and write the results to BENCH_hotpath.json at the repo root,
# then the live-node wire-layer soak (datagram/byte bill per delivered ad,
# digest hit rate, mean ads per batch) to BENCH_node.json,
# then the async pairwise spread comparison
# (broadcast gossip vs Async k=1..3: delivery, messages, spread time) to
# BENCH_async.json, then the control-plane ingest soak (live fleet at
# N=10^3/10^4 under offered loads of 2 and 16 ads/s through the admission
# gate: ingest throughput, rejection rate, delivery p99 vs the 10 s ad
# lifetime) to BENCH_campaign.json.
#
# Usage:
#   scripts/bench.sh            # default: -benchtime 2s micro, 3x end-to-end
#   BENCHTIME=5s scripts/bench.sh
#
# The JSON schema is one object per benchmark:
#   {"name": ..., "ns_per_op": ..., "bytes_per_op": ..., "allocs_per_op": ...}
# (end-to-end entries omit the allocation columns — the harness does not
# report them for sub-benchmarks that emit custom metrics only.) The other
# files add "ncpu", so the numbers name the host they came from.
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${BENCHTIME:-2s}"
OUT="BENCH_hotpath.json"
NODEOUT="BENCH_node.json"
ASYNCOUT="BENCH_async.json"
CAMPOUT="BENCH_campaign.json"
TMP="$(mktemp)"
NODETMP="$(mktemp)"
ASYNCTMP="$(mktemp)"
CAMPTMP="$(mktemp)"
trap 'rm -f "$TMP" "$NODETMP" "$ASYNCTMP" "$CAMPTMP"' EXIT

echo "==> micro: internal/radio + internal/sim (-benchtime $BENCHTIME)" >&2
go test -run '^$' -bench 'BenchmarkBroadcastDense$|BenchmarkBroadcastDenseCollisions$|BenchmarkNodesWithin' \
    -benchtime "$BENCHTIME" ./internal/radio/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkSimScheduleCancel$|BenchmarkSimScheduleDispatch$|BenchmarkTicker$' \
    -benchtime "$BENCHTIME" ./internal/sim/ | tee -a "$TMP" >&2

echo "==> end-to-end: BenchmarkFig7NetworkSize N=1000 (-benchtime 3x)" >&2
go test -run '^$' -bench 'BenchmarkFig7NetworkSize/.*/N=1000$' -benchtime 3x . | tee -a "$TMP" >&2

awk '
BEGIN { print "[" ; n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) print ","
    line = "  {\"name\": \"" name "\", \"ns_per_op\": " ns
    if (bytes != "")  line = line ", \"bytes_per_op\": " bytes
    if (allocs != "") line = line ", \"allocs_per_op\": " allocs
    printf "%s}", line
}
END { print "\n]" }
' "$TMP" > "$OUT"

echo "==> wrote $OUT" >&2

NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"

echo "==> live-node wire layer: BenchmarkMemnetSoak (-benchtime 1x)" >&2
go test -run '^$' -bench 'BenchmarkMemnetSoak' -benchtime 1x ./internal/node/ | tee "$NODETMP" >&2

awk -v ncpu="$NCPU" '
BEGIN { print "{" ; print "  \"ncpu\": " ncpu "," ; print "  \"runs\": [" ; n = 0 }
/^BenchmarkMemnetSoak/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; dpa = ""; bpa = ""; hit = ""; apb = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")        ns  = $i
        if ($(i+1) == "datagrams/ad") dpa = $i
        if ($(i+1) == "bytes/ad")     bpa = $i
        if ($(i+1) == "hitrate")      hit = $i
        if ($(i+1) == "ads/batch")    apb = $i
    }
    if (ns == "") next
    if (n++) print ","
    line = "    {\"name\": \"" name "\", \"ns_per_op\": " ns
    if (dpa != "") line = line ", \"datagrams_per_ad\": " dpa
    if (bpa != "") line = line ", \"bytes_per_ad\": " bpa
    if (hit != "") line = line ", \"digest_hit_rate\": " hit
    if (apb != "") line = line ", \"ads_per_batch\": " apb
    printf "%s}", line
}
END { print "\n  ]" ; print "}" }
' "$NODETMP" > "$NODEOUT"

echo "==> wrote $NODEOUT" >&2

echo "==> async pairwise family: BenchmarkAsyncSpread gossip vs k=1..3 (-benchtime 3x)" >&2
go test -run '^$' -bench 'BenchmarkAsyncSpread' -benchtime 3x . | tee "$ASYNCTMP" >&2

awk -v ncpu="$NCPU" '
BEGIN { print "{" ; print "  \"ncpu\": " ncpu "," ; print "  \"runs\": [" ; n = 0 }
/^BenchmarkAsyncSpread/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; rate = ""; msgs = ""; dtime = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      ns    = $i
        if ($(i+1) == "delivery_%") rate  = $i
        if ($(i+1) == "messages")   msgs  = $i
        if ($(i+1) == "delivery_s") dtime = $i
    }
    if (ns == "") next
    if (name ~ /Gossiping$/ && msgs != "") gmsgs = msgs
    if (n++) print ","
    line = "    {\"name\": \"" name "\", \"ns_per_op\": " ns
    if (rate != "")  line = line ", \"delivery_pct\": " rate
    if (dtime != "") line = line ", \"delivery_s\": " dtime
    if (msgs != "") {
        line = line ", \"messages\": " msgs
        if (gmsgs != "" && name !~ /Gossiping$/ && gmsgs + 0 > 0)
            line = line sprintf(", \"msgs_vs_gossip\": %.3f", msgs / gmsgs)
    }
    printf "%s}", line
}
END { print "\n  ]" ; print "}" }
' "$ASYNCTMP" > "$ASYNCOUT"

echo "==> wrote $ASYNCOUT" >&2

echo "==> control plane: BenchmarkFleetIngest fleet-size x offered-load (-benchtime 1x)" >&2
go test -run '^$' -bench 'BenchmarkFleetIngest' -benchtime 1x ./internal/campaign/ | tee "$CAMPTMP" >&2

awk -v ncpu="$NCPU" '
BEGIN { print "{" ; print "  \"ncpu\": " ncpu "," ; print "  \"ad_life_s\": 10," ; print "  \"runs\": [" ; n = 0 }
/^BenchmarkFleetIngest/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; rate = ""; rej = ""; p99 = ""; live = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")         ns   = $i
        if ($(i+1) == "ads/s")         rate = $i
        if ($(i+1) == "rejected_rate") rej  = $i
        if ($(i+1) == "p99_s")         p99  = $i
        if ($(i+1) == "live_ads")      live = $i
    }
    if (ns == "") next
    if (n++) print ","
    line = "    {\"name\": \"" name "\", \"ns_per_op\": " ns
    if (rate != "") line = line ", \"ads_ingested_per_s\": " rate
    if (rej != "")  line = line ", \"rejected_rate\": " rej
    if (p99 != "")  line = line ", \"delivery_p99_s\": " p99
    if (live != "") line = line ", \"live_ads\": " live
    if (p99 != "")  line = line sprintf(", \"p99_over_life\": %.4f", p99 / 10)
    printf "%s}", line
}
END { print "\n  ]" ; print "}" }
' "$CAMPTMP" > "$CAMPOUT"

echo "==> wrote $CAMPOUT" >&2
