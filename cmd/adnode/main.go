// Command adnode runs one live protocol node over UDP, or a self-contained
// loopback demo cluster.
//
// Daemon mode — one node per process. With -beacon the node discovers its
// peers itself: point it at one bootstrap contact and HELLO beacons grow
// and maintain the membership (dead neighbors age out after -ttl):
//
//	adnode -listen 127.0.0.1:7001 -id 1 -beacon 2s -seeds 127.0.0.1:7000
//	adnode ... -issue "Unleaded \$1.45/L" -R 500 -D 180   # also issues an ad
//
// Without -beacon the peer set is static, listed up front:
//
//	adnode -listen 127.0.0.1:7001 -peers 127.0.0.1:7002,127.0.0.1:7003
//
// Wire layer: every ad travels in batch frames — an issued ad as a batch of
// one, each gossip round's firing ads coalesced under an MTU-aware soft cap
// (-batch-cap, 512–65507 bytes). With -digest N the node also sends its cached ad-ID
// digest every N rounds and answers pull requests for missing IDs, with a
// per-peer serve block window (-block) and an optional per-round byte
// budget (-round-bytes) rate-limiting hot neighborhoods.
//
// Observability: every -stats interval the daemon prints a one-line JSON
// snapshot of its counters, per-peer send health and neighbor table, and it
// prints a final snapshot on SIGINT/SIGTERM. With -http the same snapshot
// is served under the "adnode" key of the expvar document at /debug/vars,
// and the node's instrument registry in the Prometheus text format at
// /metrics. With -events the node's trace streams to a JSONL file in the
// simulator's trace schema — its protocol events (issue, broadcast,
// receive, duplicate, expire, evict) and its membership events (peer,
// neighbor and backoff transitions) — which adtrace -summarize and -analyze
// read.
//
// Demo mode — a five-node chain on loopback in one process, showing a real
// multi-hop delivery end to end:
//
//	adnode -demo
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"instantad/internal/cli"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node"
	"instantad/internal/node/discovery"
	"instantad/internal/obs"
	"instantad/internal/trace"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is adnode on the given arguments and streams: the demo, or the daemon
// until ctx is done. It returns the exit code: 2 for a bad invocation (flags
// or the node and ad they make), 1 for a failure while running, a trace that
// could not be written included.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("adnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		demo      = fs.Bool("demo", false, "run a five-node loopback demo and exit")
		id        = fs.Uint("id", 1, "node identity")
		listen    = fs.String("listen", "127.0.0.1:0", "UDP listen address")
		peers     = fs.String("peers", "", "comma-separated static peer addresses")
		beacon    = fs.Duration("beacon", 0, "HELLO beacon interval (0 = static peers only)")
		ttl       = fs.Duration("ttl", 0, "neighbor TTL (default 3×beacon interval)")
		seeds     = fs.String("seeds", "", "comma-separated bootstrap contacts for discovery")
		advertise = fs.String("advertise", "", "address put in beacons (default: bound address; set when binding a wildcard)")
		x         = fs.Float64("x", 0, "virtual position x, meters")
		y         = fs.Float64("y", 0, "virtual position y, meters")
		rng       = fs.Float64("range", 250, "virtual radio range, meters (0 = overlay)")
		alpha     = fs.Float64("alpha", 0.5, "probability parameter α")
		beta      = fs.Float64("beta", 0.5, "decay parameter β")
		round     = fs.Duration("round", 5*time.Second, "gossip round Δt")
		cacheK    = fs.Int("cache", 10, "cache capacity")
		dis       = fs.Float64("dis", 0, "annulus width (enables mechanism 1)")
		opt2      = fs.Bool("opt2", true, "enable overhearing postponement")
		batchCap  = fs.Int("batch-cap", 0, "batch frame soft cap, bytes, 512-65507 (0 = 1400 default)")
		digest    = fs.Int("digest", 0, "send a cache digest every N gossip rounds (0 = off)")
		block     = fs.Duration("block", 0, "per-peer serve block window after answering a pull (default 4×round when digests are on)")
		roundB    = fs.Int("round-bytes", 0, "per-round byte budget for batches, digests and pull serves (0 = unlimited)")
		issue     = fs.String("issue", "", "issue an ad with this text after startup")
		adR       = fs.Float64("R", 500, "issued ad radius, m")
		adD       = fs.Float64("D", 180, "issued ad duration, s")
		adCat     = fs.String("category", "petrol", "issued ad category")
		statsInt  = fs.Duration("stats", 10*time.Second, "interval between JSON stats snapshots (0 = quiet)")
		httpAddr  = fs.String("http", "", "serve expvar at /debug/vars and Prometheus text at /metrics on this address (e.g. 127.0.0.1:8500)")
		eventsOut = fs.String("events", "", "write the node's event trace (JSONL, adtrace's schema) to this file")
		verbose   = fs.Bool("v", false, "log protocol events")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "adnode: %v\n", err)
		return code
	}
	if *demo {
		if err := runDemo(stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}

	cfg := node.Config{
		ID:             uint32(*id),
		ListenAddr:     *listen,
		Range:          *rng,
		Position:       node.StaticPosition(geo.Point{X: *x, Y: *y}),
		Alpha:          *alpha,
		Beta:           *beta,
		RoundTime:      *round,
		CacheK:         *cacheK,
		DIS:            *dis,
		Opt2:           *opt2,
		Seed:           uint64(*id),
		BeaconInterval: *beacon,
		NeighborTTL:    *ttl,
		AdvertiseAddr:  *advertise,
		BatchSoftCap:   *batchCap,
		DigestEvery:    *digest,
		BlockWindow:    *block,
		RoundBytes:     *roundB,
		Peers:          cli.Strings(*peers),
		Seeds:          cli.Strings(*seeds),
	}
	if *httpAddr != "" {
		cfg.Registry = obs.NewRegistry() // served at /metrics
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "node: "+format+"\n", args...)
		}
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		events := trace.NewRecorder(f, nil)
		cfg.Events = events
		defer func() {
			if err := events.Flush(); err != nil && code == 0 {
				code = fail(1, fmt.Errorf("events: %w", err))
			}
		}()
	}
	n, err := node.New(cfg)
	if err != nil {
		var opErr *net.OpError // a socket that will not bind; else a bad config
		if errors.As(err, &opErr) {
			return fail(1, err)
		}
		return fail(2, err)
	}
	defer n.Close()
	n.Start()
	fmt.Fprintf(stdout, "node %d listening on %s at (%.0f, %.0f), range %.0f m\n",
		*id, n.Addr(), *x, *y, *rng)
	if *beacon > 0 {
		fmt.Fprintf(stdout, "discovery on: beaconing every %v, neighbor TTL %v, %d seed(s)\n",
			*beacon, *ttl, len(cfg.Seeds))
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail(1, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", n.Registry().Handler())
		mux.HandleFunc("/debug/vars", debugVars(n, uint32(*id)))
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Fprintf(stdout, "expvar stats at http://%s/debug/vars, Prometheus text at http://%s/metrics\n",
			ln.Addr(), ln.Addr())
	}

	if *issue != "" {
		ad, err := n.Issue(core.AdSpec{R: *adR, D: *adD, Category: *adCat, Text: *issue})
		if err != nil {
			return fail(2, err)
		}
		fmt.Fprintf(stdout, "issued %v: %q (R=%.0f m, D=%.0f s)\n", ad.ID, ad.Text, ad.R, ad.D)
	}

	var tick <-chan time.Time
	if *statsInt > 0 {
		ticker := time.NewTicker(*statsInt)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-ctx.Done():
			dumpStats(stdout, stderr, n, uint32(*id))
			return 0
		case <-tick:
			dumpStats(stdout, stderr, n, uint32(*id))
		}
	}
}

// snapshot is the JSON observability surface: the node's counters plus
// per-peer send health and the discovery neighbor table, stamped with
// identity and time.
type snapshot struct {
	Node      uint32               `json:"node"`
	Addr      string               `json:"addr"`
	Time      string               `json:"time"`
	Cached    int                  `json:"cached"`
	Stats     node.Stats           `json:"stats"`
	Peers     []node.PeerHealth    `json:"peers"`
	Neighbors []discovery.Neighbor `json:"neighbors,omitempty"`
}

func snapshotOf(n *node.Node, id uint32) snapshot {
	return snapshot{
		Node:      id,
		Addr:      n.Addr(),
		Time:      time.Now().UTC().Format(time.RFC3339),
		Cached:    len(n.Cached()),
		Stats:     n.Stats(),
		Peers:     n.Peers(),
		Neighbors: n.Neighbors(),
	}
}

func dumpStats(stdout, stderr io.Writer, n *node.Node, id uint32) {
	out, err := json.Marshal(snapshotOf(n, id))
	if err != nil {
		fmt.Fprintf(stderr, "adnode: stats: %v\n", err)
		return
	}
	fmt.Fprintln(stdout, string(out))
}

// debugVars serves expvar's /debug/vars document with the node's snapshot
// added under "adnode". It reads expvar's process-wide variables but
// publishes none, so one process can run several nodes.
func debugVars(n *node.Node, id uint32) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		vars := map[string]any{"adnode": snapshotOf(n, id)}
		expvar.Do(func(kv expvar.KeyValue) { vars[kv.Key] = json.RawMessage(kv.Value.String()) })
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(vars)
	}
}

// runDemo spins a five-node chain, issues an ad at one end and reports when
// the far end receives it over real UDP hops.
func runDemo(stdout io.Writer) error {
	const spacing = 200.0 // meters between chain neighbors; range 250 m
	fmt.Fprintln(stdout, "five-node chain on loopback, 200 m spacing, 250 m radio range")
	cluster, err := node.NewCluster(node.ChainConfigs(5, spacing, 250, 100*time.Millisecond))
	if err != nil {
		return err
	}
	defer cluster.Close()
	cluster.Start()
	nodes := cluster.Nodes
	for i, n := range nodes {
		fmt.Fprintf(stdout, "  node %d at x=%4.0f  %s\n", i, float64(i)*spacing, n.Addr())
	}

	start := time.Now()
	ad, err := nodes[0].Issue(core.AdSpec{
		R: 1200, D: 30, Category: "grocery",
		Text: "Fresh fruit 20% off until 6pm",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nnode 0 issued %v: %q\n", ad.ID, ad.Text)

	deadline := time.Now().Add(10 * time.Second)
	reached := make([]bool, len(nodes))
	reached[0] = true
	for time.Now().Before(deadline) {
		all := true
		for i, n := range nodes {
			if !reached[i] && n.Has(ad.ID) {
				reached[i] = true
				fmt.Fprintf(stdout, "node %d received after %v (≥%d hops)\n",
					i, time.Since(start).Round(time.Millisecond), i)
			}
			all = all && reached[i]
		}
		if all {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintf(stdout, "\ntotal datagrams sent: %d\n", cluster.TotalStats().Sent)
	for i, ok := range reached {
		if !ok {
			return fmt.Errorf("node %d never received the ad", i)
		}
	}
	fmt.Fprintln(stdout, "every node along the chain received the ad — multi-hop gossip over real sockets.")
	return nil
}
