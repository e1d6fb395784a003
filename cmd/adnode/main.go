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
// is published at /debug/vars via expvar and the node's instrument registry
// is served in the Prometheus text format at /metrics. With -events the
// node's lifecycle trace (peer/neighbor/backoff transitions) streams to a
// JSONL file.
//
// Demo mode — a five-node chain on loopback in one process, showing a real
// multi-hop delivery end to end:
//
//	adnode -demo
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
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
)

func main() {
	var (
		demo      = flag.Bool("demo", false, "run a five-node loopback demo and exit")
		id        = flag.Uint("id", 1, "node identity")
		listen    = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		peers     = flag.String("peers", "", "comma-separated static peer addresses")
		beacon    = flag.Duration("beacon", 0, "HELLO beacon interval (0 = static peers only)")
		ttl       = flag.Duration("ttl", 0, "neighbor TTL (default 3×beacon interval)")
		seeds     = flag.String("seeds", "", "comma-separated bootstrap contacts for discovery")
		advertise = flag.String("advertise", "", "address put in beacons (default: bound address; set when binding a wildcard)")
		x         = flag.Float64("x", 0, "virtual position x, meters")
		y         = flag.Float64("y", 0, "virtual position y, meters")
		rng       = flag.Float64("range", 250, "virtual radio range, meters (0 = overlay)")
		alpha     = flag.Float64("alpha", 0.5, "probability parameter α")
		beta      = flag.Float64("beta", 0.5, "decay parameter β")
		round     = flag.Duration("round", 5*time.Second, "gossip round Δt")
		cacheK    = flag.Int("cache", 10, "cache capacity")
		dis       = flag.Float64("dis", 0, "annulus width (enables mechanism 1)")
		opt2      = flag.Bool("opt2", true, "enable overhearing postponement")
		batchCap  = flag.Int("batch-cap", 0, "batch frame soft cap, bytes, 512-65507 (0 = 1400 default)")
		digest    = flag.Int("digest", 0, "send a cache digest every N gossip rounds (0 = off)")
		block     = flag.Duration("block", 0, "per-peer serve block window after answering a pull (default 4×round when digests are on)")
		roundB    = flag.Int("round-bytes", 0, "per-round byte budget for batches, digests and pull serves (0 = unlimited)")
		issue     = flag.String("issue", "", "issue an ad with this text after startup")
		adR       = flag.Float64("R", 500, "issued ad radius, m")
		adD       = flag.Float64("D", 180, "issued ad duration, s")
		adCat     = flag.String("category", "petrol", "issued ad category")
		statsInt  = flag.Duration("stats", 10*time.Second, "interval between JSON stats snapshots (0 = quiet)")
		httpAddr  = flag.String("http", "", "serve expvar at /debug/vars and Prometheus text at /metrics on this address (e.g. 127.0.0.1:8500)")
		eventsOut = flag.String("events", "", "write the node lifecycle event trace (JSONL) to this file")
		verbose   = flag.Bool("v", false, "log protocol events")
	)
	flag.Parse()

	if *demo {
		runDemo()
		return
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
	}
	cfg.Peers = cli.Strings(*peers)
	cfg.Seeds = cli.Strings(*seeds)
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "node: "+format+"\n", args...)
		}
	}
	var events *node.EventRecorder
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		cli.FatalIf("adnode", err)
		defer f.Close()
		events = node.NewEventRecorder(f)
		cfg.Events = events
		defer func() {
			if err := events.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "adnode: events: %v\n", err)
			}
		}()
	}
	n, err := node.New(cfg)
	cli.FatalIf("adnode", err)
	defer n.Close()
	n.Start()
	fmt.Printf("node %d listening on %s at (%.0f, %.0f), range %.0f m\n",
		*id, n.Addr(), *x, *y, *rng)
	if *beacon > 0 {
		fmt.Printf("discovery on: beaconing every %v, neighbor TTL %v, %d seed(s)\n",
			*beacon, *ttl, len(cfg.Seeds))
	}

	expvar.Publish("adnode", expvar.Func(func() any { return snapshotOf(n, uint32(*id)) }))
	http.Handle("/metrics", n.Registry().Handler())
	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "adnode: http: %v\n", err)
			}
		}()
		fmt.Printf("expvar stats at http://%s/debug/vars, Prometheus text at http://%s/metrics\n",
			*httpAddr, *httpAddr)
	}

	if *issue != "" {
		ad, err := n.Issue(core.AdSpec{R: *adR, D: *adD, Category: *adCat, Text: *issue})
		cli.FatalIf("adnode", err)
		fmt.Printf("issued %v: %q (R=%.0f m, D=%.0f s)\n", ad.ID, ad.Text, ad.R, ad.D)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsInt > 0 {
		ticker := time.NewTicker(*statsInt)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-sig:
			dumpStats(n, uint32(*id))
			return
		case <-tick:
			dumpStats(n, uint32(*id))
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

func dumpStats(n *node.Node, id uint32) {
	out, err := json.Marshal(snapshotOf(n, id))
	if err != nil {
		fmt.Fprintf(os.Stderr, "adnode: stats: %v\n", err)
		return
	}
	fmt.Println(string(out))
}

// runDemo spins a five-node chain, issues an ad at one end and reports when
// the far end receives it over real UDP hops.
func runDemo() {
	const spacing = 200.0 // meters between chain neighbors; range 250 m
	fmt.Println("five-node chain on loopback, 200 m spacing, 250 m radio range")
	cluster, err := node.NewCluster(node.ChainConfigs(5, spacing, 250, 100*time.Millisecond))
	cli.FatalIf("adnode", err)
	defer cluster.Close()
	cluster.Start()
	nodes := cluster.Nodes
	for i, n := range nodes {
		fmt.Printf("  node %d at x=%4.0f  %s\n", i, float64(i)*spacing, n.Addr())
	}

	start := time.Now()
	ad, err := nodes[0].Issue(core.AdSpec{
		R: 1200, D: 30, Category: "grocery",
		Text: "Fresh fruit 20% off until 6pm",
	})
	cli.FatalIf("adnode", err)
	fmt.Printf("\nnode 0 issued %v: %q\n", ad.ID, ad.Text)

	deadline := time.Now().Add(10 * time.Second)
	reached := make([]bool, len(nodes))
	reached[0] = true
	for time.Now().Before(deadline) {
		all := true
		for i, n := range nodes {
			if !reached[i] && n.Has(ad.ID) {
				reached[i] = true
				fmt.Printf("node %d received after %v (≥%d hops)\n",
					i, time.Since(start).Round(time.Millisecond), i)
			}
			all = all && reached[i]
		}
		if all {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("\ntotal datagrams sent: %d\n", cluster.TotalSent())
	for i, ok := range reached {
		if !ok {
			fmt.Printf("node %d never received the ad\n", i)
			os.Exit(1)
		}
	}
	fmt.Println("every node along the chain received the ad — multi-hop gossip over real sockets.")
}
