// Command campaignd is the campaign control plane: a long-lived service
// that runs a captive fleet of live gossip nodes as its backend and exposes
// the versioned HTTP API over it — POST a campaign spec, watch real ads
// gossip through the in-memory radio medium, poll delivery status, scrape
// Prometheus metrics.
//
// Usage:
//
//	campaignd                                  # 1000-node fleet on :8080
//	campaignd -nodes 10000 -listen :9090 -checkpoint state.json
//
// The API (see docs/CONTROLPLANE.md for the full reference):
//
//	POST   /v1/campaigns             create a campaign (201, or 429 + Retry-After)
//	GET    /v1/campaigns             list campaigns
//	GET    /v1/campaigns/{id}        one campaign's ad ledger
//	DELETE /v1/campaigns/{id}        cancel (live ads keep gossiping)
//	GET    /v1/campaigns/{id}/status delivery status (coverage, p50/p99)
//	GET    /v1/fleet                 fleet + medium gauges
//	GET    /metrics                  Prometheus text
//
// With -checkpoint the store is written atomically every -checkpoint-every
// and once more on SIGTERM/SIGINT; at startup an existing checkpoint is
// restored and every ad still inside its lifetime is re-issued into the
// fresh fleet with its remaining duration, so a restart drops nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"instantad"
	"instantad/internal/atomicfile"
	"instantad/internal/cli"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		nodes      = flag.Int("nodes", 1000, "fleet size (live gossip nodes)")
		spacing    = flag.Float64("spacing", 150, "grid pitch between nodes, m")
		radio      = flag.Float64("range", 220, "radio range, m")
		round      = flag.Duration("round", 200*time.Millisecond, "gossip round time")
		cacheK     = flag.Int("cache", 16, "per-node cache capacity")
		batchCap   = flag.Int("batch-cap", 0, "batch frame soft cap, bytes, 512-65507 (0 = 1400 default)")
		digest     = flag.Int("digest", 4, "digest anti-entropy every N rounds (<=0 disables)")
		roundBytes = flag.Int("round-bytes", 0, "per-node per-round byte budget (0 = unlimited)")
		loss       = flag.Float64("loss", 0, "medium datagram loss probability")
		beacon     = flag.Duration("beacon", 0, "HELLO beacon interval (0 = static wiring only)")
		probes     = flag.Int("probes", 32, "delivery probe nodes per ad")
		tick       = flag.Duration("tick", 100*time.Millisecond, "scheduler control-loop period")
		ckPath     = flag.String("checkpoint", "", "checkpoint file (restore at boot, write periodically and on shutdown)")
		ckEvery    = flag.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval")
		maxLive    = flag.Int("max-live-ads", 256, "admission: max concurrently live ads (<=0 disables)")
		maxP99     = flag.Float64("max-p99-frac", 0.5, "admission: delivery p99 cap as a fraction of the shortest ad lifetime")
		maxDef     = flag.Float64("max-deferred", 0, "admission: max fleet budget-deferred sends/s (<=0 disables)")
		metOut     = flag.String("metrics-out", "", "write a final metrics-registry snapshot as JSON to this file at exit")
		verbose    = flag.Bool("v", false, "log control-plane events")
		seed       = flag.Uint64("seed", 1, "base random seed")
	)
	flag.Parse()
	if *nodes <= 0 {
		cli.Usage("campaignd", "-nodes %d must be > 0", *nodes)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	dig := *digest
	if dig <= 0 {
		dig = -1 // FleetConfig: negative disables, zero means default
	}
	fmt.Fprintf(os.Stderr, "campaignd: building %d-node fleet (range %.0fm, round %v)...\n",
		*nodes, *radio, *round)
	fleet, err := instantad.NewFleet(instantad.FleetConfig{
		Nodes:        *nodes,
		Spacing:      *spacing,
		Range:        *radio,
		RoundTime:    *round,
		CacheK:       *cacheK,
		BatchSoftCap: *batchCap,
		DigestEvery:  dig,
		RoundBytes:   *roundBytes,
		Loss:         *loss,
		Seed:         *seed,
		Beacon:       *beacon,
		Probes:       *probes,
	})
	cli.FatalIf("campaignd", err)

	srv, err := instantad.NewCampaignServer(instantad.CampaignServerConfig{
		Fleet: fleet,
		Admission: instantad.AdmissionConfig{
			MaxLiveAds:        *maxLive,
			MaxP99Frac:        *maxP99,
			MaxDeferredPerSec: *maxDef,
		},
		Tick:            *tick,
		CheckpointPath:  *ckPath,
		CheckpointEvery: *ckEvery,
		Logf:            logf,
	})
	if err != nil {
		fleet.Close()
		cli.Fatal("campaignd", err)
	}
	if n := srv.RestoredAds(); n > 0 {
		fmt.Fprintf(os.Stderr, "campaignd: replayed %d live ads from %s\n", n, *ckPath)
	}

	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "campaignd: %d nodes live, serving on %s\n", *nodes, *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "campaignd: %v, draining...\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "campaignd: http: %v\n", err)
	}

	// Drain: stop accepting, stop injecting, final checkpoint, fleet down.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	hs.Shutdown(ctx)
	cancel()
	snap := srv.Scheduler().Registry().Snapshot()
	cli.FatalIf("campaignd", srv.Shutdown())
	if *metOut != "" {
		cli.FatalIf("campaignd", atomicfile.WriteJSON(*metOut, snap))
	}
	fmt.Fprintln(os.Stderr, "campaignd: drained")
}
