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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"instantad"
	"instantad/internal/atomicfile"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is campaignd on the given arguments and streams, serving until ctx is
// done or the HTTP server fails, then draining. It returns the exit code: 2
// for a bad invocation (flags or the fleet they make), 1 for a failure to
// bind, restore, serve or drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address")
		nodes      = fs.Int("nodes", 1000, "fleet size (live gossip nodes)")
		spacing    = fs.Float64("spacing", 150, "grid pitch between nodes, m")
		radio      = fs.Float64("range", 220, "radio range, m")
		round      = fs.Duration("round", 200*time.Millisecond, "gossip round time")
		cacheK     = fs.Int("cache", 16, "per-node cache capacity")
		batchCap   = fs.Int("batch-cap", 0, "batch frame soft cap, bytes, 512-65507 (0 = 1400 default)")
		digest     = fs.Int("digest", 4, "digest anti-entropy every N rounds (<=0 disables)")
		roundBytes = fs.Int("round-bytes", 0, "per-node per-round byte budget (0 = unlimited)")
		loss       = fs.Float64("loss", 0, "medium datagram loss probability")
		beacon     = fs.Duration("beacon", 0, "HELLO beacon interval (0 = static wiring only)")
		probes     = fs.Int("probes", 32, "delivery probe nodes per ad")
		tick       = fs.Duration("tick", 100*time.Millisecond, "scheduler control-loop period")
		ckPath     = fs.String("checkpoint", "", "checkpoint file (restore at boot, write periodically and on shutdown)")
		ckEvery    = fs.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval")
		maxLive    = fs.Int("max-live-ads", 256, "admission: max concurrently live ads (<=0 disables)")
		maxP99     = fs.Float64("max-p99-frac", 0.5, "admission: delivery p99 cap as a fraction of the shortest ad lifetime")
		maxDef     = fs.Float64("max-deferred", 0, "admission: max fleet budget-deferred sends/s (<=0 disables)")
		metOut     = fs.String("metrics-out", "", "write a final metrics-registry snapshot as JSON to this file at exit")
		verbose    = fs.Bool("v", false, "log control-plane events")
		seed       = fs.Uint64("seed", 1, "base random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "campaignd: %v\n", err)
		return code
	}
	if *nodes <= 0 {
		return fail(2, fmt.Errorf("-nodes %d must be > 0", *nodes))
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.New(stderr, "", log.LstdFlags).Printf
	}

	// Bind before the fleet boots, so a taken port fails at once.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(1, err)
	}
	defer ln.Close()

	dig := *digest
	if dig <= 0 {
		dig = -1 // FleetConfig: negative disables, zero means default
	}
	fmt.Fprintf(stderr, "campaignd: building %d-node fleet (range %.0fm, round %v)...\n",
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
	if err != nil {
		// NewFleet fails only on the config: the nodes bind to memnet.
		return fail(2, err)
	}

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
		return fail(1, err)
	}
	if n := srv.RestoredAds(); n > 0 {
		fmt.Fprintf(stderr, "campaignd: replayed %d live ads from %s\n", n, *ckPath)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "campaignd: %d nodes live, serving on %s\n", *nodes, ln.Addr())

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "campaignd: shutting down, draining...")
	case err := <-errc:
		fmt.Fprintf(stderr, "campaignd: http: %v\n", err)
		code = 1
	}

	// Drain: stop accepting, stop injecting, final checkpoint, fleet down.
	shutdown, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	hs.Shutdown(shutdown)
	cancel()
	snap := srv.Scheduler().Registry().Snapshot()
	if err := srv.Shutdown(); err != nil {
		return fail(1, err)
	}
	if *metOut != "" {
		if err := atomicfile.WriteJSON(*metOut, snap); err != nil {
			return fail(1, err)
		}
	}
	fmt.Fprintln(stderr, "campaignd: drained")
	return code
}
