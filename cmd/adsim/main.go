// Command adsim runs a single instant-advertising scenario and prints the
// paper's three metrics.
//
// Usage:
//
//	adsim [flags]
//
// Examples:
//
//	adsim -protocol "Optimized Gossiping" -peers 300
//	adsim -protocol Flooding -peers 100 -seed 7 -reps 5
//	adsim -protocol Gossiping -mobility manhattan -speed 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"instantad"
	"instantad/internal/atomicfile"
	"instantad/internal/cli"
	"instantad/internal/config"
)

func main() {
	var (
		cfgFile    = flag.String("config", "", "load scenario from a JSON file (explicit flags still override)")
		saveConfig = flag.String("save-config", "", "write the effective scenario as JSON and exit")
		protocol   = flag.String("protocol", "Optimized Gossiping", "protocol: Flooding | Gossiping | Optimized Gossiping-1 | Optimized Gossiping-2 | Optimized Gossiping | Relevance Exchange | Async Gossiping")
		peers      = flag.Int("peers", 300, "number of mobile peers")
		fieldW     = flag.Float64("field", 1500, "square field side, meters")
		speed      = flag.Float64("speed", 10, "mean motion speed, m/s")
		speedDelta = flag.Float64("speed-delta", 5, "speed spread (uniform mean±delta)")
		mobility   = flag.String("mobility", instantad.RandomWaypoint.String(), "mobility model: random-waypoint | random-walk | manhattan | rpgm | road")
		roadFile   = flag.String("road", "", "road graph file; implies -mobility road (with -mobility road and no file, a synthetic grid is generated)")
		numRSU     = flag.Int("rsu", 0, "roadside units wired together at intersections (road mobility only)")
		rsuRange   = flag.Float64("rsu-range", 0, "RSU transmission range, meters (0 = same as -range)")
		rsuPlace   = flag.String("rsu-place", "", "RSU placement: spread | random | degree (default spread)")
		evict      = flag.String("evict", instantad.EvictLowestProb.String(), "cache eviction policy: lowest-prob | oldest-first | random")
		txRange    = flag.Float64("range", 125, "transmission range, meters")
		radius     = flag.Float64("R", 500, "initial advertising radius, meters")
		duration   = flag.Float64("D", 180, "initial advertising duration, seconds")
		alpha      = flag.Float64("alpha", 0.5, "probability drop parameter α ∈ (0,1)")
		beta       = flag.Float64("beta", 0.5, "radius decay parameter β ∈ (0,1)")
		round      = flag.Float64("round", 5, "gossiping round time, seconds")
		asyncK     = flag.Int("async-k", 0, "max simultaneous pairwise exchanges per peer (Async Gossiping; 0 = 1)")
		asyncDelay = flag.Float64("async-delay", 0, "mean inter-proposal delay, seconds (Async Gossiping; 0 = round time)")
		asyncTmo   = flag.Float64("async-timeout", 0, "pairwise handshake timeout, seconds (Async Gossiping; 0 = round time)")
		dis        = flag.Float64("dis", 0, "annulus width DIS, meters (0 = R/4)")
		cacheK     = flag.Int("cache", 10, "per-peer ad cache capacity")
		simTime    = flag.Float64("sim-time", 2000, "simulation length, seconds")
		lossRate   = flag.Float64("loss", 0, "per-link frame loss probability")
		collisions = flag.Bool("collisions", false, "enable receiver-side collision model")
		reps       = flag.Int("reps", 1, "replications (consecutive seeds)")
		verbose    = flag.Bool("v", false, "print the full per-ad report")
		showMap    = flag.Bool("map", false, "print ASCII field snapshots during the ad's life")
		energy     = flag.Bool("energy", false, "measure radio energy (joules)")
		compare    = flag.Bool("compare", false, "run every protocol on identical trajectories and tabulate")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics-registry snapshot as JSON to this file at exit")
		seed       = flag.Uint64("seed", 1, "base random seed")
	)
	flag.Parse()

	sc := instantad.DefaultScenario()
	if *cfgFile != "" {
		loaded, err := config.Load(*cfgFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc = loaded
	}
	// Flags the user set explicitly override the config file; untouched
	// flags keep the loaded (or default) values.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["protocol"] || *cfgFile == "" {
		proto, err := instantad.ParseProtocol(*protocol)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Protocol = proto
	}
	override := func(name string, apply func()) {
		if set[name] || *cfgFile == "" {
			apply()
		}
	}
	override("peers", func() { sc.NumPeers = *peers })
	override("field", func() { sc.FieldW, sc.FieldH = *fieldW, *fieldW })
	override("speed", func() { sc.SpeedMean = *speed })
	override("speed-delta", func() { sc.SpeedDelta = *speedDelta })
	override("mobility", func() {
		kind, err := instantad.ParseMobility(*mobility)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Mobility = kind
	})
	override("evict", func() {
		pol, err := instantad.ParseEviction(*evict)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Eviction = pol
	})
	override("road", func() {
		sc.RoadFile = *roadFile
		// Only an explicitly given -road implies road mobility; without it
		// this override still runs in the no-config case (where every
		// override applies) and must not hijack the mobility model.
		if set["road"] && !set["mobility"] {
			sc.Mobility = instantad.Road
		}
	})
	override("rsu", func() { sc.NumRSU = *numRSU })
	override("rsu-range", func() { sc.RSURange = *rsuRange })
	override("rsu-place", func() { sc.RSUPlacement = *rsuPlace })
	override("range", func() { sc.TxRange = *txRange })
	override("R", func() { sc.R = *radius })
	override("D", func() { sc.D = *duration })
	override("alpha", func() { sc.Alpha = *alpha })
	override("beta", func() { sc.Beta = *beta })
	override("round", func() { sc.RoundTime = *round })
	override("async-k", func() { sc.AsyncK = *asyncK })
	override("async-delay", func() { sc.AsyncMeanDelay = *asyncDelay })
	override("async-timeout", func() { sc.AsyncTimeout = *asyncTmo })
	override("dis", func() { sc.DIS = *dis })
	override("cache", func() { sc.CacheK = *cacheK })
	override("sim-time", func() { sc.SimTime = *simTime })
	override("loss", func() { sc.LossRate = *lossRate })
	override("collisions", func() { sc.Collisions = *collisions })
	override("seed", func() { sc.Seed = *seed })

	if *saveConfig != "" {
		if err := config.Save(*saveConfig, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *saveConfig)
		return
	}
	proto := sc.Protocol
	sc.MeasureEnergy = sc.MeasureEnergy || *energy

	if *showMap {
		runWithMap(sc, *metricsOut)
		return
	}
	if *compare {
		runComparison(sc, *jsonOut, *metricsOut)
		return
	}

	if *reps <= 1 && *jsonOut {
		res, err := sc.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpSnapshot(*metricsOut, res.Snapshot)
		emitJSON(toJSON(res))
		return
	}

	if *reps <= 1 {
		res, err := sc.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpSnapshot(*metricsOut, res.Snapshot)
		fmt.Printf("protocol:       %v\n", proto)
		fmt.Printf("peers:          %d in %.0fx%.0f m (density %.1f /km²)\n",
			sc.NumPeers, sc.FieldW, sc.FieldH, float64(sc.NumPeers)/(sc.FieldW*sc.FieldH/1e6))
		fmt.Printf("delivery rate:  %.2f%% (%d of %d peers in the area)\n",
			res.DeliveryRate, res.Report.Delivered, res.Report.PassedThrough)
		fmt.Printf("delivery time:  %.2f s (mean over delivered entrants)\n", res.DeliveryTime)
		fmt.Printf("messages:       %.0f (%.1f KiB on air)\n", res.Messages, res.Bytes/1024)
		if sc.Mobility == instantad.Road {
			fmt.Printf("road coverage:  %.1f%% of in-area road length (peak; %d RSUs)\n",
				100*res.Coverage, sc.NumRSU)
		}
		if sc.MeasureEnergy {
			fmt.Printf("radio energy:   %.2f J network-wide\n", res.EnergyJ)
		}
		if *verbose {
			fmt.Printf("duplicates:     %d\nevictions:      %d\nreport:         %v\n",
				res.Duplicates, res.Evictions, res.Report)
		}
		return
	}

	if *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "adsim: -metrics-out only covers single runs; ignored with -reps")
	}
	agg, err := instantad.RunReplicated(sc, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("protocol:       %v (%d reps)\n", proto, *reps)
	fmt.Printf("delivery rate:  %s %%\n", agg.DeliveryRate)
	fmt.Printf("delivery time:  %s s\n", agg.DeliveryTime)
	fmt.Printf("messages:       %s\n", agg.Messages)
}

// resultJSON is the machine-readable single-run output.
type resultJSON struct {
	Protocol      string  `json:"protocol"`
	Peers         int     `json:"peers"`
	DeliveryRate  float64 `json:"delivery_rate_pct"`
	DeliveryTime  float64 `json:"delivery_time_s"`
	DeliveryP95   float64 `json:"delivery_time_p95_s"`
	Messages      float64 `json:"messages"`
	Bytes         float64 `json:"bytes"`
	EnergyJ       float64 `json:"energy_j,omitempty"`
	RoadCoverage  float64 `json:"road_coverage_pct,omitempty"`
	LoadGini      float64 `json:"load_gini"`
	PassedThrough int     `json:"passed_through"`
	Delivered     int     `json:"delivered"`
	Seed          uint64  `json:"seed"`
}

func toJSON(res instantad.Result) resultJSON {
	return resultJSON{
		Protocol:      res.Scenario.Protocol.String(),
		Peers:         res.Scenario.NumPeers,
		DeliveryRate:  res.DeliveryRate,
		DeliveryTime:  res.DeliveryTime,
		DeliveryP95:   res.Report.P95,
		Messages:      res.Messages,
		Bytes:         res.Bytes,
		EnergyJ:       res.EnergyJ,
		RoadCoverage:  100 * res.Coverage,
		LoadGini:      res.LoadGini,
		PassedThrough: res.Report.PassedThrough,
		Delivered:     res.Report.Delivered,
		Seed:          res.Scenario.Seed,
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dumpSnapshot writes a run's metrics-registry snapshot as indented JSON,
// atomically (temp + rename), so a crash never leaves a torn file behind.
// An empty path means the flag was not given.
func dumpSnapshot(path string, snap *instantad.Snapshot) {
	if path == "" {
		return
	}
	if snap == nil {
		fmt.Fprintln(os.Stderr, "adsim: no registry snapshot available for -metrics-out")
		return
	}
	cli.FatalIf("adsim", atomicfile.WriteJSON(path, snap))
}

// runComparison runs every protocol (including the related-work comparator)
// on identical trajectories and tabulates the paper's metrics. With
// metricsOut, the last protocol's registry snapshot is written.
func runComparison(sc instantad.Scenario, asJSON bool, metricsOut string) {
	var rows []resultJSON
	var lastSnap *instantad.Snapshot
	for _, proto := range instantad.AllProtocols() {
		run := sc
		run.Protocol = proto
		res, err := run.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows = append(rows, toJSON(res))
		lastSnap = res.Snapshot
	}
	dumpSnapshot(metricsOut, lastSnap)
	if asJSON {
		emitJSON(rows)
		return
	}
	fmt.Printf("%-24s %14s %15s %10s %10s\n",
		"protocol", "delivery rate", "delivery time", "messages", "load gini")
	for _, r := range rows {
		fmt.Printf("%-24s %13.1f%% %14.1fs %10.0f %10.2f\n",
			r.Protocol, r.DeliveryRate, r.DeliveryTime, r.Messages, r.LoadGini)
	}
}

// runWithMap executes one run, printing field snapshots at issue, quarter-,
// half- and three-quarter-life.
func runWithMap(sc instantad.Scenario, metricsOut string) {
	sim, err := sc.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	h := sim.ScheduleAd(sc.IssueTime, instantad.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2},
		instantad.AdSpec{R: sc.R, D: sc.D, Category: sc.Category, Text: "mapped ad"})
	for _, frac := range []float64{0.02, 0.25, 0.5, 0.75} {
		at := sc.IssueTime + frac*sc.D
		sim.Engine.Schedule(at, func() { fmt.Println(sim.FieldMap(h.Ad, 72)) })
	}
	sim.Engine.Run(sc.SimTime)
	if h.Err != nil {
		fmt.Fprintln(os.Stderr, h.Err)
		os.Exit(1)
	}
	rep, err := sim.Metrics.Report(h.Ad.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)
	snap := sim.Registry.Snapshot()
	dumpSnapshot(metricsOut, &snap)
}
