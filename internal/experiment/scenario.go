// Package experiment is the harness that reproduces the paper's evaluation:
// it assembles simulator, mobility, radio, protocol and metrics into a
// runnable Scenario, replicates runs across seeds, and regenerates every
// figure of Section IV as printable series (see figures.go).
package experiment

import (
	"fmt"
	"io"
	"math"
	"os"
	"reflect"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
	"instantad/internal/sim"
	"instantad/internal/stats"
	"instantad/internal/trace"
)

// MobilityKind selects the movement model for a scenario.
type MobilityKind string

const (
	// RandomWaypoint is the paper's model (NS-2 setdest).
	RandomWaypoint MobilityKind = "random-waypoint"
	// RandomWalk is the bounded random-walk ablation model.
	RandomWalk MobilityKind = "random-walk"
	// Manhattan is the street-grid ablation model.
	Manhattan MobilityKind = "manhattan"
	// RPGM is Reference Point Group Mobility: peers move in cohesive groups
	// whose reference points do Random Waypoint (GroupSize 4, radius 50 m).
	RPGM MobilityKind = "rpgm"
	// Road is the urban VANET model: vehicles confined to a road network
	// (Scenario.RoadFile, or a synthetic BlockSize street grid), driving
	// shortest paths between random intersections (mobility.NewRoad).
	Road MobilityKind = "road"
)

// String returns the model's flag-friendly name, round-tripping with
// ParseMobility.
func (k MobilityKind) String() string { return string(k) }

// MobilityKinds lists every movement model, the paper's default first.
func MobilityKinds() []MobilityKind {
	return []MobilityKind{RandomWaypoint, RandomWalk, Manhattan, RPGM, Road}
}

// ParseMobility converts a model name (as produced by String) back to a
// MobilityKind.
func ParseMobility(s string) (MobilityKind, error) {
	for _, k := range MobilityKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("experiment: unknown mobility %q (want random-waypoint | random-walk | manhattan | rpgm | road)", s)
}

// Scenario fully describes one simulation run. The zero value is not
// runnable; start from DefaultScenario.
//
// The struct tags are the scenario parameter table (params.go): `json` is
// the key in a scenario file (Encode, Decode), `flag` the adsim flag, `unit`
// and `doc` describe the field, and `range` is the interval Validate accepts,
// with open or closed ends. A float without a range must be finite.
// docs/SCENARIOS.md's parameter table is rendered from the same tags.
type Scenario struct {
	Name string `json:"name,omitempty" doc:"free-form label"`

	// Field and population.
	FieldW     float64      `json:"field_w" flag:"field" unit:"m" range:"(0,inf)" doc:"square field side, meters"`
	FieldH     float64      `json:"field_h" unit:"m" range:"(0,inf)" doc:"field height, meters (-field sets both sides)"`
	NumPeers   int          `json:"num_peers" flag:"peers" range:"[1,inf)" doc:"number of mobile peers"`
	Mobility   MobilityKind `json:"mobility" flag:"mobility" doc:"mobility model: random-waypoint | random-walk | manhattan | rpgm | road"`
	SpeedMean  float64      `json:"speed_mean" flag:"speed" unit:"m/s" doc:"mean motion speed, m/s"`
	SpeedDelta float64      `json:"speed_delta" flag:"speed-delta" unit:"m/s" doc:"speed spread (uniform mean±delta)"`
	Pause      float64      `json:"pause" unit:"s" doc:"pause at each waypoint, seconds"`
	BlockSize  float64      `json:"block_size,omitempty" unit:"m" doc:"manhattan street spacing and synthetic road grid spacing, meters"`
	// TraceFile, when set, loads peer trajectories from an NS-2 movement
	// script (setdest format) instead of generating them; nodes 0…NumPeers−1
	// must be present. Mobility/speed parameters are then ignored.
	TraceFile string `json:"trace_file,omitempty" doc:"NS-2 movement script replacing the generated trajectories"`
	// PedestrianFraction turns that share of the population into pedestrians:
	// Random Waypoint at walking speed (PedestrianSpeed ± 30 %) carrying a
	// short-range handset (PedestrianRange) — the paper's mixed
	// vehicles-and-pedestrians street scene. Zero keeps a uniform fleet.
	PedestrianFraction float64 `json:"pedestrian_fraction,omitempty" range:"[0,1]" doc:"share of peers that are pedestrians"`
	PedestrianSpeed    float64 `json:"pedestrian_speed,omitempty" unit:"m/s" doc:"pedestrians' mean speed, m/s (0 = 1.4)"`
	PedestrianRange    float64 `json:"pedestrian_range,omitempty" unit:"m" doc:"pedestrians' handset range, meters (0 = 50)"`

	// Urban VANET (Mobility == Road only).
	//
	// RoadFile loads the road network from an edge-list file (see
	// roadnet.Parse for the format). Empty generates a synthetic street grid
	// over the field with BlockSize spacing.
	RoadFile string `json:"road_file,omitempty" flag:"road" doc:"road graph file; implies -mobility road (with -mobility road and no file, a synthetic grid is generated)"`
	// NumRSU adds that many fixed roadside units at chosen intersections:
	// always-on infrastructure peers, appended after the NumPeers mobile
	// peers, that relay deterministically inside an ad's radius and sync
	// caches over a wired backhaul each round (see core RSU docs). RSUs are
	// excluded from churn but count in delivery metrics and may issue ads
	// (the nearest peer to the issue point can be a unit).
	NumRSU int `json:"num_rsu,omitempty" flag:"rsu" range:"[0,inf)" doc:"roadside units wired together at intersections (road mobility only)"`
	// RSUPlacement picks the intersections: "spread" (default, greedy
	// k-center), "random", or "degree" (roadnet.ParsePlacement).
	RSUPlacement string  `json:"rsu_placement,omitempty" flag:"rsu-place" doc:"RSU placement: spread | random | degree (default spread)"`
	RSURange     float64 `json:"rsu_range,omitempty" flag:"rsu-range" unit:"m" range:"[0,inf)" doc:"RSU transmission range, meters (0 = same as -range)"`

	// Radio.
	TxRange  float64 `json:"tx_range" flag:"range" unit:"m" range:"(0,inf)" doc:"transmission range, meters"`
	LossRate float64 `json:"loss_rate,omitempty" flag:"loss" range:"[0,1)" doc:"per-link frame loss probability"`
	// FadeZone softens the unit disk's edge over its last FadeZone meters
	// (see radio.Config.FadeZone); zero keeps the hard disk.
	FadeZone   float64 `json:"fade_zone,omitempty" unit:"m" range:"[0,inf)" doc:"soft edge of the unit disk, meters, below tx_range"`
	Collisions bool    `json:"collisions,omitempty" flag:"collisions" doc:"enable receiver-side collision model"`
	// MeasureEnergy enables radio energy accounting with the 802.11-class
	// defaults (radio.DefaultEnergy); Result.EnergyJ reports the total.
	MeasureEnergy bool `json:"measure_energy,omitempty" flag:"energy" doc:"measure radio energy (joules)"`

	// Protocol.
	Protocol core.Protocol `json:"protocol" flag:"protocol" doc:"protocol: Flooding | Gossiping | Optimized Gossiping-1 | Optimized Gossiping-2 | Optimized Gossiping | Relevance Exchange | Async Gossiping"`
	Alpha    float64       `json:"alpha" flag:"alpha" doc:"probability drop parameter α ∈ (0,1)"`
	Beta     float64       `json:"beta" flag:"beta" doc:"radius decay parameter β ∈ (0,1)"`
	// DistUnit and TimeUnit override the probability-exponent unit scaling;
	// zero selects the paper-faithful per-ad defaults R/10 and D/10 (see
	// core.ProbParams and the unit-scaling ablation in DESIGN.md).
	DistUnit  float64             `json:"dist_unit,omitempty" unit:"m" doc:"distance unit of the probability exponent (0 = R/10)"`
	TimeUnit  float64             `json:"time_unit,omitempty" unit:"s" doc:"time unit of the probability exponent (0 = D/10)"`
	RoundTime float64             `json:"round_time" flag:"round" unit:"s" doc:"gossiping round time, seconds"`
	DIS       float64             `json:"dis,omitempty" flag:"dis" unit:"m" doc:"annulus width DIS, meters (0 = R/4)"`
	CacheK    int                 `json:"cache_k" flag:"cache" doc:"per-peer ad cache capacity"`
	Eviction  core.EvictionPolicy `json:"eviction,omitempty" flag:"evict" doc:"cache eviction policy: lowest-prob | oldest-first | random"`
	// Popularity is written as a "popularity" object, present exactly when
	// Enabled; its keys are core.PopularityConfig's tags.
	Popularity core.PopularityConfig `json:"popularity"`

	// The advertisement under evaluation.
	R         float64 `json:"ad_radius" flag:"R" unit:"m" range:"(0,inf)" doc:"initial advertising radius, meters"`
	D         float64 `json:"ad_duration" flag:"D" unit:"s" range:"(0,inf)" doc:"initial advertising duration, seconds"`
	Category  string  `json:"ad_category,omitempty" doc:"the ad's category"`
	IssueTime float64 `json:"issue_time" unit:"s" range:"[0,inf)" doc:"when the ad is issued, seconds"`
	// IssueAt is the desired issuing location; zero means the field center.
	// It is written as two flat keys (issueAt).
	IssueAt geo.Point `json:"-"`

	// IssuerOfflineAfter, when positive, powers the issuer's radio down that
	// many seconds after it issues the ad — the paper's "issue an
	// advertisement to neighbor peers and then go off-line". Gossip variants
	// keep the ad alive cooperatively; Restricted Flooding dies with its
	// issuer.
	IssuerOfflineAfter float64 `json:"issuer_offline_after,omitempty" unit:"s" range:"[0,inf)" doc:"the issuer goes offline this long after issuing (0 = never)"`
	// ChurnOffMean/ChurnOnMean, when both positive, give every peer an
	// alternating on/off radio cycle with exponentially distributed
	// durations (mean seconds online, then mean seconds offline, repeating).
	ChurnOnMean  float64 `json:"churn_on_mean,omitempty" unit:"s" range:"[0,inf)" doc:"mean online spell of a churning peer (0 = no churn)"`
	ChurnOffMean float64 `json:"churn_off_mean,omitempty" unit:"s" range:"[0,inf)" doc:"mean offline spell of a churning peer (0 = no churn)"`

	// Run control.
	SimTime     float64 `json:"sim_time" flag:"sim-time" unit:"s" range:"(0,inf)" doc:"simulation length, seconds"`
	SampleEvery float64 `json:"sample_every,omitempty" unit:"s" doc:"metrics sampling interval, seconds"`
	Seed        uint64  `json:"seed" flag:"seed" doc:"base random seed"`
	// Workers is validated and otherwise unused.
	//
	// Deprecated: ignored. Workers and Shards set the worker and tile-stripe
	// counts of an intra-run parallel engine that measured no gain and is
	// gone (see docs/PERFORMANCE.md); the fields remain until bench/ stops
	// setting them. Parallelism lives across runs (sweep.go). Decode
	// reads both keys from older files; Encode never writes them.
	Workers int `json:"workers,omitempty" range:"[0,inf)" doc:"deprecated and ignored; read, never written"`
	// Shards is validated and otherwise unused.
	//
	// Deprecated: ignored, like Workers.
	Shards int `json:"shards,omitempty" range:"[0,4096]" doc:"deprecated and ignored; read, never written"`
	// RoundSlots overrides the per-round phase quantization
	// (core.Config.RoundSlots); zero selects the default 64.
	RoundSlots int `json:"round_slots,omitempty" range:"[0,inf)" doc:"phase slots per gossip round (0 = 64)"`

	// Async pairwise family (Protocol == core.AsyncGossip only; ignored by
	// the round-based protocols).
	AsyncK         int     `json:"async_k,omitempty" flag:"async-k" range:"[0,inf)" doc:"max simultaneous pairwise exchanges per peer (Async Gossiping; 0 = 1)"`
	AsyncMeanDelay float64 `json:"async_mean_delay,omitempty" flag:"async-delay" unit:"s" range:"[0,inf)" doc:"mean inter-proposal delay, seconds (Async Gossiping; 0 = round time)"`
	AsyncTimeout   float64 `json:"async_timeout,omitempty" flag:"async-timeout" unit:"s" range:"[0,inf)" doc:"pairwise handshake timeout, seconds (Async Gossiping; 0 = round time)"`
}

// DefaultScenario returns the canonical parameters of Table II/III as
// calibrated in DESIGN.md: a 1500 m × 1500 m field, 300 peers at 10±5 m/s,
// 125 m transmission range, R₀ = 500 m, D₀ = 180 s, Δt = 5 s,
// α = β = 0.5, DIS = R/4, cache k = 10, 2000 s simulation with the ad
// issued at the field center at t = 60 s.
func DefaultScenario() Scenario {
	return Scenario{
		Name:        "canonical",
		FieldW:      1500,
		FieldH:      1500,
		NumPeers:    300,
		Mobility:    RandomWaypoint,
		SpeedMean:   10,
		SpeedDelta:  5,
		Pause:       10,
		BlockSize:   150,
		TxRange:     125,
		Protocol:    core.GossipOpt,
		Alpha:       0.5,
		Beta:        0.5,
		RoundTime:   5,
		DIS:         0, // R/4
		CacheK:      10,
		R:           500,
		D:           180,
		Category:    "petrol",
		IssueTime:   60,
		SimTime:     2000,
		SampleEvery: 1,
		Seed:        1,
	}
}

// dis resolves the annulus width: explicit, or the paper's R/4 default.
func (sc Scenario) dis() float64 {
	if sc.DIS > 0 {
		return sc.DIS
	}
	return sc.R / 4
}

// issueAt resolves the issuing location (field center by default).
func (sc Scenario) issueAt() geo.Point {
	if sc.IssueAt != (geo.Point{}) {
		return sc.IssueAt
	}
	return geo.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2}
}

// Validate checks the scenario parameters: each against its declared range,
// then the rules that relate two of them. Fields checked further when the
// run is built (mobility and protocol parameters) are only required to be
// finite here.
func (sc Scenario) Validate() error {
	v := reflect.ValueOf(sc)
	for _, p := range params {
		if err := p.check(v.FieldByIndex(p.index)); err != nil {
			return err
		}
	}
	if !(sc.SimTime > sc.IssueTime) {
		return fmt.Errorf("experiment: sim time %v not beyond issue time %v", sc.SimTime, sc.IssueTime)
	}
	if !(sc.FadeZone < sc.TxRange) {
		return fmt.Errorf("experiment: fade zone %v not below range %v", sc.FadeZone, sc.TxRange)
	}
	if (sc.ChurnOnMean > 0) != (sc.ChurnOffMean > 0) {
		return fmt.Errorf("experiment: churn needs both on and off means")
	}
	if sc.Mobility != Road {
		if sc.RoadFile != "" {
			return fmt.Errorf("experiment: road file set but mobility is %q, not road", sc.Mobility)
		}
		if sc.NumRSU > 0 {
			return fmt.Errorf("experiment: %d RSUs need road mobility, not %q", sc.NumRSU, sc.Mobility)
		}
	}
	if _, err := ParseMobility(string(sc.Mobility)); err != nil {
		return err
	}
	_, err := roadnet.ParsePlacement(sc.RSUPlacement)
	return err
}

// rsuRange resolves the roadside units' transmission range.
func (sc Scenario) rsuRange() float64 {
	if sc.RSURange > 0 {
		return sc.RSURange
	}
	return sc.TxRange
}

// roadGraph loads or generates the scenario's road network; nil for
// non-road mobility. The synthetic fallback is a street grid spanning the
// field at BlockSize spacing (150 m when unset), at least 2×2.
func (sc Scenario) roadGraph() (*roadnet.Graph, error) {
	if sc.Mobility != Road {
		return nil, nil
	}
	if sc.RoadFile != "" {
		return roadnet.Load(sc.RoadFile)
	}
	spacing := sc.BlockSize
	if spacing <= 0 {
		spacing = 150
	}
	cols := int(sc.FieldW/spacing) + 1
	rows := int(sc.FieldH/spacing) + 1
	if cols < 2 {
		cols = 2
	}
	if rows < 2 {
		rows = 2
	}
	return roadnet.Grid(cols, rows, spacing)
}

// pedestrianSpeed resolves the mixed-fleet walking speed default.
func (sc Scenario) pedestrianSpeed() float64 {
	if sc.PedestrianSpeed > 0 {
		return sc.PedestrianSpeed
	}
	return 1.4
}

// pedestrianRange resolves the mixed-fleet handset range default.
func (sc Scenario) pedestrianRange() float64 {
	if sc.PedestrianRange > 0 {
		return sc.PedestrianRange
	}
	return 50
}

// pedestrianFlags deterministically marks which peers are pedestrians.
func (sc Scenario) pedestrianFlags(rnd *rng.Stream) []bool {
	flags := make([]bool, sc.NumPeers)
	if sc.PedestrianFraction <= 0 {
		return flags
	}
	for i := range flags {
		flags[i] = rnd.Bool(sc.PedestrianFraction)
	}
	return flags
}

// coreConfig assembles the protocol configuration.
func (sc Scenario) coreConfig() core.Config {
	return core.Config{
		Protocol:       sc.Protocol,
		Params:         core.ProbParams{Alpha: sc.Alpha, Beta: sc.Beta, DistUnit: sc.DistUnit, TimeUnit: sc.TimeUnit},
		RoundTime:      sc.RoundTime,
		RoundSlots:     sc.RoundSlots,
		DIS:            sc.dis(),
		CacheK:         sc.CacheK,
		Eviction:       sc.Eviction,
		Popularity:     sc.Popularity,
		AsyncK:         sc.AsyncK,
		AsyncMeanDelay: sc.AsyncMeanDelay,
		AsyncTimeout:   sc.AsyncTimeout,
	}
}

// radioConfig assembles the channel configuration. maxSpeed is the true bound
// on peer speed that buildModels reports: the grid-staleness slack and the
// collector's candidate bound are exact only if no peer outruns it.
func (sc Scenario) radioConfig(maxSpeed float64) radio.Config {
	cfg := radio.DefaultConfig()
	cfg.Range = sc.TxRange
	cfg.LossRate = sc.LossRate
	cfg.FadeZone = sc.FadeZone
	cfg.Collisions = sc.Collisions
	if sc.MeasureEnergy {
		cfg.Energy = radio.DefaultEnergy()
	}
	cfg.MaxSpeed = maxSpeed
	return cfg
}

// buildModels constructs one mobility model per peer, either from an NS-2
// movement script or by generating trajectories. Peers flagged as
// pedestrians walk (Random Waypoint at walking speed) regardless of the
// vehicular mobility model. The second result bounds every model's speed:
// the largest MaxSpeed of the configs used, or a script's fastest leg.
func (sc Scenario) buildModels(rnd *rng.Stream, peds []bool, graph *roadnet.Graph) ([]mobility.Model, float64, error) {
	if sc.TraceFile != "" {
		models, err := sc.loadTraceModels()
		if err != nil {
			return nil, 0, err
		}
		vmax, err := mobility.MaxLegSpeed(models)
		return models, vmax, err
	}
	field := geo.NewRect(sc.FieldW, sc.FieldH)
	if sc.Mobility == RPGM {
		// Group mobility correlates positions across peers, so it is built
		// population-wide rather than per peer. Pedestrian flags do not
		// apply: the group dynamic already models on-foot clusters.
		cfg := mobility.RPGMConfig{
			Field:       field,
			GroupSize:   4,
			GroupRadius: 50,
			SpeedMean:   sc.SpeedMean,
			SpeedDelta:  sc.SpeedDelta,
			MemberSpeed: 1.5,
			Pause:       sc.Pause,
			Horizon:     sc.SimTime,
		}
		models, err := mobility.NewRPGMPopulation(sc.NumPeers, cfg, rnd.Split("rpgm"))
		return models, cfg.MaxSpeed(), err
	}
	vmax := 0.0
	models := make([]mobility.Model, sc.NumPeers)
	for i := range models {
		s := rnd.SplitIndex("mobility", i)
		var (
			m   mobility.Model
			err error
		)
		if peds != nil && peds[i] {
			walk := sc.pedestrianSpeed()
			cfg := mobility.RandomWaypointConfig{
				Field: field, SpeedMean: walk, SpeedDelta: 0.3 * walk,
				Pause: sc.Pause, Horizon: sc.SimTime,
			}
			vmax = math.Max(vmax, cfg.MaxSpeed())
			m, err = mobility.NewRandomWaypoint(cfg, s)
			if err != nil {
				return nil, 0, err
			}
			models[i] = m
			continue
		}
		switch sc.Mobility {
		case RandomWaypoint:
			cfg := mobility.RandomWaypointConfig{
				Field: field, SpeedMean: sc.SpeedMean, SpeedDelta: sc.SpeedDelta,
				Pause: sc.Pause, Horizon: sc.SimTime,
			}
			vmax = math.Max(vmax, cfg.MaxSpeed())
			m, err = mobility.NewRandomWaypoint(cfg, s)
		case RandomWalk:
			cfg := mobility.RandomWalkConfig{
				Field: field, SpeedMean: sc.SpeedMean, SpeedDelta: sc.SpeedDelta,
				Epoch: 30, Horizon: sc.SimTime,
			}
			vmax = math.Max(vmax, cfg.MaxSpeed())
			m, err = mobility.NewRandomWalk(cfg, s)
		case Manhattan:
			cfg := mobility.ManhattanConfig{
				Field: field, BlockSize: sc.BlockSize,
				SpeedMean: sc.SpeedMean, SpeedDelta: sc.SpeedDelta, Horizon: sc.SimTime,
			}
			vmax = math.Max(vmax, cfg.MaxSpeed())
			m, err = mobility.NewManhattan(cfg, s)
		case Road:
			cfg := mobility.RoadConfig{
				Graph: graph, SpeedMean: sc.SpeedMean, SpeedDelta: sc.SpeedDelta,
				Pause: sc.Pause, Horizon: sc.SimTime,
			}
			vmax = math.Max(vmax, cfg.MaxSpeed())
			m, err = mobility.NewRoad(cfg, s)
		}
		if err != nil {
			return nil, 0, err
		}
		models[i] = m
	}
	return models, vmax, nil
}

// loadTraceModels reads the scenario's NS-2 movement script.
func (sc Scenario) loadTraceModels() ([]mobility.Model, error) {
	f, err := os.Open(sc.TraceFile)
	if err != nil {
		return nil, fmt.Errorf("experiment: trace file: %w", err)
	}
	defer f.Close()
	byID, err := mobility.ParseNS2(f)
	if err != nil {
		return nil, err
	}
	models := make([]mobility.Model, sc.NumPeers)
	for i := range models {
		m, ok := byID[i]
		if !ok {
			return nil, fmt.Errorf("experiment: trace %s has no node %d (need 0..%d)",
				sc.TraceFile, i, sc.NumPeers-1)
		}
		models[i] = m
	}
	return models, nil
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario     Scenario
	Report       metrics.AdReport
	DeliveryRate float64 // percent
	DeliveryTime float64 // mean seconds over delivered entrants
	Messages     float64 // network-wide ad frames during the life cycle
	Bytes        float64
	EnergyJ      float64 // radio energy spent, joules (0 unless MeasureEnergy)
	Utilization  float64 // network-wide airtime / sim time (congestion proxy)
	LoadGini     float64 // inequality of per-peer transmission counts, [0,1)
	Duplicates   uint64
	Evictions    uint64
	// Coverage is the urban coverage metric: the peak sampled fraction of
	// in-area road length within radio range of an informed peer, 0–1. Always
	// 0 for non-road scenarios.
	Coverage float64
	// Snapshot freezes the run's sim_* registry at exit — executor batch and
	// phase metrics plus the collector's counters and histograms.
	Snapshot *obs.Snapshot
}

// Sim is a fully assembled simulation: engine, network and metrics, built
// from a Scenario but not yet run and with no advertisement injected. It is
// the building block for multi-ad and interactive workloads; Scenario.Run is
// the single-ad convenience on top of it.
type Sim struct {
	Scenario Scenario
	Engine   *sim.Simulator
	Net      *core.Network
	Metrics  *metrics.Collector
	// Registry holds the run's sim_* instruments: the executor's batch and
	// phase metrics plus the collector's traffic counters and delivery-time/
	// postponement histograms. Snapshot or expose it after Engine.Run.
	Registry *obs.Registry

	rnd *rng.Stream
	// extraObs are observers attached via Observe, re-composed with the
	// metrics collector on every call.
	extraObs []core.Observer
}

// Observe chains additional observers after the metrics collector — the
// variadic composer that replaces juggling Network.SetObserver by hand.
// Call before the simulation runs; each call appends (nils are skipped).
func (sm *Sim) Observe(obs ...core.Observer) {
	sm.extraObs = append(sm.extraObs, obs...)
	all := append([]core.Observer{sm.Metrics}, sm.extraObs...)
	sm.Net.SetObserver(core.MultiObserver(all...))
}

// Build assembles the simulation for this scenario: mobility models, radio
// channel, protocol network and metrics collector, all seeded from
// Scenario.Seed. Gossip schedulers are started; the caller schedules ads
// (ScheduleAd) and then drives Engine.Run.
func (sc Scenario) Build() (*Sim, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rnd := rng.New(sc.Seed)
	graph, err := sc.roadGraph()
	if err != nil {
		return nil, err
	}
	peds := sc.pedestrianFlags(rnd.Split("devices"))
	models, maxSpeed, err := sc.buildModels(rnd.Split("models"), peds, graph)
	if err != nil {
		return nil, err
	}
	cfg := sc.coreConfig()
	if sc.NumRSU > 0 {
		// Roadside units are appended after the mobile fleet as static peers
		// pinned at the chosen intersections.
		place, err := roadnet.ParsePlacement(sc.RSUPlacement)
		if err != nil {
			return nil, err
		}
		nodes, err := roadnet.PlaceRSUs(graph, sc.NumRSU, place, rnd.Split("rsu"))
		if err != nil {
			return nil, err
		}
		for i, nd := range nodes {
			models = append(models, mobility.NewStatic(graph.Pos(nd)))
			cfg.RSUPeers = append(cfg.RSUPeers, sc.NumPeers+i)
		}
	}
	s := sim.New()
	net, err := core.New(s, sc.radioConfig(maxSpeed), models, cfg, rnd.Split("protocol"))
	if err != nil {
		return nil, err
	}
	if sc.PedestrianFraction > 0 {
		for i, isPed := range peds {
			if isPed {
				if err := net.Channel().SetNodeRange(i, sc.pedestrianRange()); err != nil {
					return nil, err
				}
			}
		}
	}
	if r := sc.rsuRange(); sc.NumRSU > 0 && r != sc.TxRange {
		for _, id := range net.RSUs() {
			if err := net.Channel().SetNodeRange(id, r); err != nil {
				return nil, err
			}
		}
	}
	col := metrics.NewCollector(s, net.Channel(), net.Config().Params, sc.SampleEvery)
	reg := obs.NewRegistry()
	s.SetRegistry(reg)
	col.InstrumentWith(reg)
	net.Channel().InstrumentWith(reg)
	net.InstrumentWith(reg)
	if graph != nil {
		col.EnableRoadCoverage(metrics.NewRoadCoverage(graph, 0), reg)
		g := graph
		reg.GaugeFunc("sim_road_edges", "road segments in the scenario's network",
			func() float64 { return float64(g.M()) })
		numMobile := sc.NumPeers
		reg.GaugeFunc("sim_road_peers", "mobile peers confined to the road network",
			func() float64 { return float64(numMobile) })
	}
	net.SetObserver(col)
	net.Start()
	if sc.ChurnOnMean > 0 {
		armChurn(s, net, sc, rnd.Split("churn"))
	}
	return &Sim{Scenario: sc, Engine: s, Net: net, Metrics: col, Registry: reg, rnd: rnd}, nil
}

// armChurn gives every mobile peer an alternating exponential on/off radio
// cycle. Roadside units (appended after the mobile fleet) are mains-powered
// infrastructure and never churn.
func armChurn(s *sim.Simulator, net *core.Network, sc Scenario, rnd *rng.Stream) {
	for i := 0; i < sc.NumPeers; i++ {
		i := i
		r := rnd.SplitIndex("peer", i)
		var flip func(online bool)
		flip = func(online bool) {
			mean := sc.ChurnOnMean
			if !online {
				mean = sc.ChurnOffMean
			}
			s.After(r.Exp(1/mean), func() {
				_ = net.SetPeerOnline(i, !online)
				flip(!online)
			})
		}
		flip(true)
	}
}

// Rand returns a stream derived from the scenario seed for workload
// randomness (interest assignment, ad arrival processes) so whole workloads
// stay reproducible.
func (sm *Sim) Rand(label string) *rng.Stream { return sm.rnd.Split(label) }

// Trace attaches a JSONL event recorder writing to w, chained after the
// metrics collector. Call before the simulation runs; flush the returned
// recorder after Engine.Run.
func (sm *Sim) Trace(w io.Writer) *trace.Recorder {
	rec := trace.NewRecorder(w, sm.Net.Channel())
	sm.Observe(rec)
	return rec
}

// ScheduleAd arranges for the peer nearest to `at` (at issue time) to issue
// the given ad at time t — the paper issues from a fixed location, so the
// nearest device plays the shop employee. The returned handle carries the
// issued ad — or the issue error — once the simulation passes t.
func (sm *Sim) ScheduleAd(t float64, at geo.Point, spec core.AdSpec) *AdHandle {
	h := &AdHandle{}
	sm.Engine.Schedule(t, func() {
		h.Ad, h.Err = sm.Net.IssueAd(sm.Net.Channel().NearestNode(at), spec)
	})
	return h
}

// AdHandle carries the outcome of a scheduled ad issue.
type AdHandle struct {
	Ad  *ads.Advertisement
	Err error
}

// Run executes the scenario once and reports the paper's metrics for its
// single advertisement.
func (sc Scenario) Run() (Result, error) {
	sm, err := sc.Build()
	if err != nil {
		return Result{}, err
	}
	h := sm.ScheduleAd(sc.IssueTime, sc.issueAt(), core.AdSpec{
		R: sc.R, D: sc.D, Category: sc.Category,
		Text: "scenario advertisement",
	})
	if sc.IssuerOfflineAfter > 0 {
		sm.Engine.Schedule(sc.IssueTime+sc.IssuerOfflineAfter, func() {
			// A roadside unit playing the issuer is fixed infrastructure: it
			// cannot pocket its radio and walk away.
			if h.Ad != nil && !sm.Net.Peer(int(h.Ad.ID.Issuer)).IsRSU() {
				_ = sm.Net.SetPeerOnline(int(h.Ad.ID.Issuer), false)
			}
		})
	}
	sm.Engine.Run(sc.SimTime)
	if h.Err != nil {
		return Result{}, h.Err
	}
	if h.Ad == nil {
		return Result{}, fmt.Errorf("experiment: ad was never issued")
	}
	rep, err := sm.Metrics.Report(h.Ad.ID)
	if err != nil {
		return Result{}, err
	}
	snap := sm.Registry.Snapshot()
	return Result{
		Scenario:     sc,
		Report:       rep,
		Snapshot:     &snap,
		DeliveryRate: rep.DeliveryRate,
		DeliveryTime: rep.DeliveryTimes.Mean,
		Messages:     float64(rep.Messages),
		Bytes:        float64(rep.Bytes),
		EnergyJ:      sm.Net.Channel().Energy().TotalJ,
		Utilization:  sm.Net.Channel().Utilization(),
		LoadGini:     sm.Metrics.LoadGini(),
		Duplicates:   sm.Metrics.Duplicates(),
		Evictions:    sm.Metrics.Evictions(),
		Coverage:     rep.RoadCoverage,
	}, nil
}

// Aggregate is the cross-seed summary of a replicated scenario.
type Aggregate struct {
	Scenario     Scenario
	Reps         int
	DeliveryRate stats.Summary
	DeliveryTime stats.Summary
	Messages     stats.Summary
}

// RunReplicated executes the scenario reps times with seeds Seed, Seed+1, …
// and summarizes the three paper metrics. It is a one-point sweep: the
// replicas run on parallel workers and are aggregated in seed order, keeping
// the summary deterministic.
func RunReplicated(sc Scenario, reps int) (Aggregate, error) {
	runs, err := sweep(RunOpts{Reps: reps}, []point{{label: sc.Protocol.String(), sc: sc}}, runScenario, nil)
	if err != nil {
		return Aggregate{}, err
	}
	var rates, times, msgs []float64
	for _, r := range runs[0] {
		rates = append(rates, r.DeliveryRate)
		times = append(times, r.DeliveryTime)
		msgs = append(msgs, r.Messages)
	}
	return Aggregate{
		Scenario:     sc,
		Reps:         reps,
		DeliveryRate: stats.Summarize(rates),
		DeliveryTime: stats.Summarize(times),
		Messages:     stats.Summarize(msgs),
	}, nil
}
