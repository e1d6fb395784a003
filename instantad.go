// Package instantad reproduces "Instant Advertising in Mobile Peer-to-Peer
// Networks" (Chen, Shen, Xu, Zhou — ICDE 2009): an opportunistic-gossiping
// system for disseminating instant, location-aware advertisements over
// short-range mobile wireless networks, together with the discrete-event
// wireless simulator the paper evaluates it in.
//
// # Quick start
//
//	sc := instantad.DefaultScenario()   // the paper's canonical setup
//	sc.Protocol = instantad.GossipOpt   // "Optimized Gossiping"
//	res, err := sc.Run()
//	// res.DeliveryRate, res.DeliveryTime, res.Messages
//
// A Scenario describes a field of mobile peers (Random Waypoint by default),
// a wireless channel, one of the paper's five protocols, and the
// advertisement under evaluation. Run executes it and reports the paper's
// three metrics. For multi-ad or interactive workloads, Build assembles the
// simulation and leaves ad injection to the caller:
//
//	sim, _ := sc.Build()
//	h := sim.ScheduleAd(60, instantad.Point{X: 750, Y: 750}, instantad.AdSpec{
//	    R: 500, D: 180, Category: "grocery", Text: "Fresh fruit 20% off",
//	})
//	sim.Engine.Run(sc.SimTime)
//	report, _ := sim.Metrics.Report(h.Ad.ID)
//
// # Protocols
//
// Flooding is the paper's Restricted Flooding baseline. Gossip is pure
// Opportunistic Gossiping (Formulas 1–2, Algorithms 1–2). GossipOpt1 adds
// the velocity-constrained annular probability (Formula 3), GossipOpt2 the
// overhearing postponement (Formula 4, Algorithms 3–4), and GossipOpt both —
// the paper's headline "Optimized Gossiping". Beyond the paper's five,
// RelevanceExchange is the related-work encounter-exchange comparator and
// AsyncGossip replaces the shared round clock with asynchronous pairwise
// exchanges in the mobile telephone model (per-peer exponential timers, at
// most Scenario.AsyncK simultaneous connections).
//
// # Popularity ranking
//
// Enable PopularityConfig to attach FM sketches to ads (Section III.E):
// peers whose interests match an ad hash their user ID into the sketches,
// the rank estimates the number of distinct interested users, and popular
// ads grow their advertising radius and lifetime (Formula 7).
//
// # Reproducing the paper's figures
//
// The Fig* functions regenerate every figure of the evaluation section as
// printable series; see also cmd/figures and bench_test.go.
package instantad

import (
	"io"

	"instantad/internal/ads"
	"instantad/internal/campaign"
	"instantad/internal/core"
	"instantad/internal/experiment"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/trace"
	"instantad/internal/workload"
)

// Core geometry and scenario types.
type (
	// Point is a 2-D location in meters.
	Point = geo.Point
	// Vec is a 2-D displacement or velocity.
	Vec = geo.Vec
	// Scenario fully describes one simulation run.
	Scenario = experiment.Scenario
	// Result is the outcome of a single-ad scenario run.
	Result = experiment.Result
	// Aggregate summarizes replicated runs.
	Aggregate = experiment.Aggregate
	// Sim is an assembled simulation awaiting ads and Run.
	Sim = experiment.Sim
	// AdHandle resolves to the issued ad after its schedule time passes.
	AdHandle = experiment.AdHandle
	// RunOpts tunes figure generation.
	RunOpts = experiment.RunOpts
	// Figure is a reproduced plot as printable series.
	Figure = experiment.Figure
	// Series is one labeled curve.
	Series = experiment.Series
	// MobilityKind selects the movement model.
	MobilityKind = experiment.MobilityKind
)

// Protocol and advertisement types.
type (
	// Protocol selects a dissemination scheme.
	Protocol = core.Protocol
	// AdSpec describes an advertisement to issue.
	AdSpec = core.AdSpec
	// PopularityConfig enables FM-sketch interest ranking.
	PopularityConfig = core.PopularityConfig
	// ProbParams are the α/β tuning parameters of the propagation model.
	ProbParams = core.ProbParams
	// Advertisement is a disseminated instant ad.
	Advertisement = ads.Advertisement
	// AdID identifies an advertisement network-wide.
	AdID = ads.ID
	// AdReport is a per-ad metrics report.
	AdReport = metrics.AdReport
	// Sketch is a Flajolet–Martin distinct-count sketch (exported for reuse
	// beyond the advertising protocol).
	Sketch = fm.Sketch
	// InterestConfig controls workload interest assignment.
	InterestConfig = workload.InterestConfig
	// Rand is a deterministic splittable random stream.
	Rand = rng.Stream
)

// Observability seam. Observers watch protocol events as a simulation runs;
// compose any number with MultiObserver (or Sim.Observe, which chains them
// after the built-in metrics collector). Registries hold the quantitative
// side — counters, gauges and histograms fed by the simulator, the metrics
// collector and the live node daemon — exposable as Prometheus text or a
// JSON Snapshot.
type (
	// Observer receives protocol events (issue, broadcast, receive, …).
	Observer = core.Observer
	// BaseObserver is a no-op Observer to embed so implementations only
	// spell out the events they care about.
	BaseObserver = core.BaseObserver
	// PostponeObserver is the optional extension interface for Optimization
	// Mechanism 2's postponement events (Formula 4); observers that
	// implement it alongside Observer receive OnPostpone callbacks.
	PostponeObserver = core.PostponeObserver
	// TraceRecorder streams protocol events as JSONL (see Sim.Trace).
	TraceRecorder = trace.Recorder
	// TraceEvent is one line of a JSONL protocol trace.
	TraceEvent = trace.Event
	// TraceKind enumerates trace event types.
	TraceKind = trace.Kind
	// TraceSummary aggregates a trace (event counts, span, per-ad totals).
	TraceSummary = trace.Summary
	// TraceAnalysis is the per-ad deep summary of a trace.
	TraceAnalysis = trace.Analysis
	// Registry is a set of named metric instruments.
	Registry = obs.Registry
	// Snapshot is a Registry's point-in-time JSON-friendly state.
	Snapshot = obs.Snapshot
	// HistogramSnapshot is one histogram's state within a Snapshot.
	HistogramSnapshot = obs.HistogramSnapshot
)

// MultiObserver composes observers into one that fans every event out to
// each, in order. Nil members are skipped; composing none yields a no-op.
// With Sim.Observe this replaces juggling the network's single observer
// slot by hand.
func MultiObserver(observers ...Observer) Observer { return core.MultiObserver(observers...) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ReadTrace parses a JSONL protocol trace.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return trace.Read(r) }

// SummarizeTrace aggregates a parsed trace.
func SummarizeTrace(events []TraceEvent) (TraceSummary, error) { return trace.Summarize(events) }

// AnalyzeTrace computes the per-ad deep summary of a parsed trace.
func AnalyzeTrace(events []TraceEvent) (TraceAnalysis, error) { return trace.Analyze(events) }

// EvictionPolicy selects the cache-overflow victim rule.
type EvictionPolicy = core.EvictionPolicy

// Cache eviction policies: the paper's lowest-probability rule plus the
// FIFO and random ablations.
const (
	EvictLowestProb  = core.EvictLowestProb
	EvictOldestFirst = core.EvictOldestFirst
	EvictRandomEntry = core.EvictRandomEntry
)

// The five protocols, in the paper's plot order, plus the related-work
// comparator.
const (
	Flooding   = core.Flooding
	Gossip     = core.Gossip
	GossipOpt1 = core.GossipOpt1
	GossipOpt2 = core.GossipOpt2
	GossipOpt  = core.GossipOpt
	// RelevanceExchange is the Opportunistic Resource Exchange model from
	// the paper's related work (relevance-ranked exchange at encounter),
	// implemented as a comparator.
	RelevanceExchange = core.RelevanceExchange
	// AsyncGossip is the asynchronous pairwise family (mobile telephone
	// model): no shared round instant; each peer proposes exchanges on its
	// own exponential clock and holds at most Scenario.AsyncK connections.
	AsyncGossip = core.AsyncGossip
)

// Mobility models.
const (
	RandomWaypoint = experiment.RandomWaypoint
	RandomWalk     = experiment.RandomWalk
	Manhattan      = experiment.Manhattan
	// RPGM moves peers in cohesive groups (Reference Point Group Mobility).
	RPGM = experiment.RPGM
	// Road constrains peers to a road graph: vehicles follow shortest paths
	// between intersections (the urban VANET scenario family).
	Road = experiment.Road
)

// DefaultScenario returns the paper's canonical parameter setting (Table
// II/III as calibrated in DESIGN.md).
func DefaultScenario() Scenario { return experiment.DefaultScenario() }

// Protocols lists the paper's five protocols in its plot order.
func Protocols() []Protocol { return core.Protocols() }

// AllProtocols lists every implemented protocol, including the related-work
// Relevance Exchange comparator.
func AllProtocols() []Protocol { return core.AllProtocols() }

// ParseProtocol converts a protocol name back to a Protocol value.
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// ParseMobility converts a mobility-model name (as produced by
// MobilityKind.String) back to a MobilityKind.
func ParseMobility(s string) (MobilityKind, error) { return experiment.ParseMobility(s) }

// ParseEviction converts an eviction-policy name (as produced by
// EvictionPolicy.String) back to an EvictionPolicy.
func ParseEviction(s string) (EvictionPolicy, error) { return core.ParseEviction(s) }

// RunReplicated executes a scenario across consecutive seeds and aggregates
// the three paper metrics.
func RunReplicated(sc Scenario, reps int) (Aggregate, error) {
	return experiment.RunReplicated(sc, reps)
}

// NewRand returns a deterministic random stream for workload construction.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewSketch returns an empty FM multi-sketch with f bitmaps of l bits,
// sharing the hash family selected by seed.
func NewSketch(f, l int, seed uint64) *Sketch { return fm.New(f, l, seed) }

// AssignInterests gives every peer in the simulation a random interest set.
func AssignInterests(s *Sim, cfg InterestConfig, rnd *Rand) {
	workload.AssignInterests(s.Net, cfg, rnd)
}

// Categories lists the built-in instant-ad categories.
func Categories() []string { return append([]string(nil), workload.Categories...) }

// AdText returns a plausible payload for a category.
func AdText(category string, seq int) string { return workload.AdText(category, seq) }

// Figure generators — one per figure/table of the paper's evaluation.
var (
	// Fig2 is Formula 1's probability-vs-distance curves.
	Fig2 = experiment.Fig2
	// Fig3 is Formula 2's radius-vs-age curves.
	Fig3 = experiment.Fig3
	// Fig5 is Formula 3's annular probability curve.
	Fig5 = experiment.Fig5
	// Fig7 is the three metrics vs network size for five protocols.
	Fig7 = experiment.Fig7
	// Fig8 is the three metrics vs motion speed.
	Fig8 = experiment.Fig8
	// Fig9 is the message reduction of each optimization mechanism.
	Fig9 = experiment.Fig9
	// Fig10a tunes α; Fig10b the gossip round time; Fig10c DIS.
	Fig10a = experiment.Fig10a
	Fig10b = experiment.Fig10b
	Fig10c = experiment.Fig10c
	// FigBetaSensitivity quantifies the "β is negligible" remark.
	FigBetaSensitivity = experiment.FigBetaSensitivity
	// FigFMAccuracy validates the FM-sketch rank estimator.
	FigFMAccuracy = experiment.FigFMAccuracy
	// FigAdContention is this repo's extension: delivery under concurrent
	// overlapping ads competing for the top-k cache.
	FigAdContention = experiment.FigAdContention
	// FigPopularityDynamics is this repo's extension: FM rank and enlarged
	// radius over time for a popular vs a niche ad.
	FigPopularityDynamics = experiment.FigPopularityDynamics
	// FigSpreadCurve is this repo's extension: ad penetration over time per
	// protocol.
	FigSpreadCurve = experiment.FigSpreadCurve
	// FigComparator pits Optimized Gossiping against the related-work
	// Relevance Exchange model.
	FigComparator = experiment.FigComparator
	// FigRSUCoverage is the urban VANET extension: road coverage, delivery
	// and message cost versus roadside-unit count.
	FigRSUCoverage = experiment.FigRSUCoverage
	// FigAsync compares the asynchronous pairwise family (k = 1…3, with and
	// without churn) against broadcast gossip: spread time and message cost
	// across network density.
	FigAsync = experiment.FigAsync
)

// SensitivityReport is the tornado analysis of the tuning knobs.
type SensitivityReport = experiment.SensitivityReport

// Sensitivity perturbs each tuning knob around the canonical setting and
// ranks them by impact on the paper's metrics.
func Sensitivity(o RunOpts) (SensitivityReport, error) { return experiment.Sensitivity(o) }

// MultiAdSummary aggregates a run with several concurrent advertisements.
type MultiAdSummary = experiment.MultiAdSummary

// RunMultiAd executes a scenario with numAds concurrent overlapping ads.
func RunMultiAd(sc Scenario, numAds int) (MultiAdSummary, error) {
	return experiment.RunMultiAd(sc, numAds)
}

// Campaign types: a continuous Poisson advertising workload over one
// simulation — many issuers, many categories, overlapping life cycles.
type (
	// CampaignConfig parameterizes a continuous advertising workload.
	CampaignConfig = campaign.Config
	// CampaignReport aggregates a campaign's delivery and traffic.
	CampaignReport = campaign.Report
)

// RunCampaign executes a continuous advertising workload over the scenario.
func RunCampaign(sc Scenario, cfg CampaignConfig) (CampaignReport, error) {
	return campaign.Run(sc, cfg)
}

// CampaignSweep runs the campaign at several arrival rates (ads/minute) and
// returns the capacity curve.
func CampaignSweep(sc Scenario, base CampaignConfig, adsPerMinute []float64) ([]CampaignReport, error) {
	return campaign.Sweep(sc, base, adsPerMinute)
}

// FigCapacity renders the campaign capacity curve as a figure.
func FigCapacity(sc Scenario, base CampaignConfig, adsPerMinute []float64) (Figure, error) {
	return campaign.FigCapacity(sc, base, adsPerMinute)
}

// Campaign control plane: the long-lived service layer behind cmd/campaignd.
// A Store holds campaigns, a Fleet is a captive load farm of live gossip
// nodes over the in-memory medium, a Scheduler turns campaign rates into
// real ad injections under Admission backpressure, and a Server wraps the
// three in the versioned HTTP API with checkpoint/restore durability.
type (
	// CampaignSpec is the JSON campaign description issuers POST.
	CampaignSpec = campaign.Spec
	// CampaignArea is a campaign's spatial footprint.
	CampaignArea = campaign.Area
	// CampaignStatus is the issuer-facing delivery view of one campaign.
	CampaignStatus = campaign.Status
	// CampaignState is a campaign's lifecycle phase.
	CampaignState = campaign.State
	// CampaignStore holds every accepted campaign, checkpointable as a unit.
	CampaignStore = campaign.Store
	// CampaignScheduler drives a store against a live fleet.
	CampaignScheduler = campaign.Scheduler
	// CampaignServer is the assembled control plane behind cmd/campaignd.
	CampaignServer = campaign.Server
	// CampaignServerConfig assembles a CampaignServer.
	CampaignServerConfig = campaign.ServerConfig
	// FleetConfig sizes a captive load farm of live nodes.
	FleetConfig = campaign.FleetConfig
	// Fleet is a live in-process deployment of gossip nodes.
	Fleet = campaign.Fleet
	// AdmissionConfig is the control plane's backpressure policy.
	AdmissionConfig = campaign.Admission
)

// Campaign lifecycle states.
const (
	CampaignPending   = campaign.StatePending
	CampaignActive    = campaign.StateActive
	CampaignDone      = campaign.StateDone
	CampaignCancelled = campaign.StateCancelled
)

// NewCampaignStore returns an empty campaign store.
func NewCampaignStore() *CampaignStore { return campaign.NewStore() }

// NewFleet builds and starts a captive load farm of live gossip nodes.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return campaign.NewFleet(cfg) }

// NewCampaignServer assembles the control plane: restore from checkpoint,
// replay live ads, start the scheduler. Serve its Handler; stop with
// Shutdown.
func NewCampaignServer(cfg CampaignServerConfig) (*CampaignServer, error) {
	return campaign.NewServer(cfg)
}
