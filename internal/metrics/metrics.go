// Package metrics implements the paper's three evaluation metrics
// (Section IV):
//
//   - Delivery Rate: the percentage of peers that passed through an ad's
//     advertising area during its life cycle and received the ad;
//   - Delivery Time: how long after entering the area a peer first received
//     the ad (0 when it already had it on entry);
//   - Number of Messages: total advertisement frames broadcast network-wide
//     (plus bytes, for bandwidth accounting).
//
// The Collector implements core.Observer for the protocol-event side and
// samples peer trajectories once per SampleEvery seconds for the area side.
// Between samples, entries into the (shrinking) advertising area are
// detected exactly on the sampled chord via segment–circle intersection, so
// fast peers cannot tunnel through the boundary unnoticed.
//
// A tick does not test every peer against every ad. A chord that touches the
// circle of radius R_t ends within R_t + V_max·Δ of the origin (Δ the tick),
// so only the peers the radio snapshot places that close are evaluated, and
// an ad's ledger holds only the peers near enough at issue time to reach the
// area, or to cover road inside it, before the life cycle ends. Both bounds
// take V_max from radio.Config.MaxSpeed: entry detection is exact given that
// no peer moves faster. A scenario must therefore configure the true bound of
// its mobility models (experiment.Scenario derives it from them). The
// collector reads the snapshot and never refreshes it, so attaching one
// cannot change what a run computes (see radio.AppendSnapshotCandidates).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/sim"
	"instantad/internal/stats"
)

// Collector gathers per-advertisement delivery metrics and network-wide
// traffic counts. It must be installed with Network.SetObserver before the
// simulation starts. One Collector serves any number of ads.
type Collector struct {
	core.BaseObserver

	sim         *sim.Simulator
	ch          *radio.Channel
	params      core.ProbParams
	sampleEvery float64

	tracked map[ads.ID]*adTrack
	prevT   float64 // the previous sample tick: where this tick's chords start
	cand    []int32 // candidate-query scratch, reused across ads and ticks

	totalMessages uint64
	totalBytes    uint64
	duplicates    uint64
	evictions     uint64
	expirations   uint64
	perPeerTx     []float64

	// roadCov measures the urban road-coverage metric when enabled (see
	// coverage.go); lastCoverage is the most recent sampled fraction, fed to
	// the sim_road_coverage gauge.
	roadCov      *RoadCoverage
	lastCoverage float64

	// Registry instruments, nil until InstrumentWith (see there).
	obsMessages    *obs.Counter
	obsBytes       *obs.Counter
	obsDuplicates  *obs.Counter
	obsEvictions   *obs.Counter
	obsExpirations *obs.Counter
	obsDelivery    *obs.Histogram
	obsPostpone    *obs.Histogram
	obsSample      *obs.Histogram
}

// boundEps pads the two candidate bounds, in meters, so that rounding in the
// bound itself can never exclude a peer moving at exactly MaxSpeed whose
// chord ends tangent to the circle.
const boundEps = 1e-6

// adTrack is the per-advertisement ledger.
type adTrack struct {
	origin   geo.Point
	issuedAt float64
	r, d     float64 // initial propagation parameters (life-cycle definition)
	// report is the ad's final report, stored at the first sample tick after
	// its life cycle ended (R_t = 0). Nothing writes the ledger after that, so
	// the columns, the bit sets and covDist are released then.
	report *AdReport

	// member is the N-bit set of the peers that can matter to this ad (see
	// OnIssue), pending the members that have not entered the area yet. A
	// member's slot in the three columns is its rank among the members (see
	// slot), so slots ascend by peer id.
	member, pending []uint64
	base            []int32 // base[w] counts the members in the words before member[w]
	enterTime       []float64
	received        []bool
	receiveTime     []float64

	messages, bytes uint64

	// Road-coverage state, populated only when the collector has a measurer:
	// covDist caches each road sample point's distance to the ad origin,
	// coverage is the sampled coverage-vs-budget trajectory and covPeak its
	// running maximum.
	covDist  []float64
	coverage []CoveragePoint
	covPeak  float64
}

// has reports whether peer i is in the bit set s.
func has(s []uint64, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// slot returns member i's slot in the columns: the members before its word,
// plus those below it in its word.
func (tr *adTrack) slot(i int) int {
	return int(tr.base[i>>6]) + bits.OnesCount64(tr.member[i>>6]&(1<<(i&63)-1))
}

// each calls f with every member's slot and peer id, in ascending order.
func (tr *adTrack) each(f func(k, i int)) {
	k := 0
	for w, m := range tr.member {
		for ; m != 0; m &= m - 1 {
			f(k, w<<6|bits.TrailingZeros64(m))
			k++
		}
	}
}

// NewCollector builds a collector sampling positions every sampleEvery
// seconds (1 s unless positive and finite). params must match the network's
// tuning parameters so the ground-truth advertising radius R_t agrees with the
// protocol's.
func NewCollector(s *sim.Simulator, ch *radio.Channel, params core.ProbParams, sampleEvery float64) *Collector {
	if !(sampleEvery > 0 && sampleEvery <= math.MaxFloat64) {
		sampleEvery = 1
	}
	c := &Collector{
		sim:         s,
		ch:          ch,
		params:      params,
		sampleEvery: sampleEvery,
		tracked:     make(map[ads.ID]*adTrack),
		perPeerTx:   make([]float64, ch.N()),
	}
	s.Every(sampleEvery, sampleEvery, c.sample)
	return c
}

// InstrumentWith registers the collector's sim-fed instruments in reg and
// starts feeding them from the observer chain: traffic and cache-churn
// counters, a tracked-ads gauge, and the paper's two distributional metrics
// as histograms — delivery time (seconds from area entry to first receipt,
// Section IV) and postponement delay (Formula 4, Optimization Mechanism 2).
// Delivery-time buckets are observed in virtual seconds. The one wall-clock
// instrument is the collector's own cost: seconds per sample tick.
func (c *Collector) InstrumentWith(reg *obs.Registry) {
	c.obsMessages = reg.Counter("sim_messages_total",
		"advertisement frames broadcast network-wide")
	c.obsBytes = reg.Counter("sim_bytes_total",
		"advertisement bytes broadcast network-wide")
	c.obsDuplicates = reg.Counter("sim_duplicates_total",
		"duplicate ad receptions")
	c.obsEvictions = reg.Counter("sim_evictions_total",
		"cache evictions")
	c.obsExpirations = reg.Counter("sim_expirations_total",
		"ads dropped on expiry")
	c.obsDelivery = reg.Histogram("sim_delivery_time_seconds",
		"virtual seconds from advertising-area entry to first receipt",
		obs.ExpBuckets(0.125, 2, 14))
	c.obsPostpone = reg.Histogram("sim_postpone_delay_seconds",
		"virtual seconds each overhearing postponed a gossip (Formula 4)",
		obs.ExpBuckets(0.125, 2, 12))
	c.obsSample = reg.Histogram("sim_collector_sample_seconds",
		"wall-clock time of one collector sample tick (area entries and road coverage of every live ad)",
		obs.ExpBuckets(1e-6, 4, 12))
	reg.GaugeFunc("sim_tracked_ads", "advertisements under measurement",
		func() float64 {
			live := 0
			for _, tr := range c.tracked {
				if tr.report == nil {
					live++
				}
			}
			return float64(live)
		})
}

// OnIssue starts tracking an ad at the current simulation time t: peers
// already inside the area count as entered at issue time.
//
// The ledger keeps only peers within r + V_max·(d + tick) + the longest radio
// range of the origin now. R_t never exceeds r and is 0 after d, a peer moves
// at most V_max·d in that time, and the first chord sampled reaches back at
// most one tick before t, so nobody else can enter the area or, once
// informed, cover road inside it: their receipts change no report and are
// dropped.
func (c *Collector) OnIssue(issuer int, ad *ads.Advertisement, t float64) {
	tr := &adTrack{origin: ad.Origin, issuedAt: t, r: ad.R, d: ad.D}
	reach := tr.r + c.ch.MaxSpeed()*(tr.d+c.sampleEvery) + c.ch.MaxRange() + boundEps
	circle := geo.Circle{C: tr.origin, R: core.RadiusAt(c.params, tr.r, tr.d, 0)}
	words := (c.ch.N() + 63) / 64
	tr.member, tr.pending, tr.base = make([]uint64, words), make([]uint64, words), make([]int32, words)
	c.cand = c.ch.AppendSnapshotCandidates(c.cand[:0], tr.origin, reach)
	for _, i := range c.cand {
		p := c.ch.PositionAt(int(i), t)
		if p.Dist2(tr.origin) <= reach*reach {
			tr.member[i>>6] |= 1 << (i & 63)
			if !circle.Contains(p) {
				tr.pending[i>>6] |= 1 << (i & 63)
			}
		}
	}
	members := 0
	for w, m := range tr.member {
		tr.base[w] = int32(members)
		members += bits.OnesCount64(m)
	}
	tr.enterTime = make([]float64, members)
	tr.received = make([]bool, members)
	tr.receiveTime = make([]float64, members)
	tr.each(func(k, i int) {
		if !has(tr.pending, i) {
			tr.enterTime[k] = t
		}
	})
	if c.roadCov != nil {
		tr.covDist = c.roadCov.DistancesFrom(tr.origin)
	}
	c.tracked[ad.ID] = tr
}

// OnBroadcast accumulates message and byte counts.
func (c *Collector) OnBroadcast(peer int, id ads.ID, bytes int, t float64) {
	c.totalMessages++
	c.totalBytes += uint64(bytes)
	if c.obsMessages != nil {
		c.obsMessages.Inc()
		c.obsBytes.Add(uint64(bytes))
	}
	if peer >= 0 && peer < len(c.perPeerTx) {
		c.perPeerTx[peer]++
	}
	if tr, ok := c.tracked[id]; ok && tr.report == nil {
		tr.messages++
		tr.bytes += uint64(bytes)
	}
}

// OnFirstReceive records a peer's first contact with an ad.
func (c *Collector) OnFirstReceive(peer int, ad *ads.Advertisement, t float64) {
	tr, ok := c.tracked[ad.ID]
	if !ok || tr.report != nil || !has(tr.member, peer) {
		return
	}
	k := tr.slot(peer)
	if tr.received[k] {
		return
	}
	tr.received[k] = true
	tr.receiveTime[k] = t
	// Peers already inside the area have a measurable delivery time now;
	// peers that receive before entering contribute a 0 on entry (sample).
	if c.obsDelivery != nil && !has(tr.pending, peer) {
		c.obsDelivery.Observe(math.Max(0, t-tr.enterTime[k]))
	}
}

// OnPostpone feeds the postponement-delay histogram (Formula 4). The
// Collector is a core.PostponeObserver only so far as it is instrumented.
func (c *Collector) OnPostpone(peer int, id ads.ID, delay float64, t float64) {
	if c.obsPostpone != nil {
		c.obsPostpone.Observe(delay)
	}
}

// OnDuplicate counts duplicate receptions.
func (c *Collector) OnDuplicate(int, ads.ID, float64) {
	c.duplicates++
	if c.obsDuplicates != nil {
		c.obsDuplicates.Inc()
	}
}

// OnEvict counts cache evictions.
func (c *Collector) OnEvict(int, ads.ID, float64) {
	c.evictions++
	if c.obsEvictions != nil {
		c.obsEvictions.Inc()
	}
}

// OnExpire counts expiry drops.
func (c *Collector) OnExpire(int, ads.ID, float64) {
	c.expirations++
	if c.obsExpirations != nil {
		c.obsExpirations.Inc()
	}
}

// sample advances the area-crossing detector one step (and, when enabled,
// the road-coverage measurer). Each live ad tests only the pending members
// whose position now is within R_t plus one tick's travel of the origin, found
// through the radio snapshot; nobody else's chord can touch the circle.
func (c *Collector) sample() {
	var start time.Time
	if c.obsSample != nil {
		start = time.Now()
	}
	now := c.sim.Now()
	travel := c.ch.MaxSpeed()*(now-c.prevT) + boundEps
	maxCov := 0.0
	for id, tr := range c.tracked {
		if tr.report != nil {
			continue
		}
		age := now - tr.issuedAt
		rt := core.RadiusAt(c.params, tr.r, tr.d, age)
		if rt <= 0 {
			rep := tr.measure(id)
			tr.report = &rep
			tr.member, tr.pending, tr.base = nil, nil, nil
			tr.enterTime, tr.received, tr.receiveTime, tr.covDist = nil, nil, nil, nil
			continue
		}
		if c.roadCov != nil {
			if frac := c.coverAd(tr, now, rt); frac > maxCov {
				maxCov = frac
			}
		}
		circle := geo.Circle{C: tr.origin, R: rt}
		reach := rt + travel
		c.cand = c.ch.AppendSnapshotCandidates(c.cand[:0], tr.origin, reach)
		for _, id := range c.cand {
			i := int(id)
			if !has(tr.pending, i) {
				continue
			}
			pos := c.ch.PositionOf(i)
			if pos.Dist2(tr.origin) > reach*reach {
				continue
			}
			if f, hit := geo.SegmentCircleHit(c.ch.PositionAt(i, c.prevT), pos, circle); hit {
				tr.pending[i>>6] &^= 1 << (i & 63)
				k := tr.slot(i)
				tr.enterTime[k] = c.prevT + f*(now-c.prevT)
				// Entering with the ad already in hand is the paper's
				// zero-delivery-time case.
				if c.obsDelivery != nil && tr.received[k] {
					c.obsDelivery.Observe(0)
				}
			}
		}
	}
	c.prevT = now
	if c.roadCov != nil {
		c.lastCoverage = maxCov
	}
	if c.obsSample != nil {
		c.obsSample.Observe(time.Since(start).Seconds())
	}
}

// AdReport is the per-advertisement evaluation result.
type AdReport struct {
	ID            ads.ID
	PassedThrough int     // peers that were ever inside the advertising area
	Delivered     int     // of those, peers that received the ad
	DeliveryRate  float64 // percent, 0–100
	DeliveryTimes stats.Summary
	// P50 and P95 are delivery-time percentiles over delivered entrants;
	// zero when nothing was delivered.
	P50, P95 float64
	Messages uint64
	Bytes    uint64
	// RoadCoverage is the peak sampled fraction of in-area road length within
	// radio range of an informed peer (0–1); always 0 unless the collector's
	// road-coverage measurer is enabled (see EnableRoadCoverage).
	RoadCoverage float64
}

// String renders the report in the paper's metric vocabulary.
func (r AdReport) String() string {
	return fmt.Sprintf("%v: delivery %.1f%% (%d/%d), delivery time %.2fs, messages %d (%d bytes)",
		r.ID, r.DeliveryRate, r.Delivered, r.PassedThrough, r.DeliveryTimes.Mean, r.Messages, r.Bytes)
}

// Report computes the metrics for one ad. It may be called at any time; the
// figures cover activity up to now (or up to the ad's life-cycle end if that
// already passed).
func (c *Collector) Report(id ads.ID) (AdReport, error) {
	tr, ok := c.tracked[id]
	if !ok {
		return AdReport{}, fmt.Errorf("metrics: ad %v was never issued", id)
	}
	if tr.report != nil {
		return *tr.report, nil
	}
	return tr.measure(id), nil
}

// measure computes the ad's report from its ledger.
func (tr *adTrack) measure(id ads.ID) AdReport {
	rep := AdReport{ID: id, Messages: tr.messages, Bytes: tr.bytes, RoadCoverage: tr.covPeak}
	// Slots ascend by peer id, which keeps the float sum in stats.Summarize
	// in the order it has always had.
	var times []float64
	tr.each(func(k, i int) {
		if has(tr.pending, i) {
			return
		}
		rep.PassedThrough++
		if tr.received[k] {
			rep.Delivered++
			times = append(times, math.Max(0, tr.receiveTime[k]-tr.enterTime[k]))
		}
	})
	if rep.PassedThrough > 0 {
		rep.DeliveryRate = 100 * float64(rep.Delivered) / float64(rep.PassedThrough)
	}
	rep.DeliveryTimes = stats.Summarize(times)
	if len(times) > 0 {
		rep.P50 = stats.Percentile(times, 50)
		rep.P95 = stats.Percentile(times, 95)
	}
	return rep
}

// TrackedIDs returns the ads this collector has seen issued.
func (c *Collector) TrackedIDs() []ads.ID {
	out := make([]ads.ID, 0, len(c.tracked))
	for id := range c.tracked {
		out = append(out, id)
	}
	return out
}

// TotalMessages returns the network-wide advertisement frame count.
func (c *Collector) TotalMessages() uint64 { return c.totalMessages }

// TotalBytes returns the network-wide advertisement byte count.
func (c *Collector) TotalBytes() uint64 { return c.totalBytes }

// Duplicates returns the count of duplicate receptions.
func (c *Collector) Duplicates() uint64 { return c.duplicates }

// Evictions returns the count of cache evictions.
func (c *Collector) Evictions() uint64 { return c.evictions }

// Expirations returns the count of expiry drops.
func (c *Collector) Expirations() uint64 { return c.expirations }

// LoadGini returns the Gini coefficient of per-peer transmission counts:
// 0 when every peer carried an equal share of the dissemination work,
// approaching 1 when one peer (e.g. a flooding issuer) carried it all.
func (c *Collector) LoadGini() float64 { return stats.Gini(c.perPeerTx) }
