package metrics_test

import (
	"fmt"
	"math"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/radio"
	"instantad/internal/sim"
	"instantad/internal/stats"
)

// refCollector is the reference the Collector is tested against: the plain
// ads × peers sweep it used to be. Every tick evaluates every peer's position
// and tests every not-yet-entered peer of every live ad; every ad keeps four
// columns over all peers; nothing is read from the radio snapshot and no
// speed bound is assumed. It is slow and obviously right, and it must agree
// with the Collector to the last bit.
type refCollector struct {
	core.BaseObserver

	sim     *sim.Simulator
	ch      *radio.Channel
	params  core.ProbParams
	roadCov *metrics.RoadCoverage // nil: no road coverage

	tracked map[ads.ID]*refTrack
	prevPos []geo.Point
	prevT   float64

	// What the Collector's sim_delivery_time_seconds histogram should hold,
	// and how many ticks there were.
	deliveryObs uint64
	deliverySum float64
	ticks       uint64
}

type refTrack struct {
	origin   geo.Point
	issuedAt float64
	r, d     float64
	done     bool

	entered     []bool
	enterTime   []float64
	received    []bool
	receiveTime []float64

	messages, bytes uint64

	covDist  []float64
	coverage []metrics.CoveragePoint
	covPeak  float64
}

// newRefCollector starts a reference collector ticking every sampleEvery
// seconds; chain it after the Collector with core.MultiObserver.
func newRefCollector(s *sim.Simulator, ch *radio.Channel, params core.ProbParams, sampleEvery float64, rc *metrics.RoadCoverage) *refCollector {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	c := &refCollector{
		sim: s, ch: ch, params: params, roadCov: rc,
		tracked: make(map[ads.ID]*refTrack),
		prevPos: make([]geo.Point, ch.N()),
	}
	for i := range c.prevPos {
		c.prevPos[i] = ch.PositionAt(i, 0)
	}
	s.Every(sampleEvery, sampleEvery, c.sample)
	return c
}

func (c *refCollector) OnIssue(issuer int, ad *ads.Advertisement, t float64) {
	n := c.ch.N()
	tr := &refTrack{
		origin: ad.Origin, issuedAt: t, r: ad.R, d: ad.D,
		entered:     make([]bool, n),
		enterTime:   make([]float64, n),
		received:    make([]bool, n),
		receiveTime: make([]float64, n),
	}
	circle := geo.Circle{C: tr.origin, R: core.RadiusAt(c.params, tr.r, tr.d, 0)}
	for i := 0; i < n; i++ {
		if circle.Contains(c.ch.PositionAt(i, t)) {
			tr.entered[i] = true
			tr.enterTime[i] = t
		}
	}
	if c.roadCov != nil {
		tr.covDist = c.roadCov.DistancesFrom(tr.origin)
	}
	c.tracked[ad.ID] = tr
}

func (c *refCollector) OnBroadcast(peer int, id ads.ID, bytes int, t float64) {
	if tr, ok := c.tracked[id]; ok && !tr.done {
		tr.messages++
		tr.bytes += uint64(bytes)
	}
}

func (c *refCollector) OnFirstReceive(peer int, ad *ads.Advertisement, t float64) {
	tr, ok := c.tracked[ad.ID]
	if !ok || tr.done || tr.received[peer] {
		return
	}
	tr.received[peer] = true
	tr.receiveTime[peer] = t
	if tr.entered[peer] {
		c.deliveryObs++
		c.deliverySum += math.Max(0, t-tr.enterTime[peer])
	}
}

func (c *refCollector) sample() {
	c.ticks++
	now := c.sim.Now()
	for _, tr := range c.tracked {
		if tr.done {
			continue
		}
		rt := core.RadiusAt(c.params, tr.r, tr.d, now-tr.issuedAt)
		if rt <= 0 {
			tr.done = true
			continue
		}
		if c.roadCov != nil {
			c.coverAd(tr, now, rt)
		}
		circle := geo.Circle{C: tr.origin, R: rt}
		for i := range tr.entered {
			if tr.entered[i] {
				continue
			}
			pos := c.ch.PositionAt(i, now)
			if f, hit := geo.SegmentCircleHit(c.prevPos[i], pos, circle); hit {
				tr.entered[i] = true
				tr.enterTime[i] = c.prevT + f*(now-c.prevT)
				if tr.received[i] {
					c.deliveryObs++ // a zero: entered with the ad in hand
				}
			}
		}
	}
	for i := range c.prevPos {
		c.prevPos[i] = c.ch.PositionAt(i, now)
	}
	c.prevT = now
}

func (c *refCollector) coverAd(tr *refTrack, now, rt float64) {
	rc := c.roadCov
	rc.BeginMark()
	for i := range tr.received {
		if tr.received[i] && c.ch.Online(i) {
			rc.MarkAround(c.ch.PositionAt(i, now), c.ch.RangeOf(i))
		}
	}
	covered, target := rc.Fraction(tr.covDist, rt)
	frac := 0.0
	if target > 0 {
		frac = covered / target
	}
	tr.coverage = append(tr.coverage, metrics.CoveragePoint{T: now, Fraction: frac, Messages: tr.messages})
	if frac > tr.covPeak {
		tr.covPeak = frac
	}
}

func (c *refCollector) report(id ads.ID) metrics.AdReport {
	tr := c.tracked[id]
	rep := metrics.AdReport{ID: id, Messages: tr.messages, Bytes: tr.bytes, RoadCoverage: tr.covPeak}
	var times []float64
	for i := range tr.entered {
		if !tr.entered[i] {
			continue
		}
		rep.PassedThrough++
		if tr.received[i] {
			rep.Delivered++
			times = append(times, math.Max(0, tr.receiveTime[i]-tr.enterTime[i]))
		}
	}
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

// entryTime returns when peer entered the ad's area, false if it never did.
func (c *refCollector) entryTime(id ads.ID, peer int) (float64, bool) {
	tr := c.tracked[id]
	return tr.enterTime[peer], tr.entered[peer]
}

// diffReports compares every field of the Collector's report and coverage
// trajectory for each of the reference's ads, floats by their bits.
func diffReports(t *testing.T, col *metrics.Collector, ref *refCollector) {
	t.Helper()
	if len(ref.tracked) == 0 {
		t.Fatal("no ad was tracked: the comparison is empty")
	}
	if got, want := len(col.TrackedIDs()), len(ref.tracked); got != want {
		t.Fatalf("collector tracks %d ads, reference %d", got, want)
	}
	for id := range ref.tracked {
		got, err := col.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.report(id)
		if g, w := reportBits(got), reportBits(want); g != w {
			t.Errorf("%v:\n got %s\nwant %s", id, g, w)
		}
		gc, wc := col.Coverage(id), ref.tracked[id].coverage
		if len(gc) != len(wc) {
			t.Errorf("%v: %d coverage points, want %d", id, len(gc), len(wc))
			continue
		}
		for k := range wc {
			if gc[k].T != wc[k].T || gc[k].Messages != wc[k].Messages ||
				math.Float64bits(gc[k].Fraction) != math.Float64bits(wc[k].Fraction) {
				t.Errorf("%v: coverage point %d = %+v, want %+v", id, k, gc[k], wc[k])
				break
			}
		}
	}
}

// reportBits renders every AdReport field, floats as their IEEE bits.
func reportBits(r metrics.AdReport) string {
	b := math.Float64bits
	s := r.DeliveryTimes
	return fmt.Sprintf("passed=%d delivered=%d rate=%x times{n=%d mean=%x sd=%x min=%x max=%x} p50=%x p95=%x msgs=%d bytes=%d road=%x",
		r.PassedThrough, r.Delivered, b(r.DeliveryRate),
		s.N, b(s.Mean), b(s.StdDev), b(s.Min), b(s.Max),
		b(r.P50), b(r.P95), r.Messages, r.Bytes, b(r.RoadCoverage))
}
