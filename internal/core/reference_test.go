package core

import (
	"reflect"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// waypointNet builds a network of n Random Waypoint peers (10 ± 5 m/s, 10 s
// pauses, trajectories horizon seconds long) on a side × side field with the
// given radio range.
func waypointNet(tb testing.TB, cfg Config, n int, side, txRange, horizon float64, seed uint64) (*sim.Simulator, *Network) {
	tb.Helper()
	rnd := rng.New(seed)
	wp := mobility.RandomWaypointConfig{
		Field:     geo.Rect{Max: geo.Point{X: side, Y: side}},
		SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: horizon,
	}
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(wp, rnd.SplitIndex("model", i))
		if err != nil {
			tb.Fatal(err)
		}
		models[i] = m
	}
	rc := radio.DefaultConfig()
	rc.Range, rc.MaxSpeed = txRange, wp.MaxSpeed()
	s := sim.New()
	net, err := New(s, rc, models, cfg, rnd.Split("protocol"))
	if err != nil {
		tb.Fatal(err)
	}
	return s, net
}

// refRelevanceRound is the Relevance Exchange round as it stood before it
// stopped allocating: a fresh neighbour list, a fresh map of it compared with
// last round's map, and both cache passes over Entries() copies. last is the
// reference's own per-peer memory.
func refRelevanceRound(p *Peer, last map[int]map[int]bool) (encountered bool) {
	now := p.net.sim.Now()
	neighbors := p.net.ch.AppendNeighborsOf(nil, p.id)
	cur := make(map[int]bool, len(neighbors))
	for _, j := range neighbors {
		cur[j] = true
		if !last[p.id][j] {
			encountered = true
		}
	}
	last[p.id] = cur

	pos := p.Position()
	for _, e := range p.cache.Entries() {
		rel := Relevance(e.Ad, pos.Dist(e.Ad.Origin), now)
		e.Prob = rel
		if rel == 0 {
			p.cache.Remove(e.Ad.ID)
			p.net.obs.OnExpire(p.id, e.Ad.ID, now)
		}
	}
	if !encountered {
		return false
	}
	for _, e := range p.cache.Entries() {
		p.broadcastAd(e)
	}
	return true
}

// protoEvent is one observer callback, or one round's encounter verdict.
type protoEvent struct {
	kind string
	peer int
	id   ads.ID
	t    float64
}

// eventLog records every protocol event in the order it happened.
type eventLog struct{ events []protoEvent }

func (l *eventLog) add(kind string, peer int, id ads.ID, t float64) {
	l.events = append(l.events, protoEvent{kind, peer, id, t})
}
func (l *eventLog) count(kind string) (c int) {
	for _, e := range l.events {
		if e.kind == kind {
			c++
		}
	}
	return c
}
func (l *eventLog) OnIssue(p int, ad *ads.Advertisement, t float64) { l.add("issue", p, ad.ID, t) }
func (l *eventLog) OnBroadcast(p int, id ads.ID, _ int, t float64)  { l.add("broadcast", p, id, t) }
func (l *eventLog) OnFirstReceive(p int, ad *ads.Advertisement, t float64) {
	l.add("first", p, ad.ID, t)
}
func (l *eventLog) OnDuplicate(p int, id ads.ID, t float64) { l.add("duplicate", p, id, t) }
func (l *eventLog) OnExpire(p int, id ads.ID, t float64)    { l.add("expire", p, id, t) }
func (l *eventLog) OnEvict(p int, id ads.ID, t float64)     { l.add("evict", p, id, t) }

// TestRelevanceRoundMatchesReference runs one mobile scenario twice — caches
// of 3 under 14 overlapping short-lived ads, so they overflow and expire —
// once with the production round and once with the reference, and compares
// everything either did, in order: each round's encounter verdict, every
// expiry, eviction, broadcast, duplicate and first reception, and the
// channel's counters (whose loss and jitter draws follow the broadcast order).
func TestRelevanceRoundMatchesReference(t *testing.T) {
	run := func(round func(*Peer) bool) (*eventLog, radio.Stats, uint64) {
		cfg := testConfig(RelevanceExchange)
		cfg.CacheK = 3
		s, n := waypointNet(t, cfg, 80, 700, 125, 200, 5)
		log := &eventLog{}
		n.SetObserver(log)
		// Network.Start for this protocol, with the round under test.
		n.started = true
		n.relevance = make([]relevancePeerState, len(n.peers))
		n.seenStamp = make([]uint32, len(n.peers))
		for i := range n.peers {
			p := &n.peers[i]
			p.startRelevance().Stop()
			offset := p.rnd.Range(0, n.cfg.RoundTime)
			s.Every(offset, n.cfg.RoundTime, func() {
				kind := "quiet-round"
				if round(p) {
					kind = "encounter-round"
				}
				log.add(kind, p.id, ads.ID{}, s.Now())
			})
		}
		for i := 0; i < 14; i++ {
			i := i
			s.Schedule(2+3.5*float64(i), func() {
				spec := AdSpec{R: 250 + 40*float64(i%5), D: 25 + 9*float64(i%7)}
				if _, err := n.IssueAd((i*11)%n.NumPeers(), spec); err != nil {
					t.Error(err)
				}
			})
		}
		s.Run(160)
		return log, n.ch.Stats(), s.Dispatched()
	}
	got, gotStats, gotEvents := run(func(p *Peer) bool {
		enc := p.senseEncounter()
		p.relevanceExchange(enc)
		return enc
	})
	last := map[int]map[int]bool{}
	want, wantStats, wantEvents := run(func(p *Peer) bool { return refRelevanceRound(p, last) })

	for _, kind := range []string{"encounter-round", "quiet-round", "expire", "evict", "broadcast", "duplicate"} {
		if want.count(kind) == 0 {
			t.Errorf("the scenario produced no %q event: that path went untested", kind)
		}
	}
	if gotStats != wantStats || gotEvents != wantEvents {
		t.Errorf("stats %+v, %d events; reference %+v, %d events", gotStats, gotEvents, wantStats, wantEvents)
	}
	if len(got.events) != len(want.events) {
		t.Errorf("%d protocol events, reference %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if i < len(got.events) && !reflect.DeepEqual(got.events[i], want.events[i]) {
			t.Fatalf("event %d: %+v, reference %+v", i, got.events[i], want.events[i])
		}
	}
}

// BenchmarkRelevanceRound is one full Relevance Exchange round of every peer
// at the paper's dense point (N = 1000 on the canonical field), warmed: one
// long-lived ad has reached every cache, and 300 rounds have shown every peer
// about the densest neighbourhood it will be in. An operation is one RoundTime
// of the simulation — 1000 sensing passes, the refresh of every cache, the
// broadcasts of the peers that met somebody and their deliveries. Steady
// state must not allocate.
func BenchmarkRelevanceRound(b *testing.B) {
	cfg := testConfig(RelevanceExchange)
	const warm = 1500
	s, n := waypointNet(b, cfg, 1000, 1500, 125, warm+cfg.RoundTime*float64(b.N+1), 3)
	n.Start()
	s.Schedule(1, func() {
		if _, err := n.IssueAd(0, AdSpec{R: 5000, D: 1e7}); err != nil {
			b.Error(err)
		}
	})
	s.Run(warm)
	sent := n.ch.Stats().Broadcasts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + cfg.RoundTime)
	}
	b.ReportMetric(float64(n.ch.Stats().Broadcasts-sent)/float64(b.N), "broadcasts/op")
}
