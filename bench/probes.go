package main

import (
	"fmt"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/experiment"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
	"instantad/internal/stats"
)

// Layer probes time one public function of one layer in isolation, on
// inputs shaped like the workload's own: its population, field, speeds,
// radio range, shard count, cache size and ads. They say what a call costs
// on this host, so a change in a span can be told apart from a change in how
// often the layer is called.

// Results of the probed calls land here so the compiler cannot drop the calls.
var (
	sinkPoint geo.Point
	sinkInt   int
	sinkFloat float64
	sinkIDs   []int
)

// timeOp runs batch (which performs n operations) batches times and returns
// the median cost of one operation in nanoseconds.
func timeOp(batches, n int, batch func()) float64 {
	per := make([]float64, batches)
	for i := range per {
		t0 := time.Now()
		batch()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return stats.Median(per)
}

// probeInput is the scenario and ads a probe set is shaped after.
type probeInput struct {
	sc     experiment.Scenario
	ads    []adInput
	shards int
	cacheK int
	// batches is how many timed batches each probe takes its median over.
	batches int
}

// runProbes measures every layer probe and adds one sample of each.
func runProbes(in probeInput, layers samples) error {
	sc := in.sc
	n := sc.NumPeers
	rnd := rng.New(sc.Seed).Split("probes")
	field := geo.NewRect(sc.FieldW, sc.FieldH)
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: field, SpeedMean: sc.SpeedMean, SpeedDelta: sc.SpeedDelta,
			Pause: sc.Pause, Horizon: sc.SimTime,
		}, rnd.SplitIndex("mobility", i))
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		models[i] = m
	}

	// mobility: one trajectory evaluation.
	const calls = 200000
	layers.add("mobility.position_ns", timeOp(in.batches, calls, func() {
		for k := 0; k < calls; k++ {
			sinkPoint = models[k%n].Position(float64(k%int(sc.SimTime)) + 0.5)
		}
	}))

	// geo: the collector's area-entry test on one peer's sampled chord.
	prev, cur := make([]geo.Point, n), make([]geo.Point, n)
	for i := range models {
		prev[i], cur[i] = models[i].Position(100), models[i].Position(101)
	}
	circle := geo.Circle{C: in.ads[0].at, R: in.ads[0].spec.R}
	layers.add("geo.segment_circle_hit_ns", timeOp(in.batches, calls, func() {
		for k := 0; k < calls; k++ {
			if _, hit := geo.SegmentCircleHit(prev[k%n], cur[k%n], circle); hit {
				sinkInt++
			}
		}
	}))

	// radio: grid rebuild, neighbour query and one broadcast with its
	// deliveries, on a channel of the workload's range and shard count.
	s := sim.New()
	cfg := radio.DefaultConfig()
	cfg.Range = sc.TxRange
	cfg.MaxSpeed = sc.SpeedMean + sc.SpeedDelta
	cfg.Shards = in.shards
	ch, err := radio.New(s, cfg, models, func(int, radio.Frame) {}, rnd.Split("radio"))
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	const rebuilds = 8
	var rebuildNs []float64
	for k := 1; k <= rebuilds; k++ {
		s.Schedule(float64(k)*cfg.GridRefresh, func() {
			t0 := time.Now()
			ch.RefreshGrid()
			rebuildNs = append(rebuildNs, float64(time.Since(t0).Nanoseconds()))
		})
	}
	s.RunAll()
	layers.add("radio.refresh_grid_us", stats.Median(rebuildNs)/1e3)

	const queries = 50000
	layers.add("radio.query_ns", timeOp(in.batches, queries, func() {
		for k := 0; k < queries; k++ {
			sinkIDs = ch.AppendNeighborsOf(sinkIDs[:0], k%n)
		}
	}))
	const casts = 5000
	layers.add("radio.broadcast_ns", timeOp(in.batches, casts, func() {
		for k := 0; k < casts; k++ {
			ch.Broadcast(radio.Frame{From: (k * 7919) % n, Bytes: 200})
			s.RunAll()
		}
	}))

	// sim: schedule and dispatch one event through the queue.
	const events = 100000
	times := make([]float64, events)
	for i := range times {
		times[i] = rnd.Range(0, 1000)
	}
	layers.add("sim.schedule_dispatch_ns", timeOp(in.batches, events, func() {
		q := sim.New()
		for _, t := range times {
			q.Schedule(t, func() { sinkInt++ })
		}
		q.RunAll()
	}))

	// ads, fm, core: the workload's own ads through cache, codec, sketch
	// merge and the forwarding probability.
	var pool []*ads.Advertisement
	for i, a := range in.ads {
		ad := &ads.Advertisement{
			ID: ads.ID{Issuer: uint32(i % n), Seq: uint32(i / n)}, Origin: a.at, IssuedAt: a.t,
			R: a.spec.R, D: a.spec.D, Category: a.spec.Category, Text: a.spec.Text,
		}
		if sc.Popularity.Enabled {
			ad.Sketch = fm.New(sc.Popularity.F, sc.Popularity.L, sc.Popularity.SketchSeed)
			for u := 0; u < 20; u++ {
				ad.Sketch.Add(rnd.Uint64())
			}
		}
		pool = append(pool, ad)
	}
	for len(pool) < 4*in.cacheK { // enough distinct ads to overflow the cache
		c := pool[len(pool)%len(in.ads)].Clone()
		c.ID.Seq += uint32(len(pool)) + 1000
		pool = append(pool, c)
	}
	const inserts = 100000
	layers.add("ads.cache_insert_evict_ns", timeOp(in.batches, inserts, func() {
		cache := ads.NewCache(in.cacheK)
		for k := 0; k < inserts; k++ {
			ad := pool[k%len(pool)]
			if cache.Get(ad.ID) != nil {
				cache.Remove(ad.ID)
			}
			if _, overflow := cache.Insert(ad, float64(k%97)/97); overflow {
				cache.EvictLowest()
			}
		}
	}))

	const codecs = 50000
	wire := make([][]byte, len(pool))
	var encErr, decErr error
	layers.add("ads.encode_ns", timeOp(in.batches, codecs, func() {
		for k := 0; k < codecs; k++ {
			b, err := pool[k%len(pool)].Encode()
			if err != nil {
				encErr = err
			}
			wire[k%len(pool)] = b
		}
	}))
	layers.add("ads.decode_ns", timeOp(in.batches, codecs, func() {
		for k := 0; k < codecs; k++ {
			if _, err := ads.Decode(wire[k%len(pool)]); err != nil {
				decErr = err
			}
		}
	}))
	if encErr != nil || decErr != nil {
		return fmt.Errorf("probes: ad codec: encode %v, decode %v", encErr, decErr)
	}

	f, l := 8, 32
	if sc.Popularity.Enabled {
		f, l = sc.Popularity.F, sc.Popularity.L
	}
	a, b := fm.New(f, l, 1), fm.New(f, l, 1)
	for u := 0; u < 50; u++ {
		a.Add(rnd.Uint64())
		b.Add(rnd.Uint64())
	}
	const merges = 200000
	var mergeErr error
	layers.add("fm.merge_ns", timeOp(in.batches, merges, func() {
		for k := 0; k < merges; k++ {
			if err := a.Merge(b); err != nil {
				mergeErr = err
			}
		}
	}))
	if mergeErr != nil {
		return fmt.Errorf("probes: %w", mergeErr)
	}

	params := core.ProbParams{Alpha: sc.Alpha, Beta: sc.Beta}
	dis := sc.R / 4
	layers.add("core.forward_prob_ns", timeOp(in.batches, calls, func() {
		for k := 0; k < calls; k++ {
			sinkFloat += core.ForwardProbOpt1(params, float64(k%int(sc.R)), sc.R, sc.D, float64(k%int(sc.D)), dis)
		}
	}))
	return nil
}
