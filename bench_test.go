// Benchmarks mirroring the paper's evaluation: one benchmark per figure or
// table (see DESIGN.md's per-experiment index). Each simulation benchmark
// runs a scaled-down scenario per iteration and reports the paper's metrics
// via b.ReportMetric — "delivery_%" and "messages" alongside the usual
// ns/op — so the qualitative comparisons (who wins, by what factor) are
// visible straight from `go test -bench`.
//
// Full-scale reproductions are produced by `go run ./cmd/figures`; the
// benchmarks keep the parameter sweeps small so the whole suite stays in
// benchtime-friendly territory.
package instantad_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"instantad"
)

// benchBase is the scaled-down canonical scenario used by the simulation
// benchmarks: the paper's geometry with a shorter tail after the ad's life
// cycle.
func benchBase() instantad.Scenario {
	sc := instantad.DefaultScenario()
	sc.SimTime = 300
	sc.D = 120
	return sc
}

// runAndReport runs one scenario per iteration and reports metric means.
func runAndReport(b *testing.B, sc instantad.Scenario) {
	b.Helper()
	var rate, msgs, dtime float64
	for i := 0; i < b.N; i++ {
		run := sc
		run.Seed = sc.Seed + uint64(i)
		res, err := run.Run()
		if err != nil {
			b.Fatal(err)
		}
		rate += res.DeliveryRate
		msgs += res.Messages
		dtime += res.DeliveryTime
	}
	n := float64(b.N)
	b.ReportMetric(rate/n, "delivery_%")
	b.ReportMetric(msgs/n, "messages")
	b.ReportMetric(dtime/n, "delivery_s")
}

// BenchmarkFig2ProbabilityCurve regenerates Figure 2 (Formula 1's
// probability-vs-distance curves) per iteration.
func BenchmarkFig2ProbabilityCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := instantad.Fig2()
		if len(f.Series) != 5 {
			b.Fatal("malformed figure")
		}
	}
}

// BenchmarkFig3RadiusDecay regenerates Figure 3 (Formula 2's radius decay).
func BenchmarkFig3RadiusDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := instantad.Fig3()
		if len(f.Series) != 5 {
			b.Fatal("malformed figure")
		}
	}
}

// BenchmarkFig5Opt1Probability regenerates Figure 5 (Formula 3's annular
// probability).
func BenchmarkFig5Opt1Probability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := instantad.Fig5()
		if len(f.Series) != 2 {
			b.Fatal("malformed figure")
		}
	}
}

// BenchmarkFig7NetworkSize reproduces Figure 7(a–c): the three metrics per
// protocol at a sparse, the crossover, and a dense network size. It covers the
// two comparator families as well, so its rows are the 21 simulations one rep
// of the repository benchmark's fig7_sweep runs; with -benchmem they are the
// per-series split of that workload's time and allocation.
func BenchmarkFig7NetworkSize(b *testing.B) {
	for _, proto := range instantad.AllProtocols() {
		for _, n := range []int{100, 300, 1000} {
			b.Run(fmt.Sprintf("%v/N=%d", proto, n), func(b *testing.B) {
				sc := benchBase()
				sc.Protocol = proto
				sc.NumPeers = n
				runAndReport(b, sc)
			})
		}
	}
}

// BenchmarkFig8Speed reproduces Figure 8(a–c): the three metrics per
// protocol at slow and fast motion (N = 300).
func BenchmarkFig8Speed(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.Flooding, instantad.Gossip, instantad.GossipOpt} {
		for _, v := range []float64{5, 15, 30} {
			b.Run(fmt.Sprintf("%v/v=%v", proto, v), func(b *testing.B) {
				sc := benchBase()
				sc.Protocol = proto
				sc.SpeedMean = v
				sc.SpeedDelta = v / 2
				runAndReport(b, sc)
			})
		}
	}
}

// BenchmarkFig9Reduction reproduces Figure 9: per iteration it runs pure
// Gossiping and one optimized variant and reports the message reduction.
func BenchmarkFig9Reduction(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.GossipOpt1, instantad.GossipOpt2, instantad.GossipOpt} {
		for _, n := range []int{100, 300, 1000} {
			b.Run(fmt.Sprintf("%v/N=%d", proto, n), func(b *testing.B) {
				var reduction float64
				for i := 0; i < b.N; i++ {
					pure := benchBase()
					pure.NumPeers = n
					pure.Protocol = instantad.Gossip
					pure.Seed += uint64(i)
					pr, err := pure.Run()
					if err != nil {
						b.Fatal(err)
					}
					opt := pure
					opt.Protocol = proto
					or, err := opt.Run()
					if err != nil {
						b.Fatal(err)
					}
					if pr.Messages > 0 {
						reduction += 100 * (1 - or.Messages/pr.Messages)
					}
				}
				b.ReportMetric(reduction/float64(b.N), "reduction_%")
			})
		}
	}
}

// BenchmarkFig10Tuning reproduces Figure 10(a–c): Optimized Gossiping under
// swept tuning parameters.
func BenchmarkFig10Tuning(b *testing.B) {
	b.Run("alpha", func(b *testing.B) {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("a=%v", alpha), func(b *testing.B) {
				sc := benchBase()
				sc.Alpha = alpha
				runAndReport(b, sc)
			})
		}
	})
	b.Run("round-time", func(b *testing.B) {
		for _, rt := range []float64{1, 5, 20} {
			b.Run(fmt.Sprintf("dt=%v", rt), func(b *testing.B) {
				sc := benchBase()
				sc.RoundTime = rt
				runAndReport(b, sc)
			})
		}
	})
	b.Run("dis", func(b *testing.B) {
		for _, dis := range []float64{25, 125, 250} {
			b.Run(fmt.Sprintf("dis=%v", dis), func(b *testing.B) {
				sc := benchBase()
				sc.DIS = dis
				runAndReport(b, sc)
			})
		}
	})
}

// BenchmarkBetaSensitivity quantifies the Section IV.C remark that β has
// negligible impact.
func BenchmarkBetaSensitivity(b *testing.B) {
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			sc := benchBase()
			sc.Beta = beta
			runAndReport(b, sc)
		})
	}
}

// BenchmarkFMSketchAccuracy validates the Section III.E rank estimator:
// distinct-count accuracy and add throughput at ad-scale populations.
func BenchmarkFMSketchAccuracy(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				sk := instantad.NewSketch(8, 32, uint64(i))
				for j := 0; j < n; j++ {
					sk.Add(uint64(j)*2654435761 + uint64(i))
				}
				est := sk.Estimate()
				rel := (est - float64(n)) / float64(n)
				if rel < 0 {
					rel = -rel
				}
				errSum += 100 * rel
			}
			b.ReportMetric(errSum/float64(b.N), "relerr_%")
		})
	}
}

// BenchmarkAblationRadioImpairments measures Optimized Gossiping with the
// NS-2-fidelity knobs the default pipeline turns off: per-link loss and
// receiver-side collisions (DESIGN.md, "Design choices worth ablating").
func BenchmarkAblationRadioImpairments(b *testing.B) {
	cases := []struct {
		name       string
		loss       float64
		fade       float64
		collisions bool
	}{
		{"clean", 0, 0, false},
		{"loss=0.1", 0.1, 0, false},
		{"fade=50m", 0, 50, false},
		{"collisions", 0, 0, true},
		{"loss+fade+collisions", 0.1, 50, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc := benchBase()
			sc.LossRate = c.loss
			sc.FadeZone = c.fade
			sc.Collisions = c.collisions
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationMobility swaps the mobility model under Optimized
// Gossiping: the paper's Random Waypoint versus Random Walk and Manhattan.
func BenchmarkAblationMobility(b *testing.B) {
	for _, m := range []instantad.MobilityKind{instantad.RandomWaypoint, instantad.RandomWalk, instantad.Manhattan, instantad.RPGM} {
		b.Run(string(m), func(b *testing.B) {
			sc := benchBase()
			sc.Mobility = m
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationCacheK sweeps the Store & Forward cache capacity.
func BenchmarkAblationCacheK(b *testing.B) {
	for _, k := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sc := benchBase()
			sc.CacheK = k
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationIssuerOffline reproduces the paper's robustness claim
// quantitatively: the issuer powers down 10 s after issuing. Gossip keeps
// the ad alive cooperatively; Restricted Flooding dies with its issuer.
func BenchmarkAblationIssuerOffline(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.Flooding, instantad.Gossip, instantad.GossipOpt} {
		b.Run(proto.String(), func(b *testing.B) {
			sc := benchBase()
			sc.Protocol = proto
			sc.R = 300
			sc.IssuerOfflineAfter = 10
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationChurn measures Optimized Gossiping under peer churn:
// radios cycle online/offline with exponential durations.
func BenchmarkAblationChurn(b *testing.B) {
	cases := []struct {
		name    string
		on, off float64
	}{
		{"stable", 0, 0},
		{"mild", 120, 20},
		{"harsh", 60, 60},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc := benchBase()
			sc.ChurnOnMean = c.on
			sc.ChurnOffMean = c.off
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationLoadFairness reports the Gini coefficient of per-peer
// transmission counts. Pure Gossiping spreads the work most evenly;
// Optimized Gossiping concentrates its (50× fewer) transmissions on the
// annulus peers, trading per-message fairness for far lower absolute load.
func BenchmarkAblationLoadFairness(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.Flooding, instantad.Gossip, instantad.GossipOpt} {
		b.Run(proto.String(), func(b *testing.B) {
			var gini float64
			for i := 0; i < b.N; i++ {
				sc := benchBase()
				sc.Protocol = proto
				sc.Seed += uint64(i)
				res, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				gini += res.LoadGini
			}
			b.ReportMetric(gini/float64(b.N), "load_gini")
		})
	}
}

// BenchmarkAblationEnergy reports the radio energy (joules, 802.11-class
// figures) each protocol spends per life cycle — the battery cost behind
// the paper's message-count metric.
func BenchmarkAblationEnergy(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.Flooding, instantad.Gossip, instantad.GossipOpt} {
		b.Run(proto.String(), func(b *testing.B) {
			var joules, rate float64
			for i := 0; i < b.N; i++ {
				sc := benchBase()
				sc.Protocol = proto
				sc.MeasureEnergy = true
				sc.Seed += uint64(i)
				res, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				joules += res.EnergyJ
				rate += res.DeliveryRate
			}
			b.ReportMetric(joules/float64(b.N), "joules")
			b.ReportMetric(rate/float64(b.N), "delivery_%")
		})
	}
}

// BenchmarkAblationMixedFleet compares a uniform vehicular fleet with the
// paper's street scene of vehicles plus short-range walking pedestrians.
func BenchmarkAblationMixedFleet(b *testing.B) {
	for _, frac := range []float64{0, 0.3, 0.7} {
		b.Run(fmt.Sprintf("pedestrians=%.0f%%", frac*100), func(b *testing.B) {
			sc := benchBase()
			sc.PedestrianFraction = frac
			runAndReport(b, sc)
		})
	}
}

// BenchmarkAblationEviction contrasts the paper's lowest-probability
// eviction with FIFO and random victims under heavy ad contention
// (20 overlapping ads, k = 2).
func BenchmarkAblationEviction(b *testing.B) {
	policies := []struct {
		name   string
		policy instantad.EvictionPolicy
	}{
		{"lowest-prob", instantad.EvictLowestProb},
		{"fifo", instantad.EvictOldestFirst},
		{"random", instantad.EvictRandomEntry},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				sc := benchBase()
				sc.CacheK = 2
				sc.Eviction = p.policy
				sc.Seed += uint64(i)
				sum, err := instantad.RunMultiAd(sc, 20)
				if err != nil {
					b.Fatal(err)
				}
				rate += sum.MeanDeliveryRate
			}
			b.ReportMetric(rate/float64(b.N), "delivery_%")
		})
	}
}

// BenchmarkAdContention is this repo's extension experiment: many
// concurrent overlapping ads competing for a tight top-k cache.
func BenchmarkAdContention(b *testing.B) {
	for _, k := range []int{2, 10} {
		for _, ads := range []int{5, 20} {
			b.Run(fmt.Sprintf("k=%d/ads=%d", k, ads), func(b *testing.B) {
				var rate, evicts float64
				for i := 0; i < b.N; i++ {
					sc := benchBase()
					sc.CacheK = k
					sc.Seed += uint64(i)
					sum, err := instantad.RunMultiAd(sc, ads)
					if err != nil {
						b.Fatal(err)
					}
					rate += sum.MeanDeliveryRate
					evicts += float64(sum.Evictions)
				}
				b.ReportMetric(rate/float64(b.N), "delivery_%")
				b.ReportMetric(evicts/float64(b.N), "evictions")
			})
		}
	}
}

// BenchmarkAblationUnitScaling contrasts the per-ad exponent unit scaling
// (R/10, D/10 — the paper's unitless curves) with raw meters/seconds, which
// collapses α's leverage (DESIGN.md, "Design choices worth ablating").
func BenchmarkAblationUnitScaling(b *testing.B) {
	b.Run("auto-units", func(b *testing.B) {
		sc := benchBase()
		sc.Alpha = 0.9
		runAndReport(b, sc)
	})
	// Raw meters: DistUnit = 1 m makes α^x underflow except within a meter
	// of the boundary — the probability field becomes a step function and α
	// loses its leverage over message volume.
	b.Run("raw-meters", func(b *testing.B) {
		sc := benchBase()
		sc.Alpha = 0.9
		sc.DistUnit = 1
		sc.TimeUnit = 1
		runAndReport(b, sc)
	})
}

// BenchmarkComparatorRelevanceExchange pits the paper's Optimized Gossiping
// against the related-work Opportunistic Resource Exchange model
// (relevance-ranked exchange at encounter) on identical trajectories.
func BenchmarkComparatorRelevanceExchange(b *testing.B) {
	for _, proto := range []instantad.Protocol{instantad.GossipOpt, instantad.RelevanceExchange} {
		for _, n := range []int{100, 300} {
			b.Run(fmt.Sprintf("%v/N=%d", proto, n), func(b *testing.B) {
				sc := benchBase()
				sc.Protocol = proto
				sc.NumPeers = n
				runAndReport(b, sc)
			})
		}
	}
}

// BenchmarkAsyncSpread measures the asynchronous pairwise family (mobile
// telephone model) against broadcast gossip at the canonical density:
// spread performance per exchange bound k, with the delivery/message
// metrics alongside ns/op so the broadcast advantage is visible straight
// from `go test -bench`.
func BenchmarkAsyncSpread(b *testing.B) {
	b.Run("Gossiping", func(b *testing.B) {
		sc := benchBase()
		sc.Protocol = instantad.Gossip
		runAndReport(b, sc)
	})
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("Async/k=%d", k), func(b *testing.B) {
			sc := benchBase()
			sc.Protocol = instantad.AsyncGossip
			sc.AsyncK = k
			runAndReport(b, sc)
		})
	}
}

// BenchmarkSimulatorThroughput measures the discrete-event substrate
// itself: events dispatched per wall-clock second driving the canonical
// dense scenario.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events, seconds float64
	for i := 0; i < b.N; i++ {
		sc := benchBase()
		sc.NumPeers = 1000
		sc.Protocol = instantad.Gossip
		sc.Seed += uint64(i)
		sm, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		h := sm.ScheduleAd(sc.IssueTime, instantad.Point{X: 750, Y: 750},
			instantad.AdSpec{R: sc.R, D: sc.D, Category: "petrol"})
		start := nowSeconds(b)
		sm.Engine.Run(sc.SimTime)
		seconds += nowSeconds(b) - start
		events += float64(sm.Engine.Dispatched())
		if h.Err != nil {
			b.Fatal(h.Err)
		}
	}
	if seconds > 0 {
		b.ReportMetric(events/seconds, "events/s")
	}
}

// nowSeconds is a benchmark-local monotonic clock.
func nowSeconds(b *testing.B) float64 {
	b.Helper()
	return float64(time.Now().UnixNano()) / 1e9
}

// BenchmarkPopularityEndToEnd measures the popularity mechanism's cost and
// effect: Optimized Gossiping with FM ranking on, all peers interested.
func BenchmarkPopularityEndToEnd(b *testing.B) {
	sc := benchBase()
	sc.Popularity = instantad.PopularityConfig{
		Enabled: true, F: 8, L: 32, SketchSeed: 1,
		RInc: 50, DInc: 10, RMax: 800, DMax: 240,
	}
	b.Run("ranking-on", func(b *testing.B) { runAndReport(b, sc) })
	off := benchBase()
	b.Run("ranking-off", func(b *testing.B) { runAndReport(b, off) })
}

// BenchmarkScale100k is the N = 10⁵ completion gate: one Fig. 7-style life
// cycle at a hundred thousand peers. The paper's sweeps stop at N = 1000;
// this runs the same protocol two orders of magnitude up, on a field whose
// side grows with sqrt(N/300) so peer density — and with it per-broadcast
// receiver counts and per-peer round cost — stays at the paper's Table II
// level, and reports the usual delivery metrics alongside ns/op.
func BenchmarkScale100k(b *testing.B) {
	const n = 100_000
	sc := benchBase()
	sc.NumPeers = n
	side := 1500 * math.Sqrt(float64(n)/300)
	sc.FieldW, sc.FieldH = side, side
	runAndReport(b, sc)
}
