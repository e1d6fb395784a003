package experiment

import (
	"fmt"

	"instantad/internal/core"
	"instantad/internal/fm"
)

// RunOpts controls how the simulation-backed figures are produced.
type RunOpts struct {
	// Base is the scenario every point starts from; zero value means
	// DefaultScenario. Figures override the swept parameter per point.
	Base Scenario
	// Reps is the number of seeds per point (0 means 3; below 0 is an
	// error).
	Reps int
	// Sizes overrides the network-size sweep of Fig 7/9 (default 100…1000
	// step 100, the paper's range).
	Sizes []int
	// Speeds overrides the speed sweep of Fig 8 (default 5…30 step 5 m/s).
	Speeds []float64
	// Progress, when non-nil, receives one line per point of a sweep, in
	// the order the figure lists its curves and x values, on the goroutine
	// that called the generator. A figure's points and replicas run in
	// parallel; a point's line comes as soon as that point and every earlier
	// point have finished, so long sweeps still stream. A failing sweep
	// returns the error of its first failing point in that order.
	Progress func(format string, args ...any)
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Base.NumPeers == 0 {
		o.Base = DefaultScenario()
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	}
	if len(o.Speeds) == 0 {
		o.Speeds = []float64{5, 10, 15, 20, 25, 30}
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// fig7Protocols is the plot order of Figure 7.
var fig7Protocols = []core.Protocol{
	core.Flooding, core.Gossip, core.GossipOpt2, core.GossipOpt1, core.GossipOpt,
}

// fig8Protocols is the plot order of Figure 8.
var fig8Protocols = []core.Protocol{core.Flooding, core.Gossip, core.GossipOpt}

// Fig2 reproduces Figure 2: the forwarding probability of Formula 1 versus
// distance, for α from 0.1 to 0.9, on the paper's illustrative scale
// (R = 10 units, fresh ad). Analytic — no simulation.
func Fig2() Figure {
	f := Figure{
		ID: "fig2", Title: "Forwarding probability (Formula 1)",
		XLabel: "Distance", YLabel: "Forwarding Probability",
	}
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := core.ProbParams{Alpha: alpha, Beta: 0.5, DistUnit: 1, TimeUnit: 1}
		s := Series{Label: fmt.Sprintf("alpha=%.1f", alpha)}
		for d := 0.0; d <= 14; d += 0.5 {
			s.X = append(s.X, d)
			s.Y = append(s.Y, core.ForwardProb(p, d, 10, 50, 0))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig3 reproduces Figure 3: the advertising radius of Formula 2 versus age,
// for β from 0.1 to 0.9 (R = 10, D = 50 on unit axes).
func Fig3() Figure {
	f := Figure{
		ID: "fig3", Title: "Advertising radius decay (Formula 2)",
		XLabel: "Age", YLabel: "Radius",
	}
	for _, beta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := core.ProbParams{Alpha: 0.5, Beta: beta, DistUnit: 1, TimeUnit: 1}
		s := Series{Label: fmt.Sprintf("beta=%.1f", beta)}
		for age := 0.0; age <= 50; age += 2 {
			s.X = append(s.X, age)
			s.Y = append(s.Y, core.RadiusAt(p, 10, 50, age))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig5 reproduces Figure 5: the Optimized Gossiping-1 probability of
// Formula 3 versus distance (R = 10, DIS = 3 on unit axes), alongside
// Formula 1 for contrast.
func Fig5() Figure {
	f := Figure{
		ID: "fig5", Title: "Velocity-constrained probability (Formula 3, DIS=3)",
		XLabel: "Distance", YLabel: "Forwarding Probability",
	}
	p := core.ProbParams{Alpha: 0.5, Beta: 0.5, DistUnit: 1, TimeUnit: 1}
	opt := Series{Label: "opt-1"}
	pure := Series{Label: "formula-1"}
	for d := 0.0; d <= 14; d += 0.5 {
		opt.X = append(opt.X, d)
		opt.Y = append(opt.Y, core.ForwardProbOpt1(p, d, 10, 50, 0, 3))
		pure.X = append(pure.X, d)
		pure.Y = append(pure.Y, core.ForwardProb(p, d, 10, 50, 0))
	}
	f.Series = append(f.Series, opt, pure)
	return f
}

// setPeers and setSpeed are the x of the network-size and speed sweeps.
func setPeers(sc *Scenario, x float64) { sc.NumPeers = int(x) }

func setSpeed(sc *Scenario, x float64) {
	sc.SpeedMean = x
	sc.SpeedDelta = x / 2
}

// floats converts a sweep's integer x values to plot coordinates.
func floats(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// threeMetrics sweeps one curve per protocol and plots delivery rate,
// delivery time and message count into a, b and c.
func threeMetrics(o RunOpts, protos []core.Protocol, xs []float64, setX func(*Scenario, float64), a, b, c *Figure) error {
	runs, err := sweepGrid(o, protocolCurves(protos, setX), xs)
	if err != nil {
		return err
	}
	for i, proto := range protos {
		a.Series = append(a.Series, plot(proto.String(), xs, runs[i], meanRate))
		b.Series = append(b.Series, plot(proto.String(), xs, runs[i], meanTime))
		c.Series = append(c.Series, plot(proto.String(), xs, runs[i], meanMsgs))
	}
	return nil
}

// Fig7 reproduces Figure 7(a–c): Delivery Rate, Delivery Time and Number of
// Messages versus network size for the five protocols, at 10±5 m/s.
func Fig7(o RunOpts) (a, b, c Figure, err error) {
	o = o.withDefaults()
	a = Figure{ID: "fig7a", Title: "Delivery rate vs network size", XLabel: "Number of Peers", YLabel: "Delivery Rate (%)"}
	b = Figure{ID: "fig7b", Title: "Delivery time vs network size", XLabel: "Number of Peers", YLabel: "Delivery Time (s)"}
	c = Figure{ID: "fig7c", Title: "Number of messages vs network size", XLabel: "Number of Peers", YLabel: "Number of Messages"}
	err = threeMetrics(o, fig7Protocols, floats(o.Sizes), setPeers, &a, &b, &c)
	return
}

// Fig8 reproduces Figure 8(a–c): the three metrics versus motion speed
// (network size 300) for Flooding, Gossiping and Optimized Gossiping.
func Fig8(o RunOpts) (a, b, c Figure, err error) {
	o = o.withDefaults()
	a = Figure{ID: "fig8a", Title: "Delivery rate vs motion speed", XLabel: "Speed (m/s)", YLabel: "Delivery Rate (%)"}
	b = Figure{ID: "fig8b", Title: "Delivery time vs motion speed", XLabel: "Speed (m/s)", YLabel: "Delivery Time (s)"}
	c = Figure{ID: "fig8c", Title: "Number of messages vs motion speed", XLabel: "Speed (m/s)", YLabel: "Number of Messages"}
	err = threeMetrics(o, fig8Protocols, o.Speeds, setSpeed, &a, &b, &c)
	return
}

// Fig9 reproduces Figure 9: the percentage of messages each optimization
// mechanism removes relative to pure Gossiping, versus network size.
func Fig9(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	xs := floats(o.Sizes)
	protos := []core.Protocol{core.Gossip, core.GossipOpt1, core.GossipOpt2, core.GossipOpt}
	runs, err := sweepGrid(o, protocolCurves(protos, setPeers), xs)
	if err != nil {
		return Figure{}, err
	}
	f := Figure{
		ID: "fig9", Title: "Message reduction vs pure Gossiping",
		XLabel: "Number of Peers", YLabel: "Percentage Reduced (%)",
	}
	for v, proto := range protos[1:] {
		s := Series{Label: proto.String(), X: xs}
		for i, pure := range runs[0] {
			reduction := 0.0
			if pure := meanMsgs(pure); pure > 0 {
				reduction = 100 * (1 - meanMsgs(runs[v+1][i])/pure)
			}
			s.Y = append(s.Y, reduction)
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// FigComparator pits the paper's Optimized Gossiping against the
// related-work Relevance Exchange comparator across network sizes: delivery
// and message count on identical trajectories. The exchange-at-encounter
// model delivers well but its traffic scales with the meeting rate rather
// than being bounded by the probability field (Section II's critique).
func FigComparator(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	xs := floats(o.Sizes)
	protos := []core.Protocol{core.GossipOpt, core.RelevanceExchange}
	runs, err := sweepGrid(o, protocolCurves(protos, setPeers), xs)
	if err != nil {
		return Figure{}, err
	}
	f := Figure{
		ID: "comparator", Title: "Optimized Gossiping vs Relevance Exchange",
		XLabel: "Number of Peers", YLabel: "Delivery (%) / Messages",
	}
	for i, proto := range protos {
		f.Series = append(f.Series,
			plot(proto.String()+" delivery", xs, runs[i], meanRate),
			plot(proto.String()+" messages", xs, runs[i], meanMsgs))
	}
	return f, nil
}

// Fig10a reproduces Figure 10(a): tuning α (Δt = 5 s, DIS = R/4). Alongside
// the Optimized Gossiping curves it emits the pure-Gossiping message count:
// at our calibration the paper's declining-messages trend lives in the
// gossiping component, while Optimization Mechanism (2)'s postponement
// feedback self-regulates the combined variant's traffic (see
// EXPERIMENTS.md).
func Fig10a(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	runs, err := sweepGrid(o, protocolCurves([]core.Protocol{core.GossipOpt, core.Gossip},
		func(sc *Scenario, x float64) { sc.Alpha = x }), xs)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: "fig10a", Title: "Tuning alpha", XLabel: "alpha",
		YLabel: "Delivery Rate (%) / Messages",
		Series: []Series{
			plot("Delivery Rate (%)", xs, runs[0], meanRate),
			plot("Messages (Optimized)", xs, runs[0], meanMsgs),
			plot("Messages (Gossiping)", xs, runs[1], meanMsgs),
		},
	}, nil
}

// tuning sweeps Optimized Gossiping across one knob and plots delivery rate
// and message count (Figure 10's dual-axis plots).
func tuning(o RunOpts, f Figure, xs []float64, set func(*Scenario, float64)) (Figure, error) {
	o = o.withDefaults()
	runs, err := sweepGrid(o, protocolCurves([]core.Protocol{core.GossipOpt}, set), xs)
	if err != nil {
		return Figure{}, err
	}
	f.YLabel = "Delivery Rate (%) / Messages"
	f.Series = []Series{
		plot("Delivery Rate (%)", xs, runs[0], meanRate),
		plot("Number of Messages", xs, runs[0], meanMsgs),
	}
	return f, nil
}

// Fig10b reproduces Figure 10(b): tuning the gossiping round time
// (α = 0.5, DIS = R/4).
func Fig10b(o RunOpts) (Figure, error) {
	return tuning(o, Figure{ID: "fig10b", Title: "Tuning gossiping round time", XLabel: "Round Time (s)"},
		[]float64{1, 2, 5, 10, 15, 20},
		func(sc *Scenario, x float64) { sc.RoundTime = x })
}

// Fig10c reproduces Figure 10(c): tuning DIS (α = 0.5, Δt = 5 s).
func Fig10c(o RunOpts) (Figure, error) {
	return tuning(o, Figure{ID: "fig10c", Title: "Tuning DIS", XLabel: "DIS (m)"},
		[]float64{25, 50, 75, 100, 125, 150, 200, 250},
		func(sc *Scenario, x float64) { sc.DIS = x })
}

// FigBetaSensitivity quantifies the paper's Section IV.C remark that β has
// negligible impact: the three metrics across β = 0.1…0.9.
func FigBetaSensitivity(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	f := Figure{
		ID: "beta", Title: "Beta sensitivity (Optimized Gossiping)",
		XLabel: "beta", YLabel: "metric value",
	}
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	runs, err := sweepGrid(o, protocolCurves([]core.Protocol{core.GossipOpt},
		func(sc *Scenario, x float64) { sc.Beta = x }), xs)
	if err != nil {
		return Figure{}, err
	}
	f.Series = []Series{
		plot("Delivery Rate (%)", xs, runs[0], meanRate),
		plot("Delivery Time (s)", xs, runs[0], meanTime),
		plot("Number of Messages", xs, runs[0], meanMsgs),
	}
	return f, nil
}

// FigFMAccuracy validates the Section III.E claim that FM sketches estimate
// distinct interested users accurately in small fixed space: exact count vs
// estimate and relative error for the default 8×32 sketch.
func FigFMAccuracy() Figure {
	f := Figure{
		ID: "fm", Title: "FM sketch rank accuracy (F=8, L=32)",
		XLabel: "distinct users", YLabel: "estimate / error",
	}
	est := Series{Label: "estimate"}
	relErr := Series{Label: "relative error (%)"}
	for _, n := range []int{10, 50, 100, 500, 1000, 5000} {
		// Average over independent hash families to show the estimator's
		// typical behaviour rather than one family's luck.
		const trials = 20
		var sum float64
		for tr := 0; tr < trials; tr++ {
			sk := fm.New(8, 32, uint64(1000+tr))
			for i := 0; i < n; i++ {
				sk.Add(uint64(i)*2654435761 + uint64(tr))
			}
			sum += sk.Estimate()
		}
		mean := sum / trials
		est.X = append(est.X, float64(n))
		est.Y = append(est.Y, mean)
		relErr.X = append(relErr.X, float64(n))
		relErr.Y = append(relErr.Y, 100*abs(mean-float64(n))/float64(n))
	}
	f.Series = []Series{est, relErr}
	return f
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
