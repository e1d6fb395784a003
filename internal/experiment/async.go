package experiment

import "instantad/internal/core"

// asyncCurves is the plot order of the async comparison: the paper's
// broadcast gossip baseline, the pairwise family at k = 1…3, and a churned
// flavor of each family (exponential 300 s on / 60 s off, the impaired-
// channel determinism case) to show how each degrades when peers cycle
// offline. x is the number of peers.
var asyncCurves = []curve{
	{"Gossiping", asyncVariant(0, false)},
	{"Async k=1", asyncVariant(1, false)},
	{"Async k=2", asyncVariant(2, false)},
	{"Async k=3", asyncVariant(3, false)},
	{"Gossiping churn", asyncVariant(0, true)},
	{"Async k=2 churn", asyncVariant(2, true)},
}

// asyncVariant runs the pairwise family at k, or broadcast Gossiping at
// k = 0, with or without churn.
func asyncVariant(k int, churn bool) func(*Scenario, float64) {
	return func(sc *Scenario, x float64) {
		sc.NumPeers = int(x)
		sc.Protocol = core.Gossip
		if k > 0 {
			sc.Protocol, sc.AsyncK = core.AsyncGossip, k
		}
		if churn {
			sc.ChurnOnMean, sc.ChurnOffMean = 300, 60
		}
	}
}

// FigAsync compares the asynchronous pairwise family (mobile telephone
// model) against the paper's broadcast gossip across network density:
// spread time (mean delivery time over delivered peers) and message cost,
// one curve per variant. Densities default to {100, 300, 600} peers; set
// RunOpts.Sizes to override.
func FigAsync(o RunOpts) (tfig, mfig Figure, err error) {
	sizes := o.Sizes
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{100, 300, 600}
	}
	xs := floats(sizes)
	runs, err := sweepGrid(o, asyncCurves, xs)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	tfig = Figure{
		ID: "async-time", Title: "Spread time: async pairwise vs broadcast gossip",
		XLabel: "Number of Peers", YLabel: "Delivery Time (s)",
	}
	mfig = Figure{
		ID: "async-msgs", Title: "Message cost: async pairwise vs broadcast gossip",
		XLabel: "Number of Peers", YLabel: "Number of Messages",
	}
	for i, c := range asyncCurves {
		tfig.Series = append(tfig.Series, plot(c.label, xs, runs[i], meanTime))
		mfig.Series = append(mfig.Series, plot(c.label, xs, runs[i], meanMsgs))
	}
	return
}
