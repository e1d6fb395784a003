package experiment

import "fmt"

// FigRSUCoverage is the urban VANET infrastructure sweep: road coverage,
// delivery rate and message budget versus roadside-unit count on a road
// scenario at a fixed gossip configuration — how much infrastructure buys how
// much coverage at what cost, the question the roadside-dissemination
// literature asks. counts lists the RSU deployments to compare (default
// 0, 2, 4, 8; 0 is the pure ad-hoc baseline).
func FigRSUCoverage(o RunOpts, counts []int) (Figure, error) {
	o = o.withDefaults()
	if len(counts) == 0 {
		counts = []int{0, 2, 4, 8}
	}
	f := Figure{
		ID: "rsu", Title: "Road coverage vs roadside units",
		XLabel: "Roadside Units", YLabel: "Coverage (%) / Delivery (%) / Messages (k)",
	}
	for _, n := range counts {
		if n < 0 {
			return Figure{}, fmt.Errorf("experiment: negative RSU count %d", n)
		}
	}
	xs := floats(counts)
	runs, err := sweepGrid(o, []curve{{"rsu", func(sc *Scenario, x float64) {
		sc.Mobility = Road
		sc.NumRSU = int(x)
	}}}, xs)
	if err != nil {
		return Figure{}, err
	}
	f.Series = []Series{
		plot("road coverage %", xs, runs[0], func(rs []Result) float64 {
			return 100 * sum(rs, func(r Result) float64 { return r.Coverage }) / float64(len(rs))
		}),
		plot("delivery rate %", xs, runs[0], meanRate),
		plot("messages (x1000)", xs, runs[0], func(rs []Result) float64 { return meanMsgs(rs) / 1000 }),
	}
	return f, nil
}
