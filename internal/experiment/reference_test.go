package experiment

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"instantad/internal/roadnet"
)

// refValidate is Scenario.Validate as it stood before the parameter table:
// every range and finiteness guard written out by hand.
func refValidate(sc Scenario) error {
	if !(refFinitePos(sc.FieldW) && refFinitePos(sc.FieldH)) {
		return fmt.Errorf("experiment: field %vx%v not positive and finite", sc.FieldW, sc.FieldH)
	}
	if sc.NumPeers < 1 {
		return fmt.Errorf("experiment: %d peers", sc.NumPeers)
	}
	if !(refFinite(sc.IssueTime) && sc.SimTime > sc.IssueTime && refFinite(sc.SimTime)) {
		return fmt.Errorf("experiment: sim time %v not finite and beyond issue time %v", sc.SimTime, sc.IssueTime)
	}
	if !(refFinitePos(sc.R) && refFinitePos(sc.D)) {
		return fmt.Errorf("experiment: bad ad parameters R=%v D=%v", sc.R, sc.D)
	}
	if !refFinitePos(sc.TxRange) {
		return fmt.Errorf("experiment: transmission range %v not positive and finite", sc.TxRange)
	}
	if !(sc.LossRate >= 0 && sc.LossRate < 1) {
		return fmt.Errorf("experiment: loss rate %v outside [0,1)", sc.LossRate)
	}
	if !(sc.FadeZone >= 0 && sc.FadeZone < sc.TxRange) {
		return fmt.Errorf("experiment: fade zone %v outside [0, range)", sc.FadeZone)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SpeedMean", sc.SpeedMean}, {"SpeedDelta", sc.SpeedDelta}, {"Pause", sc.Pause},
		{"BlockSize", sc.BlockSize}, {"PedestrianSpeed", sc.PedestrianSpeed},
		{"PedestrianRange", sc.PedestrianRange}, {"Alpha", sc.Alpha}, {"Beta", sc.Beta},
		{"DistUnit", sc.DistUnit}, {"TimeUnit", sc.TimeUnit}, {"RoundTime", sc.RoundTime},
		{"DIS", sc.DIS}, {"IssueAt.X", sc.IssueAt.X}, {"IssueAt.Y", sc.IssueAt.Y},
		{"SampleEvery", sc.SampleEvery}, {"Popularity.RInc", sc.Popularity.RInc},
		{"Popularity.DInc", sc.Popularity.DInc}, {"Popularity.RMax", sc.Popularity.RMax},
		{"Popularity.DMax", sc.Popularity.DMax},
	} {
		if !refFinite(f.v) {
			return fmt.Errorf("experiment: %s %v not finite", f.name, f.v)
		}
	}
	switch sc.Mobility {
	case RandomWaypoint, RandomWalk, Manhattan, RPGM, Road:
	default:
		return fmt.Errorf("experiment: unknown mobility %q", sc.Mobility)
	}
	if sc.NumRSU < 0 {
		return fmt.Errorf("experiment: negative RSU count %d", sc.NumRSU)
	}
	if !refFiniteNonNeg(sc.RSURange) {
		return fmt.Errorf("experiment: RSU range %v not finite and non-negative", sc.RSURange)
	}
	if sc.Mobility != Road {
		if sc.RoadFile != "" {
			return fmt.Errorf("experiment: road file set but mobility is %q, not road", sc.Mobility)
		}
		if sc.NumRSU > 0 {
			return fmt.Errorf("experiment: %d RSUs need road mobility, not %q", sc.NumRSU, sc.Mobility)
		}
	}
	if _, err := roadnet.ParsePlacement(sc.RSUPlacement); err != nil {
		return err
	}
	if !(sc.PedestrianFraction >= 0 && sc.PedestrianFraction <= 1) {
		return fmt.Errorf("experiment: pedestrian fraction %v outside [0,1]", sc.PedestrianFraction)
	}
	if !refFiniteNonNeg(sc.IssuerOfflineAfter) {
		return fmt.Errorf("experiment: issuer-offline delay %v not finite and non-negative", sc.IssuerOfflineAfter)
	}
	if !(refFiniteNonNeg(sc.ChurnOnMean) && refFiniteNonNeg(sc.ChurnOffMean)) {
		return fmt.Errorf("experiment: churn means %v, %v not finite and non-negative", sc.ChurnOnMean, sc.ChurnOffMean)
	}
	if (sc.ChurnOnMean > 0) != (sc.ChurnOffMean > 0) {
		return fmt.Errorf("experiment: churn needs both on and off means")
	}
	if sc.Workers < 0 {
		return fmt.Errorf("experiment: negative workers %d", sc.Workers)
	}
	if sc.Shards < 0 || sc.Shards > 4096 {
		return fmt.Errorf("experiment: shards %d outside [0, 4096]", sc.Shards)
	}
	if sc.RoundSlots < 0 {
		return fmt.Errorf("experiment: negative round slots %d", sc.RoundSlots)
	}
	if sc.AsyncK < 0 {
		return fmt.Errorf("experiment: negative async exchange bound %d", sc.AsyncK)
	}
	if !(refFiniteNonNeg(sc.AsyncMeanDelay) && refFiniteNonNeg(sc.AsyncTimeout)) {
		return fmt.Errorf("experiment: async timing (delay %v, timeout %v) not finite and non-negative", sc.AsyncMeanDelay, sc.AsyncTimeout)
	}
	return nil
}

// refFinite reports x ∈ (−Inf, +Inf); refFiniteNonNeg and refFinitePos
// narrow it to [0, +Inf) and (0, +Inf).
func refFinite(x float64) bool       { return !math.IsNaN(x) && !math.IsInf(x, 0) }
func refFiniteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
func refFinitePos(x float64) bool    { return x > 0 && !math.IsInf(x, 1) }

// TestValidateMatchesReference pits the table-driven Validate against the
// hand-written one it replaced. Each numeric row is tried at the ends of its
// accepted range and one ulp either side of each (one unit for ints), at 0
// and −1, and at NaN and ±Inf; then each cross-field rule on both sides.
// Both base scenarios run every probe. Accept/reject must agree, except that
// a negative IssueTime, which the reference let through to a panic, is now
// refused.
func TestValidateMatchesReference(t *testing.T) {
	road := DefaultScenario()
	road.Mobility, road.RoadFile, road.NumRSU = Road, "roads.txt", 3
	road.ChurnOnMean, road.ChurnOffMean, road.FadeZone = 60, 30, 10
	bases := map[string]Scenario{"default": DefaultScenario(), "road": road}

	agree := func(what string, sc Scenario) {
		t.Helper()
		got, want := sc.Validate(), refValidate(sc)
		if sc.IssueTime < 0 {
			if got == nil {
				t.Errorf("%s: negative issue time accepted", what)
			}
			return
		}
		if (got == nil) != (want == nil) {
			t.Errorf("%s: Validate says %v, reference says %v", what, got, want)
		}
	}
	up, down := math.Inf(1), math.Inf(-1)
	for bname, base := range bases {
		for _, p := range params {
			probes := []float64{
				p.lo, math.Nextafter(p.lo, down), math.Nextafter(p.lo, up),
				p.hi, math.Nextafter(p.hi, down), math.Nextafter(p.hi, up),
				0, -1, math.NaN(), up, down,
			}
			for _, x := range probes {
				sc := base
				f := reflect.ValueOf(&sc).Elem().FieldByIndex(p.index)
				switch f.Kind() {
				case reflect.Float64:
					f.SetFloat(x)
					agree(fmt.Sprintf("%s: %s = %v", bname, p.name, x), sc)
				case reflect.Int:
					for _, n := range []float64{x - 1, x, x + 1} {
						if math.Abs(n) < 1<<53 && n == math.Trunc(n) {
							f.SetInt(int64(n))
							agree(fmt.Sprintf("%s: %s = %v", bname, p.name, n), sc)
						}
					}
				}
			}
		}

		cross := map[string]func(*Scenario){
			"sim time at issue time":      func(sc *Scenario) { sc.SimTime = sc.IssueTime },
			"sim time just past issue":    func(sc *Scenario) { sc.SimTime = math.Nextafter(sc.IssueTime, up) },
			"issue at 0, sim time 1 ulp":  func(sc *Scenario) { sc.IssueTime, sc.SimTime = 0, math.SmallestNonzeroFloat64 },
			"fade zone at range":          func(sc *Scenario) { sc.FadeZone = sc.TxRange },
			"fade zone just inside range": func(sc *Scenario) { sc.FadeZone = math.Nextafter(sc.TxRange, down) },
			"churn on only":               func(sc *Scenario) { sc.ChurnOnMean, sc.ChurnOffMean = 60, 0 },
			"churn off only":              func(sc *Scenario) { sc.ChurnOnMean, sc.ChurnOffMean = 0, 30 },
			"churn both":                  func(sc *Scenario) { sc.ChurnOnMean, sc.ChurnOffMean = 60, 30 },
			"churn neither":               func(sc *Scenario) { sc.ChurnOnMean, sc.ChurnOffMean = 0, 0 },
			"road file, road mobility":    func(sc *Scenario) { sc.Mobility, sc.RoadFile = Road, "roads.txt" },
			"road file, open field":       func(sc *Scenario) { sc.Mobility, sc.RoadFile = Manhattan, "roads.txt" },
			"RSUs, road mobility":         func(sc *Scenario) { sc.Mobility, sc.NumRSU = Road, 2 },
			"RSUs, open field":            func(sc *Scenario) { sc.Mobility, sc.NumRSU = RPGM, 2 },
			"unknown mobility":            func(sc *Scenario) { sc.Mobility = "teleport" },
			"empty mobility":              func(sc *Scenario) { sc.Mobility = "" },
			"unknown placement":           func(sc *Scenario) { sc.RSUPlacement = "bogus" },
		}
		for _, m := range MobilityKinds() {
			cross["mobility "+m.String()] = func(sc *Scenario) { sc.Mobility = m }
		}
		for _, pl := range []string{"", "spread", "random", "degree"} {
			cross["placement "+pl] = func(sc *Scenario) { sc.RSUPlacement = pl }
		}
		for name, mutate := range cross {
			sc := base
			mutate(&sc)
			agree(bname+": "+name, sc)
		}
	}
}
