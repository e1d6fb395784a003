package campaign

import (
	"math"
	"reflect"
	"testing"

	"instantad/internal/experiment"
)

func testScenario() experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.NumPeers = 150
	sc.SimTime = 500
	return sc
}

func testConfig() Config {
	return Config{
		ArrivalRate:  1.0 / 30, // one ad every 30 s on average
		Start:        30,
		End:          300,
		R:            400,
		D:            120,
		RJitter:      50,
		DJitter:      20,
		CategorySkew: 0.8,
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.End = c.Start },
		func(c *Config) { c.Start = -1 },
		func(c *Config) { c.R = 0 },
		func(c *Config) { c.D = -1 },
		func(c *Config) { c.RJitter = c.R },
		func(c *Config) { c.DJitter = -1 },
	}
	for i, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestRunProducesCoherentReport(t *testing.T) {
	rep, err := Run(testScenario(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdsIssued < 2 {
		t.Fatalf("only %d ads over a 270 s window at 2/min", rep.AdsIssued)
	}
	if rep.MeanDelivery <= 0 || rep.MeanDelivery > 100 {
		t.Errorf("mean delivery %v out of range", rep.MeanDelivery)
	}
	if rep.WorstDelivery > rep.MeanDelivery {
		t.Errorf("worst %v above mean %v", rep.WorstDelivery, rep.MeanDelivery)
	}
	if rep.TotalMessages == 0 || rep.TotalBytes == 0 {
		t.Error("no traffic")
	}
	adSum := 0
	for _, cr := range rep.ByCategory {
		adSum += cr.Ads
		if cr.DeliveryRate < 0 || cr.DeliveryRate > 100 {
			t.Errorf("category %s delivery %v", cr.Category, cr.DeliveryRate)
		}
	}
	if adSum != rep.AdsIssued {
		t.Errorf("category ads %d ≠ total %d", adSum, rep.AdsIssued)
	}
	if rep.String() == "" {
		t.Error("empty summary")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testScenario(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testScenario(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.AdsIssued != b.AdsIssued || a.TotalMessages != b.TotalMessages || a.MeanDelivery != b.MeanDelivery {
		t.Errorf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunRejectsShortSimTime(t *testing.T) {
	sc := testScenario()
	sc.SimTime = 350 // end 300 + D 120 > 350
	if _, err := Run(sc, testConfig()); err == nil {
		t.Error("short sim time accepted")
	}
}

func TestRunInvalidScenario(t *testing.T) {
	sc := testScenario()
	sc.NumPeers = 0
	if _, err := Run(sc, testConfig()); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestSweepCapacityCurve(t *testing.T) {
	sc := testScenario()
	sc.SimTime = 450
	base := testConfig()
	base.End = 240
	reps, err := Sweep(sc, base, []float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[1].AdsIssued <= reps[0].AdsIssued {
		t.Errorf("higher rate issued fewer ads: %d vs %d", reps[1].AdsIssued, reps[0].AdsIssued)
	}
	if _, err := Sweep(sc, base, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestCachePressureShowsUnderLoad(t *testing.T) {
	// Tight caches plus a heavy arrival rate must produce evictions.
	sc := testScenario()
	sc.CacheK = 2
	sc.SimTime = 500
	cfg := testConfig()
	cfg.ArrivalRate = 1.0 / 10 // 6 ads/min
	rep, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evictions == 0 {
		t.Error("no cache pressure under heavy load with k=2")
	}
}

func TestFigCapacity(t *testing.T) {
	sc := testScenario()
	sc.SimTime = 450
	base := testConfig()
	base.End = 240
	f, err := FigCapacity(sc, base, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 2 {
			t.Fatalf("%s points = %d", s.Label, len(s.X))
		}
	}
	if _, err := FigCapacity(sc, base, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

// floatPaths returns the index path of every float64 field reachable from a
// struct type through nested struct fields, with a dotted name for each.
func floatPaths(t reflect.Type, prefix string, index []int) (names []string, paths [][]int) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		at := append(append([]int(nil), index...), i)
		switch f.Type.Kind() {
		case reflect.Float64:
			names = append(names, prefix+f.Name)
			paths = append(paths, at)
		case reflect.Struct:
			n, p := floatPaths(f.Type, prefix+f.Name+".", at)
			names = append(names, n...)
			paths = append(paths, p...)
		}
	}
	return names, paths
}

// TestValidateRejectsNonFinite is the regression test for the negative-form
// guards NaN and ±Inf slipped through: an infinite ArrivalRate validated and
// then never ended the arrival loop (every Exp draw is 0), and a NaN skew
// validated and sent every Zipf draw to the last category. Every float64
// field of Config (Interests.Skew included) and of Spec (the Area's center
// included) is set to NaN, +Inf and −Inf in turn on an otherwise valid
// value; Validate must reject each one.
func TestValidateRejectsNonFinite(t *testing.T) {
	rows := 0
	for _, good := range []interface{ Validate() error }{testConfig(), validSpec("ok")} {
		typ := reflect.TypeOf(good)
		if err := good.Validate(); err != nil {
			t.Fatalf("%s: the valid base is rejected: %v", typ.Name(), err)
		}
		names, paths := floatPaths(typ, "", nil)
		for i, path := range paths {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				v := reflect.New(typ).Elem()
				v.Set(reflect.ValueOf(good))
				v.FieldByIndex(path).SetFloat(bad)
				if err := v.Interface().(interface{ Validate() error }).Validate(); err == nil {
					t.Errorf("%s.%s = %v validates", typ.Name(), names[i], bad)
				}
				rows++
			}
		}
	}
	t.Logf("%d non-finite rows", rows)
}
