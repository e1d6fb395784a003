package mobility

import (
	"math"
	"reflect"
	"testing"

	"instantad/internal/geo"
)

// floatPaths returns the index path of every float64 field reachable from a
// struct type through nested struct fields — a geo.Rect's corner coordinates
// included — with a dotted name for each.
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
// guards NaN and ±Inf slipped through: "SpeedMean <= 0" is false for NaN, so
// a NaN speed validated and wrote "setdest … NaN" into an NS-2 trace, and an
// infinite Horizon validated and never ended the trajectory loop. Every
// float64 field of every model's config, the Field corners included, is set
// to NaN, +Inf and −Inf in turn on an otherwise valid config; validate must
// reject each one.
func TestValidateRejectsNonFinite(t *testing.T) {
	configs := []interface{ validate() error }{
		rwpCfg(),
		RandomWalkConfig{Field: geo.NewRect(60, 40), SpeedMean: 10, SpeedDelta: 5, Epoch: 20, Horizon: 400},
		ManhattanConfig{Field: geo.NewRect(1000, 1000), BlockSize: 100, SpeedMean: 10, SpeedDelta: 5, Horizon: 400},
		RoadConfig{Graph: roadTestGraph(t), SpeedMean: 10, SpeedDelta: 5, Pause: 2, Horizon: 400},
		rpgmCfg(),
	}
	rows := 0
	for _, good := range configs {
		typ := reflect.TypeOf(good)
		if err := good.validate(); err != nil {
			t.Fatalf("%s: the valid base config is rejected: %v", typ.Name(), err)
		}
		names, paths := floatPaths(typ, "", nil)
		if len(names) == 0 {
			t.Fatalf("%s has no float64 field", typ.Name())
		}
		for i, path := range paths {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				v := reflect.New(typ).Elem()
				v.Set(reflect.ValueOf(good))
				v.FieldByIndex(path).SetFloat(bad)
				if err := v.Interface().(interface{ validate() error }).validate(); err == nil {
					t.Errorf("%s.%s = %v validates", typ.Name(), names[i], bad)
				}
				rows++
			}
		}
	}
	t.Logf("%d non-finite rows over %d configs", rows, len(configs))
}
