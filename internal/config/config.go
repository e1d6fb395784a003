// Package config persists experiment scenarios as JSON so parameter
// settings can be versioned, shared and replayed exactly (the role NS-2's
// Tcl scripts played for the paper's experiments).
//
// The JSON layout mirrors experiment.Scenario field-for-field; unknown keys
// are rejected so a typo in a config file fails loudly instead of silently
// running the default.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"instantad/internal/core"
	"instantad/internal/experiment"
)

// scenarioJSON is the on-disk form. Protocol and mobility travel as their
// human-readable names; everything else is the Scenario field itself.
type scenarioJSON struct {
	Name       string  `json:"name,omitempty"`
	FieldW     float64 `json:"field_w"`
	FieldH     float64 `json:"field_h"`
	NumPeers   int     `json:"num_peers"`
	Mobility   string  `json:"mobility"`
	SpeedMean  float64 `json:"speed_mean"`
	SpeedDelta float64 `json:"speed_delta"`
	Pause      float64 `json:"pause"`
	BlockSize  float64 `json:"block_size,omitempty"`
	TraceFile  string  `json:"trace_file,omitempty"`

	RoadFile     string  `json:"road_file,omitempty"`
	NumRSU       int     `json:"num_rsu,omitempty"`
	RSUPlacement string  `json:"rsu_placement,omitempty"`
	RSURange     float64 `json:"rsu_range,omitempty"`

	PedestrianFraction float64 `json:"pedestrian_fraction,omitempty"`
	PedestrianSpeed    float64 `json:"pedestrian_speed,omitempty"`
	PedestrianRange    float64 `json:"pedestrian_range,omitempty"`

	TxRange       float64 `json:"tx_range"`
	LossRate      float64 `json:"loss_rate,omitempty"`
	FadeZone      float64 `json:"fade_zone,omitempty"`
	Collisions    bool    `json:"collisions,omitempty"`
	MeasureEnergy bool    `json:"measure_energy,omitempty"`

	Protocol   string  `json:"protocol"`
	Alpha      float64 `json:"alpha"`
	Beta       float64 `json:"beta"`
	DistUnit   float64 `json:"dist_unit,omitempty"`
	TimeUnit   float64 `json:"time_unit,omitempty"`
	RoundTime  float64 `json:"round_time"`
	RoundSlots int     `json:"round_slots,omitempty"`
	DIS        float64 `json:"dis,omitempty"`
	CacheK     int     `json:"cache_k"`

	AsyncK         int     `json:"async_k,omitempty"`
	AsyncMeanDelay float64 `json:"async_mean_delay,omitempty"`
	AsyncTimeout   float64 `json:"async_timeout,omitempty"`

	Popularity *popularityJSON `json:"popularity,omitempty"`

	R         float64 `json:"ad_radius"`
	D         float64 `json:"ad_duration"`
	Category  string  `json:"ad_category,omitempty"`
	IssueTime float64 `json:"issue_time"`
	IssueAtX  float64 `json:"issue_at_x,omitempty"`
	IssueAtY  float64 `json:"issue_at_y,omitempty"`

	IssuerOfflineAfter float64 `json:"issuer_offline_after,omitempty"`
	ChurnOnMean        float64 `json:"churn_on_mean,omitempty"`
	ChurnOffMean       float64 `json:"churn_off_mean,omitempty"`

	SimTime     float64 `json:"sim_time"`
	SampleEvery float64 `json:"sample_every,omitempty"`
	Seed        uint64  `json:"seed"`
	// Decode-only: the scenario fields are deprecated and ignored, but files
	// saved before that carry the keys and the decoder rejects unknown ones.
	// Encode leaves both zero, so they are never written.
	Workers int `json:"workers,omitempty"`
	Shards  int `json:"shards,omitempty"`
}

type popularityJSON struct {
	F          int     `json:"f,omitempty"`
	L          int     `json:"l,omitempty"`
	SketchSeed uint64  `json:"sketch_seed,omitempty"`
	RInc       float64 `json:"r_inc,omitempty"`
	DInc       float64 `json:"d_inc,omitempty"`
	RMax       float64 `json:"r_max,omitempty"`
	DMax       float64 `json:"d_max,omitempty"`
}

// Encode writes the scenario as indented JSON.
func Encode(w io.Writer, sc experiment.Scenario) error {
	j := scenarioJSON{
		Name:               sc.Name,
		FieldW:             sc.FieldW,
		FieldH:             sc.FieldH,
		NumPeers:           sc.NumPeers,
		Mobility:           string(sc.Mobility),
		SpeedMean:          sc.SpeedMean,
		SpeedDelta:         sc.SpeedDelta,
		Pause:              sc.Pause,
		BlockSize:          sc.BlockSize,
		TraceFile:          sc.TraceFile,
		RoadFile:           sc.RoadFile,
		NumRSU:             sc.NumRSU,
		RSUPlacement:       sc.RSUPlacement,
		RSURange:           sc.RSURange,
		PedestrianFraction: sc.PedestrianFraction,
		PedestrianSpeed:    sc.PedestrianSpeed,
		PedestrianRange:    sc.PedestrianRange,
		TxRange:            sc.TxRange,
		LossRate:           sc.LossRate,
		FadeZone:           sc.FadeZone,
		Collisions:         sc.Collisions,
		Protocol:           sc.Protocol.String(),
		Alpha:              sc.Alpha,
		Beta:               sc.Beta,
		DistUnit:           sc.DistUnit,
		TimeUnit:           sc.TimeUnit,
		RoundTime:          sc.RoundTime,
		RoundSlots:         sc.RoundSlots,
		DIS:                sc.DIS,
		CacheK:             sc.CacheK,
		AsyncK:             sc.AsyncK,
		AsyncMeanDelay:     sc.AsyncMeanDelay,
		AsyncTimeout:       sc.AsyncTimeout,
		R:                  sc.R,
		D:                  sc.D,
		Category:           sc.Category,
		IssueTime:          sc.IssueTime,
		IssueAtX:           sc.IssueAt.X,
		IssueAtY:           sc.IssueAt.Y,
		SimTime:            sc.SimTime,
		SampleEvery:        sc.SampleEvery,
		Seed:               sc.Seed,
	}
	if sc.Popularity.Enabled {
		j.Popularity = &popularityJSON{
			F: sc.Popularity.F, L: sc.Popularity.L, SketchSeed: sc.Popularity.SketchSeed,
			RInc: sc.Popularity.RInc, DInc: sc.Popularity.DInc,
			RMax: sc.Popularity.RMax, DMax: sc.Popularity.DMax,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// Decode reads a scenario from JSON, validating protocol/mobility names and
// rejecting unknown fields. The result is further validated with
// Scenario.Validate.
func Decode(r io.Reader) (experiment.Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j scenarioJSON
	if err := dec.Decode(&j); err != nil {
		return experiment.Scenario{}, fmt.Errorf("config: %w", err)
	}
	proto, err := core.ParseProtocol(j.Protocol)
	if err != nil {
		return experiment.Scenario{}, fmt.Errorf("config: %w", err)
	}
	sc := experiment.Scenario{
		Name:               j.Name,
		FieldW:             j.FieldW,
		FieldH:             j.FieldH,
		NumPeers:           j.NumPeers,
		Mobility:           experiment.MobilityKind(j.Mobility),
		SpeedMean:          j.SpeedMean,
		SpeedDelta:         j.SpeedDelta,
		Pause:              j.Pause,
		BlockSize:          j.BlockSize,
		TraceFile:          j.TraceFile,
		RoadFile:           j.RoadFile,
		NumRSU:             j.NumRSU,
		RSUPlacement:       j.RSUPlacement,
		RSURange:           j.RSURange,
		PedestrianFraction: j.PedestrianFraction,
		PedestrianSpeed:    j.PedestrianSpeed,
		PedestrianRange:    j.PedestrianRange,
		TxRange:            j.TxRange,
		LossRate:           j.LossRate,
		FadeZone:           j.FadeZone,
		Collisions:         j.Collisions,
		Protocol:           proto,
		Alpha:              j.Alpha,
		Beta:               j.Beta,
		DistUnit:           j.DistUnit,
		TimeUnit:           j.TimeUnit,
		RoundTime:          j.RoundTime,
		RoundSlots:         j.RoundSlots,
		DIS:                j.DIS,
		CacheK:             j.CacheK,
		AsyncK:             j.AsyncK,
		AsyncMeanDelay:     j.AsyncMeanDelay,
		AsyncTimeout:       j.AsyncTimeout,
		R:                  j.R,
		D:                  j.D,
		Category:           j.Category,
		IssueTime:          j.IssueTime,
		SimTime:            j.SimTime,
		SampleEvery:        j.SampleEvery,
		Seed:               j.Seed,
		Workers:            j.Workers,
		Shards:             j.Shards,
	}
	sc.IssueAt.X, sc.IssueAt.Y = j.IssueAtX, j.IssueAtY
	if j.Popularity != nil {
		sc.Popularity = core.PopularityConfig{
			Enabled: true,
			F:       j.Popularity.F, L: j.Popularity.L, SketchSeed: j.Popularity.SketchSeed,
			RInc: j.Popularity.RInc, DInc: j.Popularity.DInc,
			RMax: j.Popularity.RMax, DMax: j.Popularity.DMax,
		}
	}
	if err := sc.Validate(); err != nil {
		return experiment.Scenario{}, err
	}
	return sc, nil
}

// Save writes the scenario to a file.
func Save(path string, sc experiment.Scenario) error {
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Load reads a scenario from a file.
func Load(path string) (experiment.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return experiment.Scenario{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
