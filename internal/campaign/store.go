package campaign

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"instantad/internal/ads"
	"instantad/internal/geo"
)

// State is a campaign's lifecycle phase.
type State string

const (
	// StatePending is accepted but not yet picked up by the scheduler.
	StatePending State = "pending"
	// StateActive is injecting (or waiting out backpressure).
	StateActive State = "active"
	// StateDone spent its window/budget and every issued ad has expired.
	StateDone State = "done"
	// StateCancelled was deleted by the issuer; live ads keep gossiping
	// (broadcasts cannot be unsent) but no further ads are injected.
	StateCancelled State = "cancelled"
)

// Errors the store reports; the HTTP layer maps them to status codes.
var (
	ErrNotFound = errors.New("campaign: not found")
	ErrExists   = errors.New("campaign: name already exists")
	ErrFinished = errors.New("campaign: already finished")
)

// AdRecord is one issued ad as the control plane tracks it — enough to
// replay the ad into a fresh fleet after a restart and to measure delivery
// against its probe set.
type AdRecord struct {
	Seq       int       `json:"seq"`     // per-campaign sequence
	WireID    ads.ID    `json:"wire_id"` // fleet identity (changes on replay)
	Origin    geo.Point `json:"origin"`  // injection position
	IssuedAt  time.Time `json:"issued_at"`
	ExpiresAt time.Time `json:"expires_at"`
	Probes    int       `json:"probes"`             // delivery probe slots
	Reached   int       `json:"reached"`            // probes that have the ad
	Restored  bool      `json:"restored,omitempty"` // replayed after a restart

	// Runtime-only probe state (rebuilt on replay, not checkpointed).
	probeIdx []int  // fleet node indices probed for delivery
	got      []bool // parallel to probeIdx
	expired  bool   // end-of-life already counted
}

// Live reports whether the ad is still within its lifetime at now.
func (r *AdRecord) Live(now time.Time) bool { return now.Before(r.ExpiresAt) }

// Campaign is one stored campaign with its runtime state. Exported fields
// are what checkpoints persist; the unexported tail is scheduler state that
// is either re-derived (probe sets) or persisted separately (acc).
type Campaign struct {
	ID        string      `json:"id"`
	Spec      Spec        `json:"spec"`
	State     State       `json:"state"`
	Created   time.Time   `json:"created"`
	Started   time.Time   `json:"started,omitempty"`
	Issued    int         `json:"issued"`
	Throttled int         `json:"throttled"` // injections deferred by admission
	Ads       []*AdRecord `json:"ads"`

	acc      float64   // fractional ads owed by the rate accumulator
	lastStep time.Time // previous scheduler step that advanced this campaign
	lat      []float64 // probe delivery latencies, seconds (capped)
}

// maxLatSamples caps the per-campaign latency sample buffer; at 32 probes
// per ad that is ~128 ads of full resolution, far beyond what p99 needs.
const maxLatSamples = 4096

// windowOver reports whether the injection window has closed at now.
func (c *Campaign) windowOver(now time.Time) bool {
	if c.Spec.Window <= 0 || c.Started.IsZero() {
		return false
	}
	return now.Sub(c.Started).Seconds() >= c.Spec.Window
}

// budgetSpent reports whether the ad budget is exhausted.
func (c *Campaign) budgetSpent() bool {
	return c.Spec.Budget > 0 && c.Issued >= c.Spec.Budget
}

// liveAds counts ads still inside their lifetime at now.
func (c *Campaign) liveAds(now time.Time) int {
	n := 0
	for _, r := range c.Ads {
		if r.Live(now) {
			n++
		}
	}
	return n
}

// observeLatency appends one probe delivery latency sample.
func (c *Campaign) observeLatency(sec float64) {
	if len(c.lat) < maxLatSamples {
		c.lat = append(c.lat, sec)
	}
}

// Status is the issuer-facing view of one campaign — the answer to
// GET /v1/campaigns/{id}/status.
type Status struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	State     State  `json:"state"`
	AdsIssued int    `json:"ads_issued"`
	AdsLive   int    `json:"ads_live"`
	Throttled int    `json:"throttled"`
	// Delivered is the number of probe deliveries observed; ProbeSlots the
	// number of probe observations possible so far, so Coverage =
	// Delivered/ProbeSlots estimates the fraction of the area reached.
	Delivered  int     `json:"delivered"`
	ProbeSlots int     `json:"probe_slots"`
	Coverage   float64 `json:"coverage"`
	// DeliveryP50/P99 are probe delivery-latency percentiles in seconds.
	DeliveryP50 float64 `json:"delivery_p50_s"`
	DeliveryP99 float64 `json:"delivery_p99_s"`
}

// statusLocked computes the Status view; callers hold the store lock.
func (c *Campaign) statusLocked(now time.Time) Status {
	st := Status{
		ID:        c.ID,
		Name:      c.Spec.Name,
		State:     c.State,
		AdsIssued: c.Issued,
		AdsLive:   c.liveAds(now),
		Throttled: c.Throttled,
	}
	for _, r := range c.Ads {
		st.Delivered += r.Reached
		st.ProbeSlots += r.Probes
	}
	if st.ProbeSlots > 0 {
		st.Coverage = float64(st.Delivered) / float64(st.ProbeSlots)
	}
	st.DeliveryP50 = percentile(c.lat, 0.50)
	st.DeliveryP99 = percentile(c.lat, 0.99)
	return st
}

// percentile computes the q-quantile of samples (nearest-rank on a sorted
// copy); 0 for an empty slice.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	idx := int(q*float64(len(cp))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Store is the campaign control plane's state: every campaign ever accepted
// this process lifetime, addressable by ID, checkpointable as one unit. All
// mutation happens under the store lock; the scheduler and the HTTP layer
// share one Store.
type Store struct {
	mu     sync.Mutex
	byID   map[string]*Campaign
	byName map[string]string // name → id
	order  []string          // creation order
	nextID int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byID:   make(map[string]*Campaign),
		byName: make(map[string]string),
	}
}

// Create validates and stores a new campaign in StatePending, assigning its
// ID. A spec whose name is already present is rejected with ErrExists (the
// HTTP 409 path).
func (s *Store) Create(spec Spec, now time.Time) (Campaign, error) {
	if err := spec.Validate(); err != nil {
		return Campaign{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[spec.Name]; dup {
		return Campaign{}, fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	s.nextID++
	c := &Campaign{
		ID:      fmt.Sprintf("c-%d", s.nextID),
		Spec:    spec,
		State:   StatePending,
		Created: now,
	}
	s.byID[c.ID] = c
	s.byName[spec.Name] = c.ID
	s.order = append(s.order, c.ID)
	return snapshotCampaign(c), nil
}

// Get returns a copy of the campaign (Ads deep-copied) or ErrNotFound.
func (s *Store) Get(id string) (Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return Campaign{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return snapshotCampaign(c), nil
}

// Status computes the issuer-facing status of one campaign.
func (s *Store) Status(id string, now time.Time) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c.statusLocked(now), nil
}

// List returns copies of every campaign in creation order.
func (s *Store) List() []Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, snapshotCampaign(s.byID[id]))
	}
	return out
}

// Cancel moves a pending or active campaign to StateCancelled. Cancelling a
// finished campaign reports ErrFinished (the HTTP 409 path); an unknown ID
// reports ErrNotFound.
func (s *Store) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.State == StateDone || c.State == StateCancelled {
		return fmt.Errorf("%w: %s is %s", ErrFinished, id, c.State)
	}
	c.State = StateCancelled
	return nil
}

// LiveAds counts ads inside their lifetime across all campaigns — the
// admission controller's primary capacity signal.
func (s *Store) LiveAds(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.byID {
		n += c.liveAds(now)
	}
	return n
}

// ShortestActiveLife returns the smallest ad lifetime among non-finished
// campaigns (seconds), or 0 when none — the admission controller's
// reference scale for "is delivery too slow".
func (s *Store) ShortestActiveLife() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	min := 0.0
	for _, c := range s.byID {
		if c.State != StatePending && c.State != StateActive {
			continue
		}
		if min == 0 || c.Spec.Duration < min {
			min = c.Spec.Duration
		}
	}
	return min
}

// CountByState tallies campaigns per state for the fleet/metrics surface.
func (s *Store) CountByState() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, 4)
	for _, c := range s.byID {
		out[c.State]++
	}
	return out
}

// snapshotCampaign deep-copies a campaign for handing outside the lock.
func snapshotCampaign(c *Campaign) Campaign {
	cp := *c
	cp.Ads = make([]*AdRecord, len(c.Ads))
	for i, r := range c.Ads {
		rc := *r
		rc.probeIdx = nil
		rc.got = nil
		cp.Ads[i] = &rc
	}
	cp.lat = append([]float64(nil), c.lat...)
	return cp
}
