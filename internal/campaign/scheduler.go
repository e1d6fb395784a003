package campaign

import (
	"fmt"
	"sync"
	"time"

	"instantad/internal/core"
	"instantad/internal/node"
	"instantad/internal/obs"
)

// SchedulerConfig wires a Scheduler to its store, fleet and policy.
type SchedulerConfig struct {
	Store *Store
	Fleet *Fleet
	// Admission is the backpressure policy for campaign creation and ad
	// injection; the zero value only applies the latency gate.
	Admission Admission
	// Tick is the control-loop period. Zero means 100ms.
	Tick time.Duration
	// Registry receives the campaignd_* instruments, the fleet_nodes gauge and
	// the fleet's node_* totals. Nil means a private registry.
	Registry *obs.Registry
	Logf     func(format string, args ...any)
}

// Scheduler is the control plane's actuator: a single control loop that
// moves campaigns through their lifecycle, turns campaign rates into real
// ad injections (under admission control), and measures delivery by polling
// each ad's probe set. One Scheduler drives one Fleet.
type Scheduler struct {
	cfg SchedulerConfig
	st  *Store
	fl  *Fleet
	ins *instruments
	reg *obs.Registry

	mu         sync.Mutex
	started    bool
	stop       chan struct{}
	done       chan struct{}
	lastTotals node.Stats
	lastAt     time.Time
	defRate    float64 // EWMA of budget_deferred growth, events/s
	backRate   float64 // EWMA of peer_backoffs growth, events/s
}

// ewmaAlpha smooths the congestion-rate estimates; at a 1s sample period the
// estimate settles in a few seconds.
const ewmaAlpha = 0.3

// NewScheduler builds the scheduler and registers its instruments. The loop
// is not running until Start.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Store == nil || cfg.Fleet == nil {
		return nil, fmt.Errorf("campaign: scheduler needs a store and a fleet")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		cfg:  cfg,
		st:   cfg.Store,
		fl:   cfg.Fleet,
		ins:  newInstruments(reg),
		reg:  reg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg.GaugeFunc("campaignd_live_ads", "ads inside their lifetime across all campaigns",
		func() float64 { return float64(s.st.LiveAds(time.Now())) })
	reg.GaugeFunc("campaignd_campaigns_active", "campaigns in the active state",
		func() float64 { return float64(s.st.CountByState()[StateActive]) })
	reg.GaugeFunc("fleet_nodes", "live nodes in the captive fleet",
		func() float64 { return float64(s.fl.NodeCount()) })
	node.RegisterStats(reg, s.fl.Totals)
	return s, nil
}

// Registry returns the registry holding the campaignd_*, fleet_nodes and
// node_* instruments.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Start launches the control loop.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Stop halts the control loop and waits for it to exit. The fleet keeps
// gossiping whatever is already in flight; Stop only parks the actuator.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

func (s *Scheduler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.Step(now)
		}
	}
}

// Signals samples the admission inputs. Exported so the HTTP layer applies
// the same policy to campaign creation that the scheduler applies to
// injection.
func (s *Scheduler) Signals(now time.Time) Signals {
	s.updateRates(now)
	s.mu.Lock()
	def, back := s.defRate, s.backRate
	s.mu.Unlock()
	return Signals{
		LiveAds:        s.st.LiveAds(now),
		ShortestLife:   s.st.ShortestActiveLife(),
		DeliveryP99:    s.ins.delivery.Quantile(0.99),
		DeferredPerSec: def,
		BackoffsPerSec: back,
	}
}

// Admit runs the admission policy against current signals.
func (s *Scheduler) Admit(now time.Time) Decision {
	return s.cfg.Admission.Decide(s.Signals(now))
}

// updateRates refreshes the EWMA congestion rates from fleet totals, at most
// once per second (the totals walk is O(N)).
func (s *Scheduler) updateRates(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lastAt.IsZero() && now.Sub(s.lastAt) < time.Second {
		return
	}
	t := s.fl.Totals()
	if !s.lastAt.IsZero() {
		dt := now.Sub(s.lastAt).Seconds()
		if dt > 0 {
			def := float64(t.BudgetDeferred-s.lastTotals.BudgetDeferred) / dt
			back := float64(t.PeerBackoffs-s.lastTotals.PeerBackoffs) / dt
			s.defRate = ewmaAlpha*def + (1-ewmaAlpha)*s.defRate
			s.backRate = ewmaAlpha*back + (1-ewmaAlpha)*s.backRate
		}
	}
	s.lastTotals, s.lastAt = t, now
}

// maxAccum caps the rate accumulator so a campaign starved by backpressure
// bursts at most this many ads when admission reopens.
const maxAccum = 3

// Step advances every campaign once: activates pending work, injects owed
// ads under admission control, polls probe sets, expires ads, and closes out
// finished campaigns. It is the whole control loop body, exported so tests
// can drive it deterministically without the ticker.
func (s *Scheduler) Step(now time.Time) {
	sig := s.Signals(now)
	dec := s.cfg.Admission.Decide(sig)

	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	for _, id := range s.st.order {
		c := s.st.byID[id]
		s.pollProbesLocked(c, now)
		s.expireLocked(c, now)
		switch c.State {
		case StatePending:
			c.State = StateActive
			c.Started = now
			c.lastStep = now
		case StateActive:
			s.injectLocked(c, now, &dec, &sig)
			if (c.windowOver(now) || c.budgetSpent()) && c.liveAds(now) == 0 {
				c.State = StateDone
				s.ins.done.Inc()
			}
		}
	}
}

// injectLocked advances c's rate accumulator and issues owed ads while
// admission allows. The accumulator is retained (capped) when throttled, so
// backpressure defers ads rather than silently dropping the rate.
func (s *Scheduler) injectLocked(c *Campaign, now time.Time, dec *Decision, sig *Signals) {
	if c.windowOver(now) || c.budgetSpent() {
		return
	}
	if c.lastStep.IsZero() {
		c.lastStep = now
	}
	c.acc += c.Spec.RatePerMin / 60 * now.Sub(c.lastStep).Seconds()
	c.lastStep = now
	if c.acc > maxAccum {
		c.acc = maxAccum
	}
	for c.acc >= 1 && !c.budgetSpent() {
		if !dec.Admit {
			c.Throttled++
			s.ins.injectThrottled.Inc()
			return
		}
		if err := s.issueLocked(c, now, false); err != nil {
			s.logf("campaign %s: inject: %v", c.ID, err)
			return
		}
		c.acc--
		// Each injection raises the live-ad count; re-evaluate so one step
		// cannot blow through the capacity gate.
		sig.LiveAds++
		*dec = s.cfg.Admission.Decide(*sig)
	}
}

// issueLocked issues one real ad for c into the fleet and records it.
// Callers hold the store lock.
func (s *Scheduler) issueLocked(c *Campaign, now time.Time, restored bool) error {
	return s.issueAdLocked(c, now, c.Spec.Duration, restored)
}

// issueAdLocked is issueLocked with an explicit lifetime — checkpoint replay
// re-issues ads with their remaining (not full) duration.
func (s *Scheduler) issueAdLocked(c *Campaign, now time.Time, duration float64, restored bool) error {
	seq := c.Issued + 1
	text := c.Spec.Text
	if text == "" {
		text = fmt.Sprintf("%s #%d", c.Spec.Name, seq)
	}
	center := c.Spec.Area.Center()
	id, origin, err := s.fl.Inject(center, core.AdSpec{
		R:        c.Spec.Area.Radius,
		D:        duration,
		Category: c.Spec.Category,
		Text:     text,
	})
	if err != nil {
		return err
	}
	probes := s.fl.ProbeSet(center, c.Spec.Area.Radius, s.fl.Probes())
	idx := probes[:0]
	for _, p := range probes {
		if p != origin {
			idx = append(idx, p)
		}
	}
	r := &AdRecord{
		Seq:       seq,
		WireID:    id,
		Origin:    s.fl.Position(origin),
		IssuedAt:  now,
		ExpiresAt: now.Add(time.Duration(duration * float64(time.Second))),
		Probes:    len(idx),
		Restored:  restored,
		probeIdx:  append([]int(nil), idx...),
		got:       make([]bool, len(idx)),
	}
	c.Ads = append(c.Ads, r)
	c.Issued++
	if restored {
		s.ins.adsRestored.Inc()
	} else {
		s.ins.adsInjected.Inc()
	}
	return nil
}

// pollProbesLocked checks each live ad's remaining probe nodes for delivery
// and records first-observation latencies.
func (s *Scheduler) pollProbesLocked(c *Campaign, now time.Time) {
	for _, r := range c.Ads {
		if !r.Live(now) || r.Reached == r.Probes {
			continue
		}
		for k, got := range r.got {
			if got {
				continue
			}
			if s.fl.Has(r.probeIdx[k], r.WireID) {
				r.got[k] = true
				r.Reached++
				lat := now.Sub(r.IssuedAt).Seconds()
				c.observeLatency(lat)
				s.ins.delivery.Observe(lat)
			}
		}
	}
}

// expireLocked counts ads crossing end of life.
func (s *Scheduler) expireLocked(c *Campaign, now time.Time) {
	for _, r := range c.Ads {
		if !r.expired && !r.Live(now) {
			r.expired = true
			s.ins.adsExpired.Inc()
		}
	}
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
