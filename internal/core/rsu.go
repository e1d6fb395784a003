package core

import (
	"fmt"
	"sort"

	"instantad/internal/ads"
	"instantad/internal/obs"
)

// Roadside units (RSUs) are fixed infrastructure peers for the urban VANET
// scenarios: always-on nodes pinned at chosen intersections that participate
// in the wireless protocol exactly like mobile peers, plus two infrastructure
// privileges. First, an RSU inside an ad's current advertising radius always
// relays (forwarding probability 1; 0 outside the radius) — infrastructure
// has no battery to save, so probabilistic suppression would only cost
// coverage. Second, all RSU caches synchronize over a wired backhaul bus once
// per gossip round: any ad cached at one unit is copied to every other unit,
// turning the deployment into a city-wide gossip amplifier. Backhaul copies
// are wire transfers, not radio broadcasts — they consume no channel budget
// and fire no OnBroadcast, but they do count as deliveries.

// rsuState holds the backhaul bus shared by a network's roadside units.
type rsuState struct {
	ids []int // RSU peer indices, ascending

	// seen and live are the per-sync scratch: the distinct non-expired ads
	// collected across all RSU caches this round, first-seen snapshot wins.
	seen map[ads.ID]bool
	live []*ads.Advertisement

	obsSyncs      *obs.Counter
	obsDeliveries *obs.Counter
}

// initRSUs marks cfg.RSUPeers as roadside units and creates the backhaul
// state. Called from New after the peer slice is built.
func (n *Network) initRSUs(ids []int) error {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for i, id := range sorted {
		if id < 0 || id >= len(n.peers) {
			return fmt.Errorf("core: RSU peer %d out of range [0, %d)", id, len(n.peers))
		}
		if i > 0 && id == sorted[i-1] {
			return fmt.Errorf("core: duplicate RSU peer %d", id)
		}
		n.peers[id].isRSU = true
	}
	n.rsu = &rsuState{ids: sorted, seen: make(map[ads.ID]bool)}
	return nil
}

// RSUs returns the roadside-unit peer indices in ascending order (nil when
// the network has none).
func (n *Network) RSUs() []int {
	if n.rsu == nil {
		return nil
	}
	return n.rsu.ids
}

// InstrumentWith attaches the cache-overflow counters and the infrastructure
// and protocol-family instruments to reg. Call before the simulation runs;
// each of the latter groups is a no-op when its feature is off.
func (n *Network) InstrumentWith(reg *obs.Registry) {
	n.instrumentAsync(reg)
	n.rules.overflows = reg.Counter("core_overflow_total", "Ads admitted to a full lowest-probability cache.")
	n.rules.overflowDropped = reg.Counter("core_overflow_newcomer_dropped_total", "Overflows the arriving ad lost: it never entered the cache.")
	n.rules.overflowExact = reg.Counter("core_overflow_exact_total", "Overflows no score could decide: Formulas 1-3 evaluated for every entry.")
	if n.rsu == nil {
		return
	}
	r := n.rsu
	r.obsSyncs = reg.Counter("sim_rsu_syncs_total",
		"Ads copied between roadside units over the wired backhaul.")
	r.obsDeliveries = reg.Counter("sim_rsu_deliveries_total",
		"First ad receptions at roadside units.")
	reg.GaugeFunc("sim_rsus", "Roadside units in the network.",
		func() float64 { return float64(len(r.ids)) })
}

// rsuBackhaul runs once per round: collect every distinct live ad cached at
// any RSU, then hand a copy to each RSU that lacks it, running the same
// insert path a radio reception takes (popularity, opt-2 timers, overflow
// eviction). Iteration is in ascending RSU order, so which snapshot seeds a
// ubiquitous ad is deterministic.
func (n *Network) rsuBackhaul() {
	r := n.rsu
	now := n.sim.Now()
	for id := range r.seen {
		delete(r.seen, id)
	}
	r.live = r.live[:0]
	for _, id := range r.ids {
		n.peers[id].cache.ForEach(func(e *ads.Entry) {
			if r.seen[e.Ad.ID] || e.Ad.Expired(now) {
				return
			}
			r.seen[e.Ad.ID] = true
			r.live = append(r.live, e.Ad)
		})
	}
	for _, ad := range r.live {
		for _, id := range r.ids {
			p := n.peers[id]
			if p.cache.Get(ad.ID) != nil {
				continue
			}
			own := ad.Clone()
			p.markReceived(own)
			p.admit(own, false)
			if r.obsSyncs != nil {
				r.obsSyncs.Inc()
			}
		}
	}
}
