// Package workload generates the synthetic advertising workloads used by the
// experiments and examples: ad categories (the instant-ad types the paper's
// introduction motivates), peer interest assignment, and ad-spec generation.
//
// The paper abstracts user interest as keywords and matches ads by type;
// this package keeps exactly that abstraction. Interest popularity across
// categories follows a configurable Zipf skew, so some ad types (petrol
// prices) are widely interesting while others (garage sales) are niche.
package workload

import (
	"fmt"

	"instantad/internal/core"
	"instantad/internal/rng"
)

// Categories are the built-in instant-ad types, ordered by assumed
// popularity (Zipf rank).
var Categories = []string{
	"petrol",
	"grocery",
	"traffic",
	"parking",
	"restaurant",
	"retail",
	"garage-sale",
	"emergency",
}

// InterestConfig controls interest assignment.
type InterestConfig struct {
	// Categories to draw from; defaults to the package list when empty.
	Categories []string
	// MaxPerPeer is the largest number of interests per peer (each peer gets
	// 1..MaxPerPeer distinct interests). Defaults to 3 when zero.
	MaxPerPeer int
	// Skew is the Zipf exponent over category ranks; 0 is uniform.
	Skew float64
}

func (c InterestConfig) withDefaults() InterestConfig {
	if len(c.Categories) == 0 {
		c.Categories = Categories
	}
	if c.MaxPerPeer <= 0 {
		c.MaxPerPeer = 3
	}
	return c
}

// AssignInterests gives every peer in the network a random interest set.
func AssignInterests(n *core.Network, cfg InterestConfig, rnd *rng.Stream) {
	cfg = cfg.withDefaults()
	for i := 0; i < n.NumPeers(); i++ {
		n.Peer(i).SetInterests(cfg.draw(rnd)...)
	}
}

// draw picks one peer's interests: 1..MaxPerPeer distinct categories.
func (c InterestConfig) draw(rnd *rng.Stream) []string {
	k := 1 + rnd.Intn(c.MaxPerPeer)
	seen := make(map[string]bool, k)
	var picks []string
	for len(picks) < k && len(picks) < len(c.Categories) {
		cat := c.Categories[rnd.Zipf(len(c.Categories), c.Skew)]
		if !seen[cat] {
			seen[cat] = true
			picks = append(picks, cat)
		}
	}
	return picks
}

// AdText returns a plausible payload for a category, sized like the short
// text ads the paper envisions.
func AdText(category string, seq int) string {
	switch category {
	case "petrol":
		return fmt.Sprintf("Unleaded 91 at $%d.%02d/L this morning only", 1, 30+seq%40)
	case "grocery":
		return fmt.Sprintf("Fresh fruit %d%% off until 6pm at the corner market", 10+5*(seq%6))
	case "traffic":
		return fmt.Sprintf("Congestion on route %d — allow 15 extra minutes", 1+seq%9)
	case "parking":
		return fmt.Sprintf("%d free parking spots near the station entrance", 2+seq%20)
	case "restaurant":
		return "Lunch special: two courses for the price of one, today"
	case "retail":
		return fmt.Sprintf("Clearance: %d%% off selected items this afternoon", 20+10*(seq%5))
	case "garage-sale":
		return "Garage sale on the corner lot, everything must go by 4pm"
	case "emergency":
		return "Road closed ahead due to incident; seek alternate route"
	default:
		return fmt.Sprintf("Instant offer #%d in the %s category", seq, category)
	}
}

// Spec builds an AdSpec for a category with the given propagation
// parameters.
func Spec(category string, seq int, r, d float64) core.AdSpec {
	return core.AdSpec{R: r, D: d, Category: category, Text: AdText(category, seq)}
}

// RandomSpec draws a category (Zipf-skewed) and builds its spec.
func RandomSpec(rnd *rng.Stream, seq int, r, d, skew float64) core.AdSpec {
	cat := Categories[rnd.Zipf(len(Categories), skew)]
	return Spec(cat, seq, r, d)
}
