package core

import (
	"math"

	"instantad/internal/ads"
)

// Rank returns the ad's estimated popularity (Formula 5 computed via the
// duplicate-insensitive estimator of Formula 6): the approximate number of
// distinct users whose interests the ad has matched. Ads without a sketch
// rank 0.
func Rank(ad *ads.Advertisement) int {
	if ad.Sketch == nil {
		return 0
	}
	return ad.Sketch.Rank()
}

// popularityMutates reports whether applyPopularity may write to ad — Admit
// clones a shared snapshot first exactly when this holds. Conservative:
// Sketch.Add can turn out to be a no-op (bits already set), but predicting
// that would cost as much as the write.
func (r *Rules) popularityMutates(ad *ads.Advertisement, interests []string) bool {
	return r.cfg.Popularity.Enabled && ad.Sketch != nil && ad.MatchesAny(interests)
}

// applyPopularity implements Algorithm 5 on a locally cached copy: if the ad
// matches one of the peer's interests, hash the peer's user ID into the FM
// sketches; if that visibly raised the rank, enlarge R and D per Formula 7.
//
// The rank-before/rank-after comparison is what makes re-processing safe: a
// peer whose ID is already reflected in the bitmaps (directly or via a
// colliding hash) skips the enlargement step.
func (r *Rules) applyPopularity(ad *ads.Advertisement, userID uint64, interests []string) {
	if !r.popularityMutates(ad, interests) {
		return
	}
	before := ad.Sketch.Rank()
	if !ad.Sketch.Add(userID) {
		return // bits already set: contribution already reflected
	}
	if after := ad.Sketch.Rank(); after > before {
		enlarge(ad, after, r.cfg.Popularity)
	}
}

// enlarge applies Formula 7: R += RInc/log₂(rank+1), D += DInc/log₂(rank+1),
// clamped to the configured caps. The log factor slows growth as the ad gets
// popular; with caps it is explicitly bounded.
func enlarge(ad *ads.Advertisement, rank int, cfg PopularityConfig) {
	div := math.Log2(float64(rank) + 1)
	if div <= 0 {
		return
	}
	ad.R += cfg.RInc / div
	if cfg.RMax > 0 && ad.R > cfg.RMax {
		ad.R = cfg.RMax
	}
	ad.D += cfg.DInc / div
	if cfg.DMax > 0 && ad.D > cfg.DMax {
		ad.D = cfg.DMax
	}
}
