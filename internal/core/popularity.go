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

// popularityMutates reports whether applyPopularity may write to ad: the
// mechanism is on and ad carries a sketch and matches one of interests. It
// still writes nothing when the user's ID sets no new sketch bit, which
// popularityKey tells without writing.
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
		ad.R, ad.D = enlarged(ad.R, ad.D, after, r.cfg.Popularity)
	}
}

// popularityKey is applyPopularity's outcome for an ad popularityMutates
// holds for, without the write: the ranking key ad would have after the
// update, and whether the update writes to ad at all. It writes when userID
// sets a sketch bit: the sketch takes userID and R and D become the key's.
func (r *Rules) popularityKey(ad *ads.Advertisement, userID uint64) (k ads.Key, writes bool) {
	k = ad.Key()
	after, writes := ad.Sketch.RankWith(userID)
	if writes && after > ad.Sketch.Rank() {
		k.R, k.D = enlarged(k.R, k.D, after, r.cfg.Popularity)
	}
	return k, writes
}

// enlarged applies Formula 7 to an ad's R and D: R += RInc/log₂(rank+1),
// D += DInc/log₂(rank+1), clamped to the configured caps. The log factor
// slows growth as the ad gets popular; with caps it is explicitly bounded.
func enlarged(r, d float64, rank int, cfg PopularityConfig) (float64, float64) {
	div := math.Log2(float64(rank) + 1)
	if div <= 0 {
		return r, d
	}
	r += cfg.RInc / div
	if cfg.RMax > 0 && r > cfg.RMax {
		r = cfg.RMax
	}
	d += cfg.DInc / div
	if cfg.DMax > 0 && d > cfg.DMax {
		d = cfg.DMax
	}
	return r, d
}
