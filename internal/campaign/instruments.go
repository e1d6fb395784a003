package campaign

import "instantad/internal/obs"

// instruments is the control plane's own metric surface (campaignd_*),
// shared by the scheduler and the HTTP layer. The fleet-level gauge
// (fleet_nodes) is registered separately because it needs the Fleet.
type instruments struct {
	created         *obs.Counter
	rejected        *obs.Counter // campaigns refused by admission (HTTP 429)
	cancelled       *obs.Counter
	done            *obs.Counter
	adsInjected     *obs.Counter
	adsRestored     *obs.Counter // ads re-injected by checkpoint replay
	adsExpired      *obs.Counter
	injectThrottled *obs.Counter // scheduled injections deferred by admission
	checkpoints     *obs.Counter
	checkpointErrs  *obs.Counter
	httpRequests    *obs.Counter

	// delivery is probe delivery latency: issue (or replay) to first
	// observation at a probe node. Buckets 50ms … ~95s.
	delivery *obs.Histogram
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		created:         reg.Counter("campaignd_campaigns_created_total", "campaigns accepted"),
		rejected:        reg.Counter("campaignd_campaigns_rejected_total", "campaign submissions refused by admission control"),
		cancelled:       reg.Counter("campaignd_campaigns_cancelled_total", "campaigns cancelled by issuers"),
		done:            reg.Counter("campaignd_campaigns_done_total", "campaigns that spent their window or budget and drained"),
		adsInjected:     reg.Counter("campaignd_ads_injected_total", "real ads issued into the fleet"),
		adsRestored:     reg.Counter("campaignd_ads_restored_total", "live ads re-injected by checkpoint replay"),
		adsExpired:      reg.Counter("campaignd_ads_expired_total", "issued ads that reached end of life"),
		injectThrottled: reg.Counter("campaignd_inject_throttled_total", "scheduled injections deferred by admission backpressure"),
		checkpoints:     reg.Counter("campaignd_checkpoints_total", "checkpoints written"),
		checkpointErrs:  reg.Counter("campaignd_checkpoint_errors_total", "checkpoint writes that failed"),
		httpRequests:    reg.Counter("campaignd_http_requests_total", "control-plane HTTP requests served"),
		delivery: reg.Histogram("campaignd_delivery_seconds",
			"probe delivery latency: ad issue to first observation at a probe node",
			obs.ExpBuckets(0.05, 1.6, 17)),
	}
}
