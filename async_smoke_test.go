package instantad_test

import (
	"testing"

	"instantad/internal/experiment"
)

// TestAsyncChurnSmoke drives the asynchronous pairwise protocol through
// collisions, losses and churn the way the front-ends do, via Scenario.Run:
// scans, handshake deliveries and timeout reclaims must add up to a
// run that delivers. CI runs it under -race.
func TestAsyncChurnSmoke(t *testing.T) {
	sc := experiment.DefaultScenario()
	asyncImpaired(&sc, 2)
	sc.SimTime = 300
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate <= 0 || res.Messages <= 0 {
		t.Errorf("async run degenerate: delivery=%v messages=%v", res.DeliveryRate, res.Messages)
	}
}
