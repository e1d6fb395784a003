package campaign

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCheckpointRestoreRoundTrip is the durability acceptance test: run a
// campaign on a live fleet, checkpoint mid-flight, tear the whole world down
// (server, scheduler, fleet — the moral equivalent of kill -9, since nothing
// after the checkpoint write is consulted), then boot a fresh fleet from the
// checkpoint and assert that every ad that was live at the kill is replayed
// into the new fleet and converges to its probes. Zero live-ad loss.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")

	// --- First life: issue some ads, checkpoint, die without Shutdown.
	fleet1, err := NewFleet(FleetConfig{
		Nodes: 25, Spacing: 150, Range: 230,
		RoundTime: 40 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServer(ServerConfig{
		Fleet:          fleet1,
		Tick:           20 * time.Millisecond,
		CheckpointPath: ck,
		// Long interval: the only checkpoint is the explicit one below, so
		// the test controls exactly what the "crash" preserved.
		CheckpointEvery: time.Hour,
		Logf:            t.Logf,
	})
	if err != nil {
		fleet1.Close()
		t.Fatal(err)
	}

	spec := validSpec("durable")
	spec.Duration = 120 // long enough to be live across the restart
	spec.RatePerMin = 600
	spec.Budget = 5
	spec.Window = 0 // budget-bounded
	if _, err := srv1.store.Create(spec, time.Now()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv1.store.LiveAds(time.Now()) >= 5 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	liveBefore := srv1.store.LiveAds(time.Now())
	if liveBefore != 5 {
		t.Fatalf("live ads before kill = %d, want 5", liveBefore)
	}

	if err := srv1.store.WriteCheckpoint(ck, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Kill: stop the scheduler and fleet without the drain path writing a
	// newer checkpoint (Shutdown would; a real kill -9 would not).
	srv1.Scheduler().Stop()
	fleet1.Close()

	// --- Second life: a brand-new fleet restored from the checkpoint.
	fleet2, err := NewFleet(FleetConfig{
		Nodes: 25, Spacing: 150, Range: 230,
		RoundTime: 40 * time.Millisecond, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerConfig{
		Fleet:           fleet2,
		Tick:            20 * time.Millisecond,
		CheckpointPath:  ck,
		CheckpointEvery: time.Hour,
		Logf:            t.Logf,
	})
	if err != nil {
		fleet2.Close()
		t.Fatal(err)
	}
	defer srv2.Shutdown()

	if srv2.RestoredAds() != liveBefore {
		t.Fatalf("replayed %d ads, want %d (zero live-ad loss)", srv2.RestoredAds(), liveBefore)
	}
	if got := srv2.store.LiveAds(time.Now()); got != liveBefore {
		t.Fatalf("live ads after restore = %d, want %d", got, liveBefore)
	}

	c, err := srv2.store.Get("c-1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Issued != 5 {
		t.Fatalf("issued after restore = %d, want 5 (replay must not re-bill the budget)", c.Issued)
	}
	restored := 0
	for _, r := range c.Ads {
		if r.Restored {
			restored++
		}
	}
	if restored != liveBefore {
		t.Fatalf("restored flags = %d, want %d", restored, liveBefore)
	}

	// The replayed ads must actually converge in the NEW fleet: the status
	// surface should observe probe deliveries again.
	deadline = time.Now().Add(8 * time.Second)
	var st Status
	for time.Now().Before(deadline) {
		st, err = srv2.store.Status("c-1", time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered >= st.ProbeSlots && st.ProbeSlots > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.ProbeSlots == 0 || st.Delivered == 0 {
		t.Fatalf("replayed ads never delivered: %+v", st)
	}
	if cov := float64(st.Delivered) / float64(st.ProbeSlots); cov < 0.9 {
		t.Fatalf("post-restore coverage %.2f, want ≥ 0.9 (%+v)", cov, st)
	}
}

func TestCheckpointVersionGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s := NewStore()
	if _, err := s.Create(validSpec("v"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(path, time.Now()); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion || len(cp.Campaigns) != 1 {
		t.Fatalf("checkpoint %+v", cp)
	}

	// A future version is refused.
	raw := []byte(`{"version": 99, "campaigns": []}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("future version accepted")
	}

	// Torn JSON is refused, not half-restored.
	if err := os.WriteFile(path, []byte(`{"version": 1, "campaig`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("torn checkpoint accepted")
	}
}

// TestRestoreRoundTripPreservesLedger checks the store-level round trip
// without a fleet: every exported field survives.
func TestRestoreRoundTripPreservesLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s := NewStore()
	now := time.Now().Round(0)
	c, _ := s.Create(validSpec("ledger"), now)
	cc := s.byID[c.ID]
	cc.State = StateActive
	cc.Started = now
	cc.Issued = 3
	cc.Throttled = 2
	cc.acc = 0.75
	cc.Ads = []*AdRecord{
		{Seq: 1, IssuedAt: now, ExpiresAt: now.Add(time.Minute), Probes: 8, Reached: 8},
	}

	if err := s.WriteCheckpoint(path, now); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r := RestoreStore(cp)
	got, err := r.Get(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateActive || got.Issued != 3 || got.Throttled != 2 || len(got.Ads) != 1 {
		t.Fatalf("restored %+v", got)
	}
	if got.Ads[0].Probes != 8 || got.Ads[0].Reached != 8 {
		t.Fatalf("restored ad %+v", got.Ads[0])
	}
	if r.byID[c.ID].acc != 0.75 {
		t.Fatalf("accumulator %v, want 0.75", r.byID[c.ID].acc)
	}
	// Another create continues the ID sequence past the restored ones.
	c2, err := r.Create(validSpec("next"), now)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID != "c-2" {
		t.Fatalf("next ID %s, want c-2", c2.ID)
	}
}
