package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// runTraced executes a small static-network scenario with a recorder
// chained after no other observer.
func runTraced(t *testing.T) (*Recorder, *bytes.Buffer) {
	t.Helper()
	s := sim.New()
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	models := make([]mobility.Model, len(pts))
	for i, p := range pts {
		models[i] = mobility.NewStatic(p)
	}
	net, err := core.New(s, radio.DefaultConfig(), models, core.Config{
		Protocol:  core.Gossip,
		Params:    core.ProbParams{Alpha: 0.5, Beta: 0.5},
		RoundTime: 5,
		CacheK:    10,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf, net.Channel())
	net.SetObserver(rec)
	net.Start()
	s.Schedule(1, func() {
		if _, err := net.IssueAd(0, core.AdSpec{R: 500, D: 60}); err != nil {
			t.Errorf("issue: %v", err)
		}
	})
	s.Run(150)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return rec, &buf
}

func TestRecorderWritesAllEventKinds(t *testing.T) {
	rec, buf := runTraced(t)
	if rec.Count() == 0 {
		t.Fatal("no events recorded")
	}
	events, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rec.Count() {
		t.Errorf("read %d events, recorder says %d", len(events), rec.Count())
	}
	kinds := make(map[Kind]int)
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []Kind{KindIssue, KindBroadcast, KindReceive, KindDuplicate, KindExpire} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in trace", k)
		}
	}
	if kinds[KindIssue] != 1 {
		t.Errorf("issue events = %d, want 1", kinds[KindIssue])
	}
}

func TestEventsCarryPositionsAndTimes(t *testing.T) {
	_, buf := runTraced(t)
	events, _ := Read(buf)
	prev := -1.0
	for _, e := range events {
		if e.T < prev {
			t.Fatalf("events out of order: %v after %v", e.T, prev)
		}
		prev = e.T
		if e.Peer < 0 || e.Peer > 2 {
			t.Fatalf("bad peer %d", e.Peer)
		}
		// Static peers sit at x ∈ {0,100,200}, y = 0.
		if e.Y != 0 || e.X != float64(e.Peer*100) {
			t.Fatalf("event position (%v,%v) wrong for peer %d", e.X, e.Y, e.Peer)
		}
		if !strings.HasPrefix(e.Ad, "ad-0/") {
			t.Fatalf("unexpected ad id %q", e.Ad)
		}
	}
}

func TestSummarize(t *testing.T) {
	_, buf := runTraced(t)
	events, _ := Read(buf)
	sum, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != len(events) {
		t.Errorf("Events = %d", sum.Events)
	}
	if sum.Peers != 3 {
		t.Errorf("Peers = %d, want 3", sum.Peers)
	}
	if len(sum.Ads) != 1 || sum.MsgsPerAd[sum.Ads[0]] == 0 {
		t.Errorf("ads %v msgs %v", sum.Ads, sum.MsgsPerAd)
	}
	if sum.Bytes == 0 {
		t.Error("no bytes counted")
	}
	if sum.Start < 0 || sum.End <= sum.Start {
		t.Errorf("span [%v, %v]", sum.Start, sum.End)
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty trace summarized without error")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := Read(strings.NewReader(`{"t":1,"peer":0,"ad":"x"}` + "\n")); err == nil {
		t.Error("line without kind accepted")
	}
	events, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank lines: %v %v", events, err)
	}
}

func TestRoundtripThroughReader(t *testing.T) {
	_, buf := runTraced(t)
	raw := buf.String()
	events, err := Read(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Re-serialize via a second pass: counts must match.
	s1, _ := Summarize(events)
	events2, err := Read(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Summarize(events2)
	if s1.Events != s2.Events || s1.Bytes != s2.Bytes {
		t.Error("re-read changed the summary")
	}
}

func TestMultiObserverFansOut(t *testing.T) {
	// Recorder + recorder via MultiObserver: both see every event.
	s := sim.New()
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 50, Y: 0}),
	}
	net, err := core.New(s, radio.DefaultConfig(), models, core.Config{
		Protocol:  core.Gossip,
		Params:    core.ProbParams{Alpha: 0.5, Beta: 0.5},
		RoundTime: 5,
		CacheK:    10,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	r1 := NewRecorder(&b1, net.Channel())
	r2 := NewRecorder(&b2, net.Channel())
	net.SetObserver(core.MultiObserver(r1, nil, r2))
	net.Start()
	s.Schedule(1, func() { _, _ = net.IssueAd(0, core.AdSpec{R: 300, D: 30}) })
	s.Run(60)
	_ = r1.Flush()
	_ = r2.Flush()
	if r1.Count() == 0 || r1.Count() != r2.Count() {
		t.Errorf("fan-out counts differ: %d vs %d", r1.Count(), r2.Count())
	}
}

func TestAnalyzeRecoveredRun(t *testing.T) {
	_, buf := runTraced(t)
	events, err := Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if a.Peers != 3 || len(a.Ads) != 1 {
		t.Fatalf("peers=%d ads=%d", a.Peers, len(a.Ads))
	}
	ad := a.Ads[0]
	if ad.Reach != 3 {
		t.Errorf("reach = %d, want all 3", ad.Reach)
	}
	if ad.Issuer != 0 || ad.IssuedAt != 1 {
		t.Errorf("issue facts wrong: %+v", ad)
	}
	if ad.TimeTo50 < 0 || ad.TimeToFull < ad.TimeTo50 {
		t.Errorf("timing inconsistent: t50=%v tfull=%v", ad.TimeTo50, ad.TimeToFull)
	}
	if ad.Broadcasts == 0 || ad.Duplicates == 0 || ad.Expirations == 0 {
		t.Errorf("counters not recovered: %+v", ad)
	}
	if out := a.Render(); !strings.Contains(out, "ad-0/0") || !strings.Contains(out, "reach") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("empty trace analyzed")
	}
}

func TestAnalyzeAgreesWithSummarize(t *testing.T) {
	_, buf := runTraced(t)
	events, _ := Read(buf)
	a, _ := Analyze(events)
	s, _ := Summarize(events)
	var broadcasts, bytes int
	for _, ad := range a.Ads {
		broadcasts += ad.Broadcasts
		bytes += ad.Bytes
	}
	if broadcasts != s.ByKind[KindBroadcast] || bytes != s.Bytes {
		t.Errorf("analysis (%d, %d) disagrees with summary (%d, %d)",
			broadcasts, bytes, s.ByKind[KindBroadcast], s.Bytes)
	}
}

// shortWriter accepts budget bytes, then fails every write — the disk-full
// shape where data sits in the bufio buffer until Flush discovers it.
type shortWriter struct{ budget int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errors.New("sink full")
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestRecorderFlushErrorIsSticky(t *testing.T) {
	rec := NewRecorder(&shortWriter{budget: 8}, nil)
	rec.OnBroadcast(0, ads.ID{}, 64, 1)
	// The event fits in the bufio buffer, so no error has surfaced yet.
	if rec.Err() != nil {
		t.Fatalf("premature error: %v", rec.Err())
	}
	if err := rec.Flush(); err == nil {
		t.Fatal("Flush reported success on a failing sink")
	}
	// The regression this guards: the flush error must stick, not be
	// returned once and forgotten.
	if rec.Err() == nil {
		t.Fatal("Err lost the flush error")
	}
	n := rec.Count()
	rec.OnBroadcast(0, ads.ID{}, 64, 2)
	if rec.Count() != n {
		t.Errorf("recorder kept accepting events after the error")
	}
	if err := rec.Flush(); err == nil {
		t.Error("second Flush forgot the error")
	}
}

// TestSimulatedTraceMatchesGolden pins a simulated trace byte for byte: the
// membership fields are omitted from every simulated line.
func TestSimulatedTraceMatchesGolden(t *testing.T) {
	_, buf := runTraced(t)
	want, err := os.ReadFile("testdata/static_gossip.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("simulated trace differs from testdata/static_gossip.jsonl:\n%s", buf.String())
	}
}

// TestMembershipStaysOutOfAdTallies interleaves one of every membership kind
// into a simulated trace: the totals count them, the per-ad views do not.
func TestMembershipStaysOutOfAdTallies(t *testing.T) {
	_, buf := runTraced(t)
	sim, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	members := []Kind{KindPeerAdd, KindPeerRemove, KindNeighborNew, KindNeighborRefreshed,
		KindNeighborAddrChanged, KindNeighborExpired, KindBackoffEnter, KindBackoffExit}
	var mixed bytes.Buffer
	rec := NewRecorder(&mixed, nil)
	for i, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if i < len(members) {
			rec.OnMembership(Event{T: sim[i].T, Kind: members[i], Peer: 1, Addr: "mem:2", Neighbor: 2})
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		mixed.Write(line)
	}
	all, err := Read(&mixed)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := Summarize(sim)
	s2, _ := Summarize(all)
	if s2.Events != s1.Events+len(members) || s2.ByKind[KindNeighborNew] != 1 {
		t.Errorf("mixed totals: %d events, by kind %v", s2.Events, s2.ByKind)
	}
	if !reflect.DeepEqual(s1.Ads, s2.Ads) || !reflect.DeepEqual(s1.MsgsPerAd, s2.MsgsPerAd) || s1.Bytes != s2.Bytes {
		t.Errorf("membership moved the per-ad tallies: ads %v → %v, msgs %v → %v", s1.Ads, s2.Ads, s1.MsgsPerAd, s2.MsgsPerAd)
	}
	a1, _ := Analyze(sim)
	a2, _ := Analyze(all)
	if !reflect.DeepEqual(a1.Ads, a2.Ads) {
		t.Errorf("membership moved the analysis rows:\n%s\n%s", a1.Render(), a2.Render())
	}
}

// TestRecorderConcurrentWriters drives one recorder from many goroutines, as
// a live cluster does: every line must parse and the count must match.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers, each = 8, 500
	var buf bytes.Buffer
	rec := NewRecorder(&buf, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					rec.OnBroadcast(w, ads.ID{Issuer: uint32(w), Seq: uint32(i)}, 40, float64(i))
				} else {
					rec.OnMembership(Event{T: float64(i), Kind: KindBackoffEnter, Peer: w, Addr: fmt.Sprintf("mem:%d", i)})
				}
				_ = rec.Count()
			}
		}(w)
	}
	wg.Wait()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != writers*each || rec.Count() != writers*each {
		t.Errorf("read %d lines, Count %d, wrote %d", len(events), rec.Count(), writers*each)
	}
}
