package campaign

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantad/internal/core"
	"instantad/internal/obs"
)

// testServer boots a small fleet + server for handler tests. The scheduler
// tick is fast so campaigns actually progress during polling tests.
func testServer(t *testing.T, adm Admission, ckPath string) (*Server, *httptest.Server) {
	t.Helper()
	fleet, err := NewFleet(FleetConfig{
		Nodes:     25,
		Spacing:   150,
		Range:     230,
		RoundTime: 50 * time.Millisecond,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Fleet:           fleet,
		Admission:       adm,
		Tick:            20 * time.Millisecond,
		CheckpointPath:  ckPath,
		CheckpointEvery: 50 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const specJSON = `{"name":"%s","area":{"x":300,"y":300,"radius":400},"duration_s":30,"category":"food","rate_per_min":60,"window_s":5}`

func TestServerCreateAndStatus(t *testing.T) {
	_, ts := testServer(t, Admission{}, "")

	resp := postJSON(t, ts.URL+"/v1/campaigns", strings.ReplaceAll(specJSON, "%s", "first"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/campaigns/c-1" {
		t.Fatalf("Location %q", loc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var c Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.ID != "c-1" || c.State != StatePending {
		t.Fatalf("created %+v", c)
	}

	// The scheduler should activate and inject within a few ticks.
	deadline := time.Now().Add(5 * time.Second)
	var st Status
	for time.Now().Before(deadline) {
		r, err := http.Get(ts.URL + "/v1/campaigns/c-1/status")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.AdsIssued > 0 && st.Delivered > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.AdsIssued == 0 || st.Delivered == 0 {
		t.Fatalf("no delivery observed: %+v", st)
	}
	if st.Coverage <= 0 || st.Coverage > 1 {
		t.Fatalf("coverage %v", st.Coverage)
	}

	// List and fleet surfaces answer.
	r, _ := http.Get(ts.URL + "/v1/campaigns")
	var list []Campaign
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 {
		t.Fatalf("list %d", len(list))
	}
	r, _ = http.Get(ts.URL + "/v1/fleet")
	var fs FleetStatus
	json.NewDecoder(r.Body).Decode(&fs)
	r.Body.Close()
	if fs.Nodes != 25 {
		t.Fatalf("fleet nodes %d", fs.Nodes)
	}
}

func TestServerValidationAndErrors(t *testing.T) {
	_, ts := testServer(t, Admission{}, "")

	// 415: wrong content type.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain: %s", resp.Status)
	}

	// 400: malformed JSON, unknown fields, invalid spec.
	for _, body := range []string{
		"{not json",
		`{"name":"x","surprise":1}`,
		`{"name":"x","area":{"radius":-1},"duration_s":30,"rate_per_min":6,"window_s":5}`,
	} {
		resp = postJSON(t, ts.URL+"/v1/campaigns", body)
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Fatalf("body %q: %s (err %q)", body, resp.Status, e.Error)
		}
	}

	// 201 then 409 on the duplicate name.
	postJSON(t, ts.URL+"/v1/campaigns", strings.ReplaceAll(specJSON, "%s", "dup")).Body.Close()
	resp = postJSON(t, ts.URL+"/v1/campaigns", strings.ReplaceAll(specJSON, "%s", "dup"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: %s", resp.Status)
	}

	// 404s.
	for _, path := range []string{"/v1/campaigns/c-404", "/v1/campaigns/c-404/status"} {
		r, _ := http.Get(ts.URL + path)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s", path, r.Status)
		}
	}

	// DELETE: 204 then 409 (already finished), 404 for unknown.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/c-1", nil)
	r, _ := http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: %s", r.Status)
	}
	r, _ = http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished: %s", r.Status)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/c-404", nil)
	r, _ = http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %s", r.Status)
	}
}

func TestServerBackpressure429(t *testing.T) {
	srv, ts := testServer(t, Admission{MaxLiveAds: 1}, "")

	// Prime one live ad directly so the capacity gate is at its limit.
	now := time.Now()
	c, err := srv.store.Create(validSpec("primer"), now)
	if err != nil {
		t.Fatal(err)
	}
	srv.store.mu.Lock()
	cc := srv.store.byID[c.ID]
	cc.State = StateActive
	cc.Ads = append(cc.Ads, &AdRecord{Seq: 1, IssuedAt: now, ExpiresAt: now.Add(time.Minute)})
	srv.store.mu.Unlock()

	resp := postJSON(t, ts.URL+"/v1/campaigns", strings.ReplaceAll(specJSON, "%s", "throttled"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity: %s", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	if e.RetryAfterS <= 0 || !strings.Contains(e.Error, "capacity") {
		t.Fatalf("429 body %+v", e)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Admission{}, "")
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := r.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{
		"campaignd_campaigns_created_total",
		"campaignd_delivery_seconds_bucket",
		"fleet_nodes",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestServerMetricsCarryFleetTotals checks campaignd's node_* families
// against Fleet.Totals field by field after real gossip: every Stats field
// exposes, with its type, the fleet-wide sum.
func TestServerMetricsCarryFleetTotals(t *testing.T) {
	srv, ts := testServer(t, Admission{}, "")
	fl := srv.sched.fl
	if _, _, err := fl.Inject(fl.Position(12), core.AdSpec{R: 400, D: 10, Category: "food", Text: "totals"}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); fl.Totals().Received == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the injected ad reached no other node")
		}
	}
	srv.Shutdown() // freezes every node's counters
	fl.mu.Lock()
	fl.totalsAt = time.Time{} // the scrape sums the frozen fleet afresh
	fl.mu.Unlock()
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	fams, err := obs.ParsePrometheus(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := reflect.ValueOf(fl.Totals())
	for i := 0; i < want.NumField(); i++ {
		metric := want.Type().Field(i).Tag.Get("metric")
		typ := "counter"
		if !strings.HasSuffix(metric, "_total") {
			typ = "gauge"
		}
		f, ok := fams[metric]
		if v := float64(want.Field(i).Uint()); !ok || f.Type != typ || f.Samples[metric] != v {
			t.Errorf("%s: /metrics has %+v, want %s %v", metric, f, typ, v)
		}
	}
	if tot := fl.Totals(); tot.Sent == 0 || tot.Received == 0 || tot.PeersLive == 0 {
		t.Errorf("totals %+v: the fields compared were mostly zero", tot)
	}
	// One name for one value: the live peer links are node_peers_live only.
	if _, ok := fams["fleet_neighbors_live"]; ok {
		t.Error("/metrics still serves fleet_neighbors_live beside node_peers_live")
	}
}
