package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"instantad/internal/obs"
)

// ServerConfig assembles a control-plane server.
type ServerConfig struct {
	// Fleet is the live backend; required.
	Fleet *Fleet
	// Admission gates campaign creation and ad injection.
	Admission Admission
	// Tick is the scheduler period. Zero means 100ms.
	Tick time.Duration
	// CheckpointPath, when set, enables durability: the store is restored
	// from it at startup (when the file exists), checkpointed every
	// CheckpointEvery, and checkpointed once more during Shutdown.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval. Zero means 5s.
	CheckpointEvery time.Duration
	// Registry receives all instruments. Nil means a private registry.
	Registry *obs.Registry
	Logf     func(format string, args ...any)
}

// Server is campaignd's engine: one store, one scheduler, one fleet, and
// the versioned HTTP API over them. Build with NewServer, serve Handler(),
// stop with Shutdown.
type Server struct {
	cfg      ServerConfig
	store    *Store
	sched    *Scheduler
	restored int // ads replayed at startup

	mu       sync.Mutex
	ckStop   chan struct{}
	ckDone   chan struct{}
	shutdown bool
}

// NewServer restores state from the checkpoint (if configured and present),
// builds the scheduler, replays live ads into the fleet, and starts the
// control and checkpoint loops.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("campaign: server needs a fleet")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5 * time.Second
	}
	store := NewStore()
	restoredCampaigns := 0
	if cfg.CheckpointPath != "" {
		cp, err := ReadCheckpoint(cfg.CheckpointPath)
		switch {
		case err == nil:
			store = RestoreStore(cp)
			restoredCampaigns = len(cp.Campaigns)
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to restore.
		default:
			// A checkpoint that exists but cannot be read is a refusal to
			// start, not a silent fresh start — that is how live ads get
			// lost twice.
			return nil, err
		}
	}
	sched, err := NewScheduler(SchedulerConfig{
		Store:     store,
		Fleet:     cfg.Fleet,
		Admission: cfg.Admission,
		Tick:      cfg.Tick,
		Registry:  cfg.Registry,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  store,
		sched:  sched,
		ckStop: make(chan struct{}),
		ckDone: make(chan struct{}),
	}
	if restoredCampaigns > 0 {
		s.restored = sched.Replay(time.Now())
		s.logf("restored %d campaigns from %s, replayed %d live ads",
			restoredCampaigns, cfg.CheckpointPath, s.restored)
	}
	sched.Start()
	if cfg.CheckpointPath != "" {
		go s.checkpointLoop()
	} else {
		close(s.ckDone)
	}
	return s, nil
}

// Scheduler exposes the underlying scheduler (tests, embedders).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// RestoredAds reports how many live ads startup replayed from the checkpoint.
func (s *Server) RestoredAds() int { return s.restored }

func (s *Server) checkpointLoop() {
	defer close(s.ckDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckStop:
			return
		case now := <-t.C:
			s.writeCheckpoint(now)
		}
	}
}

func (s *Server) writeCheckpoint(now time.Time) {
	if err := s.store.WriteCheckpoint(s.cfg.CheckpointPath, now); err != nil {
		s.sched.ins.checkpointErrs.Inc()
		s.logf("checkpoint: %v", err)
		return
	}
	s.sched.ins.checkpoints.Inc()
}

// Shutdown drains the control plane: stop injecting, write a final
// checkpoint, shut the fleet down. Idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.mu.Unlock()

	s.sched.Stop()
	if s.cfg.CheckpointPath != "" {
		close(s.ckStop)
		<-s.ckDone
		s.writeCheckpoint(time.Now())
	}
	return s.cfg.Fleet.Close()
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// RetryAfterS mirrors the Retry-After header on 429 responses.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the versioned control-plane API:
//
//	POST   /v1/campaigns            create (201; 400/409/415/429)
//	GET    /v1/campaigns            list
//	GET    /v1/campaigns/{id}        one campaign's ledger (404)
//	DELETE /v1/campaigns/{id}        cancel (404/409)
//	GET    /v1/campaigns/{id}/status delivery status (404)
//	GET    /v1/fleet                fleet + medium gauges
//	GET    /metrics                 Prometheus text
//	GET    /healthz                 liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleCreate)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/status", s.handleStatus)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.Handle("GET /metrics", s.sched.Registry().Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.sched.ins.httpRequests.Inc()
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != "" && !strings.HasPrefix(ct, "application/json") {
		writeErr(w, http.StatusUnsupportedMediaType, "content type %q; POST application/json", ct)
		return
	}
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad campaign spec: %v", err)
		return
	}
	now := time.Now()
	// Backpressure applies at the door: a fleet already beyond capacity
	// refuses new campaigns rather than accepting work it will throttle.
	if d := s.sched.Admit(now); !d.Admit {
		s.sched.ins.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(d.RetryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error:       "fleet over capacity: " + d.Reason,
			RetryAfterS: d.RetryAfter.Seconds(),
		})
		return
	}
	c, err := s.store.Create(spec, now)
	switch {
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.sched.ins.created.Inc()
	w.Header().Set("Location", "/v1/campaigns/"+c.ID)
	writeJSON(w, http.StatusCreated, c)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.store.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrFinished):
		writeErr(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		s.sched.ins.cancelled.Inc()
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.store.Status(r.PathValue("id"), time.Now())
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// FleetStatus is the GET /v1/fleet body: control-plane gauges plus the
// aggregated node and medium counters.
type FleetStatus struct {
	Nodes       int            `json:"nodes"`
	LiveAds     int            `json:"live_ads"`
	Campaigns   map[State]int  `json:"campaigns"`
	DeliveryP99 float64        `json:"delivery_p99_s"`
	Congestion  Signals        `json:"congestion"`
	NodeTotals  map[string]any `json:"node_totals"`
	Medium      map[string]any `json:"medium"`
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	sig := s.sched.Signals(now)
	writeJSON(w, http.StatusOK, FleetStatus{
		Nodes:       s.cfg.Fleet.NodeCount(),
		LiveAds:     sig.LiveAds,
		Campaigns:   s.store.CountByState(),
		DeliveryP99: sig.DeliveryP99,
		Congestion:  sig,
		NodeTotals:  asMap(s.cfg.Fleet.Totals()),
		Medium:      asMap(s.cfg.Fleet.MediumStats()),
	})
}

// asMap round-trips a stats struct through JSON so the fleet endpoint reuses
// the structs' snake_case tags without a parallel type.
func asMap(v any) map[string]any {
	b, _ := json.Marshal(v)
	var m map[string]any
	json.Unmarshal(b, &m)
	return m
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
