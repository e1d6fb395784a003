// Package trace records protocol-level events as JSON Lines for offline
// inspection, debugging and replay analysis — one schema for both drivers. A
// Recorder implements core.Observer; chain it after the metrics collector
// with core.MultiObserver, or hand it to live nodes as node.Config.Events,
// where it also hears their membership events (OnMembership). The
// reader side parses traces back and summarizes them (event counts, time
// span, per-ad message totals).
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/radio"
)

// Kind enumerates trace event types.
type Kind string

const (
	KindIssue     Kind = "issue"
	KindBroadcast Kind = "broadcast"
	KindReceive   Kind = "receive"
	KindDuplicate Kind = "duplicate"
	KindExpire    Kind = "expire"
	KindEvict     Kind = "evict"

	// The live node's membership kinds: its peer set, its discovery
	// neighbor table and its per-peer send backoff. They name no ad.
	KindPeerAdd             Kind = "peer_add"
	KindPeerRemove          Kind = "peer_remove"
	KindNeighborNew         Kind = "neighbor_new"
	KindNeighborRefreshed   Kind = "neighbor_refreshed"
	KindNeighborAddrChanged Kind = "neighbor_addr_changed"
	KindNeighborExpired     Kind = "neighbor_expired"
	KindBackoffEnter        Kind = "backoff_enter"
	KindBackoffExit         Kind = "backoff_exit"
)

// membership reports whether k is a membership kind: counted in a summary's
// totals, kept out of every per-ad tally.
func (k Kind) membership() bool {
	switch k {
	case KindPeerAdd, KindPeerRemove, KindNeighborNew, KindNeighborRefreshed,
		KindNeighborAddrChanged, KindNeighborExpired, KindBackoffEnter, KindBackoffExit:
		return true
	}
	return false
}

// Event is one line of a trace. Peer is the simulated peer's index or the
// live node's ID; T is simulation or protocol time in seconds.
type Event struct {
	T     float64 `json:"t"`
	Kind  Kind    `json:"kind"`
	Peer  int     `json:"peer"`
	Ad    string  `json:"ad,omitempty"`
	Bytes int     `json:"bytes,omitempty"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	// Addr, Neighbor and Detail describe a membership event: the datagram
	// address concerned, the neighbor's node ID (discovery kinds), and the
	// previous address (neighbor_addr_changed) or the backoff wait
	// (backoff_enter).
	Addr     string `json:"addr,omitempty"`
	Neighbor uint32 `json:"neighbor,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Recorder streams events to a writer as JSONL. It is safe for concurrent
// use: one recorder may serve every node of a live cluster. Its lock nests
// inside whatever lock its caller holds.
type Recorder struct {
	core.BaseObserver
	ch *radio.Channel

	mu  sync.Mutex // guards the fields below
	bw  *bufio.Writer
	err error
	n   int
}

// NewRecorder returns a recorder writing to w. ch, when non-nil, annotates
// each event with the peer's position at event time.
func NewRecorder(w io.Writer, ch *radio.Channel) *Recorder {
	return &Recorder{bw: bufio.NewWriter(w), ch: ch}
}

// Err returns the first write error encountered, if any. Flush errors are
// sticky too, so after any Flush the recorder's full error state is here.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Count returns the number of events written.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Flush flushes buffered events and reports the first write error
// encountered. A failed flush is recorded like any other write error: the
// recorder drops subsequent events and every later Flush or Err call keeps
// reporting it, so callers that only check Err after flushing cannot lose
// the failure.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

func (r *Recorder) emit(t float64, kind Kind, peer int, id ads.ID, bytes int) {
	e := Event{T: t, Kind: kind, Peer: peer, Ad: id.String(), Bytes: bytes}
	if r.ch != nil && peer >= 0 && peer < r.ch.N() {
		p := r.ch.PositionAt(peer, t)
		e.X, e.Y = p.X, p.Y
	}
	r.write(e)
}

// write appends one line; after the first error it drops every event.
func (r *Recorder) write(e Event) {
	data, err := json.Marshal(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err != nil {
		r.err = err
		return
	}
	if _, err := r.bw.Write(append(data, '\n')); err != nil {
		r.err = err
		return
	}
	r.n++
}

// OnIssue implements core.Observer.
func (r *Recorder) OnIssue(issuer int, ad *ads.Advertisement, t float64) {
	r.emit(t, KindIssue, issuer, ad.ID, 0)
}

// OnBroadcast implements core.Observer.
func (r *Recorder) OnBroadcast(peer int, id ads.ID, bytes int, t float64) {
	r.emit(t, KindBroadcast, peer, id, bytes)
}

// OnFirstReceive implements core.Observer.
func (r *Recorder) OnFirstReceive(peer int, ad *ads.Advertisement, t float64) {
	r.emit(t, KindReceive, peer, ad.ID, 0)
}

// OnDuplicate implements core.Observer.
func (r *Recorder) OnDuplicate(peer int, id ads.ID, t float64) {
	r.emit(t, KindDuplicate, peer, id, 0)
}

// OnExpire implements core.Observer.
func (r *Recorder) OnExpire(peer int, id ads.ID, t float64) {
	r.emit(t, KindExpire, peer, id, 0)
}

// OnEvict implements core.Observer.
func (r *Recorder) OnEvict(peer int, id ads.ID, t float64) {
	r.emit(t, KindEvict, peer, id, 0)
}

// OnMembership records one of a live node's membership events
// (node.MembershipObserver).
func (r *Recorder) OnMembership(e Event) { r.write(e) }

// Read parses a JSONL trace. It fails on the first malformed line,
// reporting its line number.
func Read(rd io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("trace: line %d: missing kind", line)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary aggregates a trace.
type Summary struct {
	Events     int
	ByKind     map[Kind]int
	Start, End float64
	Peers      int            // distinct peers appearing in the trace
	Ads        []string       // distinct ads, sorted; membership events name none
	MsgsPerAd  map[string]int // broadcasts per ad
	Bytes      int
}

// Summarize computes a Summary. An empty trace yields an error: summarizing
// nothing usually indicates a wiring bug upstream.
func Summarize(events []Event) (Summary, error) {
	if len(events) == 0 {
		return Summary{}, errors.New("trace: empty trace")
	}
	s := Summary{
		ByKind:    make(map[Kind]int),
		MsgsPerAd: make(map[string]int),
		Start:     events[0].T,
		End:       events[0].T,
	}
	peers := make(map[int]bool)
	adSet := make(map[string]bool)
	for _, e := range events {
		s.Events++
		s.ByKind[e.Kind]++
		if e.T < s.Start {
			s.Start = e.T
		}
		if e.T > s.End {
			s.End = e.T
		}
		peers[e.Peer] = true
		if e.Kind.membership() {
			continue
		}
		adSet[e.Ad] = true
		if e.Kind == KindBroadcast {
			s.MsgsPerAd[e.Ad]++
			s.Bytes += e.Bytes
		}
	}
	s.Peers = len(peers)
	for ad := range adSet {
		s.Ads = append(s.Ads, ad)
	}
	sort.Strings(s.Ads)
	return s, nil
}

// String renders the summary for CLI output.
func (s Summary) String() string {
	return fmt.Sprintf("%d events over [%.1fs, %.1fs], %d peers, %d ads, %d broadcast bytes",
		s.Events, s.Start, s.End, s.Peers, len(s.Ads), s.Bytes)
}
