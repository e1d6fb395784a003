package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"instantad/internal/node/discovery"
	"instantad/internal/rng"
)

// maxDatagram sizes the proxy's receive buffer.
const maxDatagram = 64 * 1024

// FaultConfig parameterizes one FaultProxy link. Each field is an
// independent per-datagram probability in [0, 1]; a datagram can be
// truncated AND duplicated, matching how real radios misbehave in
// combination. Garbage injection rides alongside forwarding: with
// probability Garbage an extra junk datagram is emitted toward the
// destination before the real one is considered.
type FaultConfig struct {
	// Drop is the probability of discarding the datagram outright.
	Drop float64
	// Duplicate is the probability of sending the datagram twice.
	Duplicate float64
	// Reorder is the probability of holding the datagram for ReorderDelay
	// while later traffic overtakes it.
	Reorder float64
	// ReorderDelay is how long reordered datagrams are held. Zero means
	// 50ms.
	ReorderDelay time.Duration
	// Truncate is the probability of forwarding only a prefix of the
	// datagram (a random cut point, at least one byte).
	Truncate float64
	// Garbage is the probability of injecting a random junk datagram;
	// roughly half the junk starts with one of the receive path's frame magics
	// (beacon, batch, digest, or pull) so it penetrates one decoder layer
	// before failing.
	Garbage float64
	// Seed makes the fault pattern reproducible.
	Seed uint64
}

func (c FaultConfig) validate() error {
	for _, p := range []float64{c.Drop, c.Duplicate, c.Reorder, c.Truncate, c.Garbage} {
		if p < 0 || p > 1 {
			return fmt.Errorf("node: fault probability %v outside [0,1]", p)
		}
	}
	if c.ReorderDelay < 0 {
		return errors.New("node: negative reorder delay")
	}
	return nil
}

// FaultStats counts what a proxy did to the traffic.
type FaultStats struct {
	Received   uint64 // datagrams that arrived at the proxy
	Forwarded  uint64 // datagrams sent onward (possibly truncated/delayed)
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Truncated  uint64
	Garbage    uint64 // junk datagrams injected
}

// FaultProxy is a lossy one-way UDP relay for fault-injection testing: it
// listens on its own port and forwards every datagram to a fixed
// destination, randomly dropping, duplicating, reordering, truncating, and
// interleaving garbage per its FaultConfig. Pointing a node's peer list at
// proxies instead of the peers themselves subjects every link to the faults
// while the virtual radio and the protocol stay oblivious.
type FaultProxy struct {
	conn *net.UDPConn
	dst  *net.UDPAddr
	cfg  FaultConfig

	mu    sync.Mutex
	rnd   *rng.Stream
	stats FaultStats

	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// NewFaultProxy binds a loopback port and starts relaying toward dst.
func NewFaultProxy(dst string, cfg FaultConfig) (*FaultProxy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ReorderDelay == 0 {
		cfg.ReorderDelay = 50 * time.Millisecond
	}
	daddr, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return nil, fmt.Errorf("node: proxy destination %q: %w", dst, err)
	}
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	p := &FaultProxy{
		conn: conn,
		dst:  daddr,
		cfg:  cfg,
		rnd:  rng.New(cfg.Seed),
		done: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.relayLoop()
	return p, nil
}

// Addr returns the proxy's listen address — the address to hand to the
// sending node as a "peer".
func (p *FaultProxy) Addr() string { return p.conn.LocalAddr().String() }

// Stats returns a snapshot of the fault counters.
func (p *FaultProxy) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the relay and releases the socket. Idempotent.
func (p *FaultProxy) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.closeErr = p.conn.Close()
		p.wg.Wait()
	})
	return p.closeErr
}

func (p *FaultProxy) relayLoop() {
	defer p.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		nb, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		data := append([]byte(nil), buf[:nb]...)
		p.relay(data)
	}
}

// relay applies the fault model to one datagram. Randomness and stats live
// under p.mu; the socket writes are concurrency-safe on their own (delayed
// reordered writes fire from timers after Close simply error into the void).
func (p *FaultProxy) relay(data []byte) {
	p.mu.Lock()
	p.stats.Received++
	if p.rnd.Bool(p.cfg.Garbage) {
		junk := make([]byte, 1+p.rnd.Intn(64))
		for i := range junk {
			junk[i] = byte(p.rnd.Uint32())
		}
		if p.rnd.Bool(0.5) && len(junk) >= 2 {
			magics := [...]byte{discovery.BeaconMagic, batchMagic, digestMagic, pullMagic}
			junk[0], junk[1] = magics[p.rnd.Intn(len(magics))], batchVersion
		}
		p.stats.Garbage++
		p.mu.Unlock()
		_, _ = p.conn.WriteToUDP(junk, p.dst)
		p.mu.Lock()
	}
	if p.rnd.Bool(p.cfg.Drop) {
		p.stats.Dropped++
		p.mu.Unlock()
		return
	}
	out := data
	if p.rnd.Bool(p.cfg.Truncate) && len(out) > 1 {
		out = out[:1+p.rnd.Intn(len(out)-1)]
		p.stats.Truncated++
	}
	copies := 1
	if p.rnd.Bool(p.cfg.Duplicate) {
		copies = 2
		p.stats.Duplicated++
	}
	delayed := p.rnd.Bool(p.cfg.Reorder)
	if delayed {
		p.stats.Reordered++
	}
	p.stats.Forwarded++
	p.mu.Unlock()
	send := func() {
		for i := 0; i < copies; i++ {
			_, _ = p.conn.WriteToUDP(out, p.dst)
		}
	}
	if delayed {
		time.AfterFunc(p.cfg.ReorderDelay, send)
		return
	}
	send()
}
