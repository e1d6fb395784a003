package testutil

import (
	"fmt"
	"time"

	"instantad/internal/node/transport"
)

// Receiver reads a PacketConn as the live node's poll driver does, with
// TryRead after each arrival, for a test that waits on one datagram at a
// time.
type Receiver struct {
	conn    transport.PacketConn
	arrived chan struct{} // one token: an arrival since the last wait
}

// NewReceiver registers the receiver's arrival callback on c, which must
// have none yet.
func NewReceiver(c transport.PacketConn) *Receiver {
	r := &Receiver{conn: c, arrived: make(chan struct{}, 1)}
	c.SetArrival(func() {
		select {
		case r.arrived <- struct{}{}:
		default:
		}
	})
	return r
}

// Next waits up to timeout for the next datagram. It fails with a read
// fault the conn handed over, or when nothing arrives in time.
func (r *Receiver) Next(timeout time.Duration) (data []byte, from string, err error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		data, from, ok, err := r.conn.TryRead()
		if ok {
			return data, from, err
		}
		select {
		case <-r.arrived:
		case <-deadline.C:
			return nil, "", fmt.Errorf("testutil: no datagram within %v", timeout)
		}
	}
}
