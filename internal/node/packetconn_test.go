package node

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"instantad/internal/node/memnet"
	"instantad/internal/node/wire"
)

// connHarness is one PacketConn under the read-contract test: the receiving
// conn and a way to get a datagram to it from somewhere else.
type connHarness struct {
	recv PacketConn
	send func(b []byte)
}

// connHarnesses builds a fresh receiver over every PacketConn the node can
// run on: real UDP on loopback, the in-memory network, and the scripted fake
// the read-loop tests inject.
func connHarnesses(t *testing.T) map[string]func(*testing.T) connHarness {
	overTransport := func(tr Transport, addr string) func(*testing.T) connHarness {
		return func(t *testing.T) connHarness {
			recv, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			src, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = recv.Close(); _ = src.Close() })
			return connHarness{recv: recv, send: func(b []byte) {
				t.Helper()
				if _, err := src.WriteTo(b, recv.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}}
		}
	}
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(*testing.T) connHarness{
		"udp":    overTransport(UDPTransport{}, "127.0.0.1:0"),
		"memnet": overTransport(sb.Transport(), "mem:"),
		"fake": func(t *testing.T) connHarness {
			fc := newFakeConn()
			t.Cleanup(func() { _ = fc.Close() })
			return connHarness{recv: fc, send: fc.inject}
		},
	}
}

// TestPacketConnReadContract holds every PacketConn to the hand-over read:
// the slice is the receiver's until its next ReadFrom whatever arrives or
// the sender does meanwhile, a datagram of the maximum size arrives whole,
// and Close releases a blocked read with net.ErrClosed.
func TestPacketConnReadContract(t *testing.T) {
	for name, build := range connHarnesses(t) {
		t.Run(name, func(t *testing.T) {
			h := build(t)
			read := func() []byte {
				t.Helper()
				data, from, err := h.recv.ReadFrom()
				if err != nil || from == "" {
					t.Fatalf("ReadFrom: %d bytes from %q, err %v", len(data), from, err)
				}
				return data
			}

			// The sender reuses its buffer the moment WriteTo returns.
			buf := []byte("first datagram")
			h.send(buf)
			for i := range buf {
				buf[i] = 'X'
			}
			h.send([]byte("second"))
			h.send([]byte("third"))
			first := read()
			// More traffic queues up behind the slice we hold; it must not
			// move until we read again.
			time.Sleep(20 * time.Millisecond)
			if string(first) != "first datagram" {
				t.Fatalf("held slice reads %q", first)
			}
			if got := read(); string(got) != "second" {
				t.Fatalf("second read %q", got)
			}
			if got := read(); string(got) != "third" {
				t.Fatalf("third read %q", got)
			}

			big := make([]byte, wire.MaxPayload)
			for i := range big {
				big[i] = byte(i * 7)
			}
			h.send(big)
			if got := read(); !bytes.Equal(got, big) {
				t.Fatalf("maximum-size datagram arrived as %d bytes (equal: %v)", len(got), bytes.Equal(got, big))
			}

			blocked := make(chan error, 1)
			go func() {
				_, _, err := h.recv.ReadFrom()
				blocked <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if err := h.recv.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-blocked:
				if !errors.Is(err, net.ErrClosed) {
					t.Errorf("blocked read returned %v, want net.ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close did not release the blocked read")
			}
			if _, _, err := h.recv.ReadFrom(); !errors.Is(err, net.ErrClosed) {
				t.Errorf("read after Close returned %v, want net.ErrClosed", err)
			}
		})
	}
}
