package node

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/node/memnet"
	"instantad/internal/node/transport"
	"instantad/internal/node/wire"
)

// connHarness is one PacketConn under the read-contract test: the receiving
// conn and a way to get a datagram to it from somewhere else.
type connHarness struct {
	recv PacketConn
	send func(b []byte)
}

// connHarnesses builds a fresh receiver over every PacketConn the node can
// run on: real UDP on loopback, the in-memory network, and the scripted
// socket the read-fault tests inject.
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
			fs := newFakeSocket()
			recv := transport.NewConn(fs, time.Millisecond, time.Millisecond)
			t.Cleanup(func() { _ = recv.Close() })
			return connHarness{recv: recv, send: fs.inject}
		},
	}
}

// TestPacketConnReadContract holds every PacketConn to the one read model:
// the arrival callback fires when the receive queue goes from empty to
// non-empty, TryRead hands over slices that stay intact whatever arrives or
// the sender does meanwhile, a datagram of the maximum size arrives whole,
// and after Close returns nothing is read and no arrival fires.
func TestPacketConnReadContract(t *testing.T) {
	for name, build := range connHarnesses(t) {
		t.Run(name, func(t *testing.T) {
			h := build(t)
			var arrivals atomic.Int64
			kick := make(chan struct{}, 1)
			h.recv.SetArrival(func() {
				arrivals.Add(1)
				select {
				case kick <- struct{}{}:
				default:
				}
			})
			arrived := func(want int64) {
				t.Helper()
				deadline := time.After(2 * time.Second)
				for arrivals.Load() < want {
					select {
					case <-kick:
					case <-deadline:
						t.Fatalf("%d arrivals, want at least %d", arrivals.Load(), want)
					}
				}
			}
			read := func() []byte {
				t.Helper()
				data, from, ok, err := h.recv.TryRead()
				if !ok || err != nil || from == "" {
					t.Fatalf("TryRead: %d bytes from %q, ok %v, err %v", len(data), from, ok, err)
				}
				return data
			}
			empty := func(when string) {
				t.Helper()
				if data, _, ok, err := h.recv.TryRead(); ok {
					t.Fatalf("%s: TryRead took %d bytes, err %v", when, len(data), err)
				}
			}

			empty("before any send")
			if a := arrivals.Load(); a != 0 {
				t.Fatalf("%d arrivals before any send", a)
			}
			// The sender reuses its buffer the moment WriteTo returns.
			buf := []byte("first datagram")
			h.send(buf)
			for i := range buf {
				buf[i] = 'X'
			}
			arrived(1)
			first := read()
			empty("after the first datagram")
			// More traffic queues behind the slice we hold, and the queue
			// goes from empty to non-empty again.
			h.send([]byte("second"))
			h.send([]byte("third"))
			arrived(2)
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
			if string(first) != "first datagram" {
				t.Fatalf("held slice reads %q after two more reads", first)
			}

			big := make([]byte, wire.MaxPayload)
			for i := range big {
				big[i] = byte(i * 7)
			}
			at := arrivals.Load()
			h.send(big)
			arrived(at + 1)
			if got := read(); !bytes.Equal(got, big) {
				t.Fatalf("maximum-size datagram arrived as %d bytes (equal: %v)", len(got), bytes.Equal(got, big))
			}

			// A datagram left queued goes with the Close, and so does all
			// that comes after it.
			at = arrivals.Load()
			h.send([]byte("unread"))
			arrived(at + 1)
			if err := h.recv.Close(); err != nil {
				t.Fatal(err)
			}
			at = arrivals.Load()
			h.send([]byte("late"))
			time.Sleep(50 * time.Millisecond)
			empty("after Close")
			if a := arrivals.Load(); a != at {
				t.Errorf("%d arrivals after Close returned", a-at)
			}
		})
	}
}
