package transport_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"instantad/internal/node/transport"
	"instantad/internal/testutil"
)

// TestUDPSendsKeepNoPerDestinationState writes to 10 000 distinct loopback
// destinations, as a node answering digests and pulls from that many
// senders would: the conn must not keep anything per destination. A cache
// of resolved addresses that never evicts kept about 1.2 MB here.
func TestUDPSendsKeepNoPerDestinationState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime inflates the heap")
	}
	c, err := transport.UDP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const dests, limit = 10000, 256 << 10
	msg := []byte("x")
	send := func(i int) {
		// 127.1.0.0/16 is loopback that no test socket binds; port 9 is
		// discard.
		if _, err := c.WriteTo(msg, fmt.Sprintf("127.1.%d.%d:9", i/250, i%250+1)); err != nil {
			t.Fatal(err)
		}
	}
	send(0) // the conn's first send may set up state of its own
	before := testutil.HeapAfterGC()
	for i := range dests {
		send(i)
	}
	kept := testutil.HeapAfterGC() - before
	runtime.KeepAlive(c)
	t.Logf("%d destinations kept %d bytes", dests, kept)
	if kept > limit {
		t.Errorf("%d destinations kept %d bytes, limit %d", dests, kept, limit)
	}
}

// TestUDPAddressesRoundTrip sends to a receiver under the address Resolve
// gives for it, the spelling a node keys its peers by and writes to, and
// under a spelling that needs the resolver: both arrive, from the sender's
// canonical address.
func TestUDPAddressesRoundTrip(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "[::1]"} {
		t.Run(host, func(t *testing.T) {
			var tr transport.UDP
			recv, err := tr.Listen(host + ":0")
			if err != nil {
				t.Skipf("no %s socket here: %v", host, err)
			}
			defer recv.Close()
			src, err := tr.Listen(host + ":0")
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			rx := testutil.NewReceiver(recv)
			canonical, err := tr.Resolve(recv.LocalAddr())
			if err != nil {
				t.Fatal(err)
			}
			from, err := tr.Resolve(src.LocalAddr())
			if err != nil {
				t.Fatal(err)
			}
			spellings := []string{canonical}
			if host == "127.0.0.1" {
				_, port, _ := strings.Cut(canonical, ":")
				spellings = append(spellings, "localhost:"+port)
			}
			for _, to := range spellings {
				if _, err := src.WriteTo([]byte(to), to); err != nil {
					t.Fatalf("WriteTo %s: %v", to, err)
				}
				data, got, err := rx.Next(2 * time.Second)
				if err != nil || string(data) != to || got != from {
					t.Fatalf("sent to %s: read %q from %s, err %v; want from %s", to, data, got, err, from)
				}
			}
			if _, err := src.WriteTo(nil, host); err == nil {
				t.Error("a destination without a port was accepted")
			}
		})
	}
}
