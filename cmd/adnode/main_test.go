package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe to write from the node's goroutines
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// run1 runs adnode to completion and returns its exit code, stdout and
// stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	busy, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	busyTCP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busyTCP.Close()
	dir := t.TempDir()
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "", "-demo"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined"},
		{[]string{"-range", "NaN"}, 2, "", "finite"},
		{[]string{"-listen", "nonsense"}, 2, "", "missing port"},
		{[]string{"-stats", "0", "-issue", "x", "-R", "-1"}, 2, "", "adnode:"},
		{[]string{"-listen", busy.LocalAddr().String()}, 1, "", "address already in use"},
		{[]string{"-events", filepath.Join(dir, "no", "ev.jsonl")}, 1, "", "no such file"},
		{[]string{"-stats", "0", "-http", busyTCP.Addr().String()}, 1, "", "address already in use"},
		{[]string{"-demo"}, 0, "every node along the chain received the ad", ""},
	} {
		code, stdout, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("adnode %v: exit %d (want %d), stdout %q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
	}
}

// TestDaemon boots the daemon twice in one process, scrapes both HTTP
// endpoints and stops it through its context: run registers nothing
// process-wide, and a cancelled context is a clean exit with a final
// stats line.
func TestDaemon(t *testing.T) {
	for i := 0; i < 2; i++ {
		events := filepath.Join(t.TempDir(), "ev.jsonl")
		ctx, cancel := context.WithCancel(context.Background())
		var stdout, stderr syncBuffer
		done := make(chan int, 1)
		go func() {
			done <- run(ctx, []string{"-http", "127.0.0.1:0", "-beacon", "50ms", "-stats", "20ms",
				"-issue", "Unleaded $1.45/L", "-events", events, "-v"}, &stdout, &stderr)
		}()
		base := waitFor(t, &stdout, "Prometheus text at http://", "/metrics")
		for _, c := range []struct{ path, want string }{
			{"/metrics", "node_sent_total"},
			{"/debug/vars", `"cmdline"`},
		} {
			body := get(t, "http://"+base+c.path)
			if !strings.Contains(body, c.want) {
				t.Errorf("GET %s lacks %q:\n%.300s", c.path, c.want, body)
			}
		}
		var vars struct {
			Adnode snapshot `json:"adnode"`
		}
		if err := json.Unmarshal([]byte(get(t, "http://"+base+"/debug/vars")), &vars); err != nil || vars.Adnode.Cached != 1 {
			t.Errorf("/debug/vars adnode = %+v, %v; want the issued ad cached", vars.Adnode, err)
		}
		waitFor(t, &stdout, `"stats":`, "")
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit %d after cancel: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
		if out := stdout.String(); !strings.Contains(out, "issued ") || !strings.Contains(out, "discovery on") {
			t.Errorf("stdout lacks the issue and discovery lines:\n%s", out)
		}
		if fi, err := os.Stat(events); err != nil {
			t.Errorf("-events: %v", err)
		} else if fi.Size() == 0 && strings.Contains(stderr.String(), "events:") {
			t.Errorf("-events flush failed: %s", stderr.String())
		}
	}
}

// TestDaemonEventsWriteFailure runs the daemon with its trace on a full
// device: the events are lost, so the clean stop must exit 1, not 0.
func TestDaemonEventsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-stats", "0", "-peers", "127.0.0.1:9", "-issue", "x",
			"-events", "/dev/full"}, &stdout, &stderr)
	}()
	waitFor(t, &stdout, "issued ", "")
	cancel()
	select {
	case code := <-done:
		if code != 1 || !strings.Contains(stderr.String(), "events:") {
			t.Errorf("exit %d, stderr %q; want 1 and the events error", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// waitFor polls buf until it contains prefix and returns the text between
// prefix and the next suffix ("" means the rest of the line).
func waitFor(t *testing.T, buf *syncBuffer, prefix, suffix string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := buf.String()
		if _, rest, ok := strings.Cut(s, prefix); ok {
			if suffix == "" {
				suffix = "\n"
			}
			if v, _, ok := strings.Cut(rest, suffix); ok {
				return v
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q in output:\n%s", prefix, buf.String())
	return ""
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return string(body)
}
