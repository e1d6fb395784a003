package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"instantad/internal/campaign"
)

// syncBuffer is a bytes.Buffer safe to write from the daemon's goroutines
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

// run1 runs campaignd to completion and returns its exit code, stdout and
// stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	corrupt := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(corrupt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-nodes", "4", "-listen", "127.0.0.1:0"}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "-checkpoint"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-nodes", "0"}, 2, "-nodes 0 must be > 0"},
		{append([]string{"-range", "NaN"}, small...), 2, "range NaN must be finite"},
		{[]string{"-nodes", "4", "-listen", busy.Addr().String()}, 1, "address already in use"},
		{append([]string{"-checkpoint", corrupt}, small...), 1, "campaignd:"},
	} {
		code, _, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("campaignd %v: exit %d (want %d), stderr %q", tc.args, code, tc.code, stderr)
		}
	}
}

// TestBootServeDrain boots a 4-node fleet, answers a request, and drains on
// context cancel into a valid checkpoint and metrics snapshot.
func TestBootServeDrain(t *testing.T) {
	dir := t.TempDir()
	ck, metrics := filepath.Join(dir, "ck.json"), filepath.Join(dir, "m.json")
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-nodes", "4", "-listen", "127.0.0.1:0", "-round", "50ms",
			"-checkpoint", ck, "-metrics-out", metrics, "-v"}, &stdout, &stderr)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if _, rest, ok := strings.Cut(stderr.String(), "serving on "); ok {
			addr, _, _ = strings.Cut(rest, "\n")
		} else if time.Now().After(deadline) {
			t.Fatalf("never served:\n%s", stderr.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: %s", resp.Status)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancel:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(stderr.String(), "campaignd: drained") {
		t.Errorf("no drain line:\n%s", stderr.String())
	}
	if _, err := campaign.ReadCheckpoint(ck); err != nil {
		t.Errorf("checkpoint after drain: %v", err)
	}
	var snap map[string]any
	if data, err := os.ReadFile(metrics); err != nil || json.Unmarshal(data, &snap) != nil {
		t.Errorf("-metrics-out wrote no JSON snapshot: %v", err)
	}
}
