package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const exposition = `# HELP demo_total a counter
# TYPE demo_total counter
demo_total 3
# HELP demo_live a gauge
# TYPE demo_live gauge
demo_live 1
`

// run1 runs promcheck on stdin and returns its exit code, stdout and stderr.
func run1(stdin io.Reader, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, stdin, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(good, []byte(exposition), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("# TYPE x counter\nx{ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, exposition)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		args           []string
		stdin          string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, "", 0, "", "-require"},
		{[]string{"-bogus"}, "", 2, "", "flag provided but not defined"},
		{[]string{"-in", good, "-require", "demo_total:counter,demo_live"}, "", 0, "ok: 2 families", ""},
		{nil, exposition, 0, "ok: 2 families", ""},
		{[]string{"-url", srv.URL + "/metrics", "-require", "demo_live:gauge"}, "", 0, "ok: 2 families", ""},
		{[]string{"-in", good, "-require", "demo_missing"}, "", 1, "", `required family "demo_missing" missing`},
		{[]string{"-in", good, "-require", "demo_live:counter"}, "", 1, "", `"demo_live" is gauge, want counter`},
		{[]string{"-in", bad}, "", 1, "", "promcheck:"},
		{[]string{"-in", filepath.Join(dir, "missing.txt")}, "", 1, "", "no such file"},
		{[]string{"-url", srv.URL + "/nope", "-timeout", "150ms"}, "", 1, "", "404"},
	} {
		code, stdout, stderr := run1(strings.NewReader(tc.stdin), tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("promcheck %v: exit %d (want %d), stdout %q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
	}
}
