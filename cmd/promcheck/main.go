// Command promcheck validates Prometheus text exposition: it scrapes a URL
// (or reads a file / stdin), parses the text strictly — TYPE lines, sample
// syntax, histogram bucket monotonicity, +Inf/count agreement — and
// optionally asserts that required metric families are present with the
// right type. It exits non-zero on any violation, making it the CI gate
// for the /metrics endpoints.
//
// Usage:
//
//	promcheck -url http://127.0.0.1:8500/metrics -require node_sent_total:counter
//	promcheck -in metrics.txt
//	adnode ... | promcheck -in -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"instantad/internal/cli"
	"instantad/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is promcheck on the given arguments and streams; stdin is what -in -
// reads. It returns the exit code: 2 for a bad invocation, 1 for an
// exposition that could not be read, does not parse or lacks a required
// family.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("promcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url     = fs.String("url", "", "scrape this URL instead of reading a file")
		in      = fs.String("in", "-", "exposition file to read ('-' for stdin)")
		require = fs.String("require", "", "comma-separated name:type assertions (type optional), e.g. node_sent_total:counter,node_peers_live")
		timeout = fs.Duration("timeout", 10*time.Second, "total scrape budget, retrying until the endpoint answers")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := check(*url, *in, *require, *timeout, stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "promcheck: %v\n", err)
		return 1
	}
	return 0
}

// check parses the exposition and asserts every required family.
func check(url, in, require string, timeout time.Duration, stdin io.Reader, stdout io.Writer) error {
	var (
		r   io.ReadCloser
		err error
	)
	switch {
	case url != "":
		r, err = scrape(url, timeout)
	case in == "-":
		r = io.NopCloser(stdin)
	default:
		r, err = os.Open(in)
	}
	if err != nil {
		return err
	}
	defer r.Close()

	fams, err := obs.ParsePrometheus(r)
	if err != nil {
		return err
	}
	for _, req := range cli.Strings(require) {
		name, typ, _ := strings.Cut(req, ":")
		fam, ok := fams[name]
		if !ok {
			return fmt.Errorf("required family %q missing", name)
		}
		if typ != "" && fam.Type != typ {
			return fmt.Errorf("family %q is %s, want %s", name, fam.Type, typ)
		}
	}
	fmt.Fprintf(stdout, "ok: %d families\n", len(fams))
	return nil
}

// scrape GETs the exposition, retrying until the timeout so CI can point it
// at a server that is still binding its listener.
func scrape(url string, budget time.Duration) (io.ReadCloser, error) {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp.Body, nil
		}
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scraping %s: %w", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
