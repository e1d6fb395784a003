package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// profileModules are the layers the CPU-share table has a row for; a frame
// outside all of them counts as "other".
var profileModules = []string{
	"metrics", "mobility", "geo", "radio", "sim", "core", "ads", "fm",
	"node", "memnet", "campaign", "obs", "runtime", "other",
}

// moduleOf maps a function name, as pprof prints it, to its layer.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "instantad/internal/"); ok {
		if strings.HasPrefix(rest, "node/memnet.") {
			return "memnet"
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range profileModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "gcWriteBarrier") {
		return "runtime"
	}
	return "other"
}

// rootFrame reports a frame that sits at the bottom of every stack of a
// goroutine: the runtime's entry points and the benchmark's own functions.
// Counting them would put the runtime and "other" in every cum share.
func rootFrame(fn string) bool {
	return fn == "runtime.main" || fn == "runtime.goexit" || strings.HasPrefix(fn, "main.")
}

// cpuShares is the CPU-share table: for each layer, the share of samples
// whose leaf frame is in it (self) and the share with any frame in it (cum),
// root frames aside. Self shares add up to 1; cum shares overlap by design.
type cpuShares struct {
	totalMs   float64
	self, cum map[string]float64
}

// parseTraces reads the text `go tool pprof -traces -unit=ms` prints: blocks
// separated by dashed rules, each holding one sampled stack — the value and
// the leaf function on the first line, then one caller per line.
func parseTraces(out []byte) (cpuShares, error) {
	sh := cpuShares{self: map[string]float64{}, cum: map[string]float64{}}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		sh.totalMs += value
		sh.self[moduleOf(stack[0])] += value
		seen := map[string]bool{}
		for i, fn := range stack {
			if i > 0 && rootFrame(fn) {
				continue
			}
			if m := moduleOf(fn); !seen[m] {
				seen[m] = true
				sh.cum[m] += value
			}
		}
		stack = stack[:0]
	}
	inBlocks := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			if len(fields) < 2 {
				return sh, fmt.Errorf("pprof traces: no value on stack head %q", line)
			}
			ms, ok := strings.CutSuffix(fields[0], "ms")
			v, err := strconv.ParseFloat(ms, 64)
			if !ok || err != nil {
				return sh, fmt.Errorf("pprof traces: value %q is not milliseconds", fields[0])
			}
			value = v
			fields = fields[1:]
		}
		stack = append(stack, fields[0]) // drops a trailing "(inline)"
	}
	flush()
	if err := sc.Err(); err != nil {
		return sh, err
	}
	if sh.totalMs == 0 {
		return sh, nil // a run too short to be sampled has no shares to report
	}
	for _, m := range []map[string]float64{sh.self, sh.cum} {
		for k := range m {
			m[k] /= sh.totalMs
		}
	}
	return sh, nil
}

// profileShares runs `go tool pprof -traces` on a CPU profile the benchmark
// recorded of itself and adds one cpu_self.* and cpu_cum.* sample per layer.
func profileShares(profile string, layers samples) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	sh, err := parseTraces(out)
	if err != nil {
		return err
	}
	for _, m := range profileModules {
		layers.add("cpu_self."+m, sh.self[m])
		layers.add("cpu_cum."+m, sh.cum[m])
	}
	return nil
}
