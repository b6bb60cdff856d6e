package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// manifest is BENCHMARK.json: the contract between this harness and
// whoever runs it. checkManifest keeps the two from drifting apart.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// repoRoot is the directory holding BENCHMARK.json: the working
// directory under the driver, its parent under go test.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadManifest() (*manifest, string, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, "", err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, "", err
	}
	if len(raw) > 64*kib {
		return nil, "", fmt.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, root, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the manifest against the limits of the benchmark
// contract; it returns every violation, not just the first.
func (m *manifest) validate(root string) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if n := len(m.Command); n < 1 || n > 32 {
		fail("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			fail("command string %q is too long, absolute or leaves the repo", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		fail("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			fail("path %q is not a plain relative path", p)
		} else if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			fail("path %q is not a directory of the repo", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		fail("run_seconds is %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		fail("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			fail("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	metric := func(kind string, mm manifestMetric, bounded bool) {
		name(kind+" metric", mm.Name)
		if !unitRE.MatchString(mm.Unit) {
			fail("metric %s: unit %q does not match %s", mm.Name, mm.Unit, unitRE)
		}
		if mm.Better != "higher" && mm.Better != "lower" {
			fail("metric %s: better is %q, want higher or lower", mm.Name, mm.Better)
		}
		switch {
		case bounded && (mm.Bound == nil || *mm.Bound <= 0 || *mm.Bound > 0.25):
			fail("metric %s: bound must be in (0, 0.25]", mm.Name)
		case !bounded && mm.Bound != nil:
			fail("metric %s: a per-layer metric has no bound", mm.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		fail("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, mm := range m.EndToEnd {
		metric("end-to-end", mm, true)
		if mm.Name == "setup_s" {
			hasSetup = mm.Unit == "s" && mm.Better == "lower"
		}
	}
	if !hasSetup {
		fail(`end_to_end lacks {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		fail("%d per-layer metrics, want 1..128", n)
	}
	for _, mm := range m.PerLayer {
		metric("per-layer", mm, false)
	}
	return bad
}

// checkManifest validates BENCHMARK.json and then runs every declared
// workload at smoke-test scale, untraced and traced, failing unless each
// run emits exactly the declared metrics with the declared units.
func checkManifest() error {
	m, root, err := loadManifest()
	if err != nil {
		return err
	}
	bad := m.validate(root)
	declared := map[string]bool{}
	for _, w := range m.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloadNames {
		if !declared[w] {
			bad = append(bad, fmt.Sprintf("workload %s is implemented but not declared", w))
		}
	}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res, err := runBenchmark(w.Name, scales["tiny"], 1, 300*time.Millisecond, traced, "")
			if err != nil {
				bad = append(bad, fmt.Sprintf("workload %s (trace=%v): %v", w.Name, traced, err))
				continue
			}
			bad = append(bad, diffMetrics(fmt.Sprintf("workload %s (trace=%v)", w.Name, traced), want, res)...)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("BENCHMARK.json and the harness disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// diffMetrics lists the ways a result departs from the declared metrics.
func diffMetrics(what string, want []manifestMetric, res *result) []string {
	var bad []string
	if !res.Correct {
		bad = append(bad, fmt.Sprintf("%s: oracles failed (%d of %d)", what, res.Failed, res.Attempted))
	}
	declared := map[string]bool{}
	for _, mm := range want {
		declared[mm.Name] = true
		got, ok := res.Metrics[mm.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: declared metric %s is not emitted", what, mm.Name))
		case got.Unit != mm.Unit:
			bad = append(bad, fmt.Sprintf("%s: metric %s has unit %q, declared %q", what, mm.Name, got.Unit, mm.Unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			bad = append(bad, fmt.Sprintf("%s: metric %s is not finite", what, mm.Name))
		}
	}
	for name := range res.Metrics {
		if !declared[name] {
			bad = append(bad, fmt.Sprintf("%s: emitted metric %s is not declared", what, name))
		}
	}
	return bad
}
