package main

import (
	"strings"
	"testing"
)

// TestManifestMatchesHarness is `-check` as a test: BENCHMARK.json is
// well-formed and every workload emits exactly the declared metrics.
func TestManifestMatchesHarness(t *testing.T) {
	if err := checkManifest(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects feeds validate the ways a manifest has been
// refused before: a bad name, a missing bound, a bound on a per-layer
// metric, no setup_s, a path that does not exist.
func TestValidateRejects(t *testing.T) {
	bound := 0.1
	good := func() *manifest {
		return &manifest{
			Command:    []string{"bash", "benchmark/run.sh"},
			Paths:      []string{"benchmark"},
			RunSeconds: 10,
			Workloads:  []manifestWL{{"a", "one"}, {"b", "two"}},
			EndToEnd:   []manifestMetric{{"setup_s", "s", "lower", &bound}},
			PerLayer:   []manifestMetric{{"x.y", "count", "higher", nil}},
		}
	}
	_, root, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if bad := good().validate(root); len(bad) != 0 {
		t.Fatalf("a good manifest was refused: %v", bad)
	}
	for what, breakIt := range map[string]func(*manifest){
		"name":        func(m *manifest) { m.PerLayer[0].Name = "has space" },
		"duplicate":   func(m *manifest) { m.PerLayer[0].Name = "setup_s" },
		"no bound":    func(m *manifest) { m.EndToEnd[0].Bound = nil },
		"big bound":   func(m *manifest) { b := 0.3; m.EndToEnd[0].Bound = &b },
		"layer bound": func(m *manifest) { m.PerLayer[0].Bound = &bound },
		"no setup_s":  func(m *manifest) { m.EndToEnd[0].Name = "other" },
		"path":        func(m *manifest) { m.Paths = []string{"no-such-dir"} },
		"abs path":    func(m *manifest) { m.Paths = []string{"/tmp"} },
		"unit":        func(m *manifest) { m.PerLayer[0].Unit = "a unit that is much too long" },
		"direction":   func(m *manifest) { m.PerLayer[0].Better = "faster" },
		"workloads":   func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"seconds":     func(m *manifest) { m.RunSeconds = 61 },
		"why":         func(m *manifest) { m.Workloads[0].Why = strings.Repeat("x", 201) },
	} {
		m := good()
		breakIt(m)
		if bad := m.validate(root); len(bad) == 0 {
			t.Errorf("%s: a broken manifest was accepted", what)
		}
	}
}
