package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A set is a -record file: one JSON line per run, each the run's
// provenance and the result the driver would have read.
type recordLine struct {
	Provenance json.RawMessage `json:"provenance"`
	Result     *result         `json:"result"`
}

func appendRecord(path, prov string, res *result) error {
	line, err := json.Marshal(recordLine{json.RawMessage(prov), res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSet returns workload -> metric -> the values of a set's runs.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec recordLine
		var prov struct {
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := json.Unmarshal(rec.Provenance, &prov); err != nil || rec.Result == nil {
			return nil, fmt.Errorf("%s: a line has no provenance or result", path)
		}
		if set[prov.Workload] == nil {
			set[prov.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			set[prov.Workload][name] = append(set[prov.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles and the bound, and a verdict by the
// choosing-metrics rule: b is "worse" when its median is worse than a's
// by more than the bound; when either set's own spread (distance
// between its quartiles over its median) exceeds the bound the pair is
// "unresolved", not "same".
func compareSets(w io.Writer, pathA, pathB string) error {
	m, _, err := loadManifest()
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	var workloads []string
	for name := range a {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-13s %-27s %36s %36s %6s %8s  %s\n", "workload", "metric",
		"a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "bound", "b vs a", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, mm := range m.EndToEnd {
			xa, xb := a[wl][mm.Name], b[wl][mm.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := ratio(b2-a2, a2) // positive: b's median is larger
			worsening := change
			if mm.Better == "higher" {
				worsening = -change
			}
			verdict := "same"
			switch {
			case worsening > *mm.Bound:
				verdict = "worse"
				worse++
			case ratio(a3-a1, a2) > *mm.Bound || ratio(b3-b1, b2) > *mm.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-27s %36s %36s %6.2f %+7.1f%%  %s\n", wl, mm.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", a2, a1, a3, len(xa)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", b2, b1, b3, len(xb)),
				*mm.Bound, 100*change, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse beyond their bound", worse)
	}
	return nil
}
