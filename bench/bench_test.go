package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	// 200 samples leave exactly ten beyond p95.
	if v, err := percentile(samples, 95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(samples[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples has nine samples beyond it and was not refused")
	}
	if _, err := percentile(samples[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has nine samples beyond it and was not refused")
	}
	if _, err := percentile(samples, 100); err == nil {
		t.Fatal("p100 was not refused")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	const epochs = warmEpochs + 4
	for _, def := range workloads {
		a, err := def.gen(1, epochs)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		b, err := def.gen(1, epochs)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		c, err := def.gen(2, epochs)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if len(a.Epochs) != epochs || a.inputTuples(0, epochs) == 0 {
			t.Fatalf("%s: generated %d epochs and %d tuples", def.Name, len(a.Epochs), a.inputTuples(0, epochs))
		}
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 1 generated different bytes twice", def.Name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 1 and 2 generated the same bytes", def.Name)
		}
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bj.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if !name.MatchString(def.Name) {
			t.Errorf("workload name %q is not a valid name", def.Name)
		}
		if len(def.Why) > 200 || strings.Contains(def.Why, "\n") {
			t.Errorf("workload %s: the rationale must be one line of at most 200 characters", def.Name)
		}
		if bj.Workloads[i].Name != def.Name || bj.Workloads[i].Why != def.Why {
			t.Errorf("workload %d drifted: BENCHMARK.json %+v, binary %q / %q", i, bj.Workloads[i], def.Name, def.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d drifted: BENCHMARK.json %+v, binary %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(bj.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer metric %d drifted: BENCHMARK.json %+v, binary %+v", i, got, def)
		}
	}
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) {
			t.Errorf("metric %q (%q) has an invalid name or unit", def.Name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %s: better = %q", def.Name, def.Better)
		}
		if seen[def.Name] {
			t.Errorf("metric name %s is used twice", def.Name)
		}
		seen[def.Name] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v, want go run ./bench", bj.Command)
	}
}

// lastLines parses the result lines that end the binary's output.
func lastLines(t *testing.T, out string, n int) []resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < n {
		t.Fatalf("output has %d lines, want at least %d:\n%s", len(lines), n, out)
	}
	var res []resultLine
	for _, l := range lines[len(lines)-n:] {
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		res = append(res, r)
	}
	return res
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func printedNames(r resultLine) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEndToEnd runs every workload at smoke scale, as the driver
// would: all gates pass, no operation fails, and the metrics printed
// are exactly the end-to-end catalogue.
func TestSmokeEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--smoke", "--seed", "3", "--trace", "0", "--dir", t.TempDir()}, &stdout, &stderr, false); code != 0 {
		t.Fatalf("exit status %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	want := strings.Join(metricNames(endToEnd), ",")
	for i, r := range lastLines(t, stdout.String(), len(workloads)) {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workloads[i].Name, r.Correct, r.Attempted, r.Failed)
		}
		if got := strings.Join(printedNames(r), ","); got != want {
			t.Errorf("%s printed metrics %s, want %s", workloads[i].Name, got, want)
		}
		for n, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", workloads[i].Name, n, m.Value)
			}
		}
	}
}

// TestSmokeTraced runs one traced workload at smoke scale: the metrics
// printed are exactly the per-layer catalogue.
func TestSmokeTraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "shelf-rfid", "-trace", "-dir", t.TempDir()}, &stdout, &stderr, false); code != 0 {
		t.Fatalf("exit status %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	r := lastLines(t, stdout.String(), 1)[0]
	if got, want := strings.Join(printedNames(r), ","), strings.Join(metricNames(perLayer), ","); got != want {
		t.Errorf("printed metrics %s, want %s", got, want)
	}
	if !strings.Contains(stdout.String(), "unattributed") {
		t.Error("the attribution table has no unattributed row")
	}
}

func TestWrongFingerprintFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-workload", "shelf-rfid", "-dir", t.TempDir()}, &stdout, &stderr, true)
	if code == 0 {
		t.Fatalf("a wrong fingerprint exited 0\n%s", stdout.String())
	}
	if r := lastLines(t, stdout.String(), 1)[0]; r.Correct {
		t.Error("a wrong fingerprint was reported as correct")
	}
	if !strings.Contains(stdout.String(), "diverged from in-process oracle") {
		t.Errorf("the failed gate is not named:\n%s", stdout.String())
	}
}

func TestJudge(t *testing.T) {
	tput := metricDef{Name: "tuples_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "epoch_ms_p50", Better: "lower", Bound: 0.10}
	steady := func(v float64) summary { return summarize([]float64{v * 0.99, v, v, v, v * 1.01}) }
	noisy := func(v float64) summary { return summarize([]float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}) }
	cases := []struct {
		def      metricDef
		old, cur summary
		want     string
	}{
		{tput, steady(100), steady(105), unchanged},
		{tput, steady(100), steady(85), regressed},
		{tput, steady(100), steady(120), improved},
		{lat, steady(10), steady(12), regressed},
		{lat, steady(10), steady(8), improved},
		{lat, steady(10), noisy(12), unresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}
