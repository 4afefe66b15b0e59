package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
)

// repeats is how many times the served run repeats in one invocation; a
// metric's value is the median.
const repeats = 5

// tracePairs is how many (untraced, traced) pairs the traced run makes.
const tracePairs = 2

// runOptions are the settings of one invocation.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string // scratch directory: WAL temp dirs and span files
	// tamper corrupts the expected fingerprint. Set only by the test
	// that shows a wrong fingerprint fails the run.
	tamper bool
}

// metricReport is one metric of one workload over the repeats of a run.
type metricReport struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	summary
}

// workloadReport is one workload's share of the result envelope.
type workloadReport struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	WarmEpochs  int    `json:"warm_epochs"`
	TimedEpochs int    `json:"timed_epochs"`
	Repeats     int    `json:"repeats"`

	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`

	// Counts are the exact quantities of each repeat; CountsAgree says
	// they were identical, as they must be.
	Counts      []counts `json:"counts"`
	CountsAgree bool     `json:"counts_agree"`
	// LostEpochs is how many epochs each crash cost before the re-send.
	LostEpochs int      `json:"lost_epochs"`
	WALDirs    []string `json:"wal_dirs"`

	Metrics     map[string]metricReport `json:"metrics"`
	Attribution []attributionRow        `json:"attribution,omitempty"`
	SpansFile   string                  `json:"spans_file,omitempty"`
}

// timedEpochs sizes one repeat: the workload's reference count scaled
// to the run length, a twentieth of it for a smoke run.
func timedEpochs(def workloadDef, o runOptions) int {
	n := float64(def.TimedEpochs) * o.seconds / refSeconds
	if o.smoke {
		n /= 20
	}
	return int(math.Max(math.Round(n), 4))
}

// runWorkload runs one workload: the oracle once, then the served
// repeats (or, traced, the pairs and the layer replays).
func runWorkload(def workloadDef, o runOptions) (*workloadReport, error) {
	timed := timedEpochs(def, o)
	w, err := def.gen(o.seed, warmEpochs+timed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rep := &workloadReport{
		Workload: def.Name, Why: def.Why, WarmEpochs: warmEpochs, TimedEpochs: timed,
		Metrics: make(map[string]metricReport),
	}
	var rec *recorder
	if o.trace {
		// Room for every span of one traced repeat and the replays.
		rec = newRecorder(w.inputFrames(0, len(w.Epochs)) + 4*len(w.Epochs) + 8192)
	}
	oracle, err := runOracle(w, rec)
	if err != nil {
		return nil, err
	}
	if o.tamper {
		oracle.Sum ^= 1
	}
	if !o.trace {
		w = nil // each repeat generates its own copy; only the replays need this one
	}
	cfg := servedConfig{def: def, seed: o.seed, timed: timed, dir: o.dir, oracle: oracle, strictP95: !o.smoke}

	var runs []*servedResult
	add := func(r *servedResult) {
		runs = append(runs, r)
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Problems = append(rep.Problems, r.Problems...)
		rep.Counts = append(rep.Counts, r.Counts)
		rep.LostEpochs = r.LostEpochs
		rep.WALDirs = append(rep.WALDirs, r.WALDir)
	}

	if !o.trace {
		n := repeats
		if o.smoke {
			n = 2
		}
		for i := 0; i < n; i++ {
			r, err := runServed(cfg)
			if err != nil {
				return nil, fmt.Errorf("repeat %d: %w", i+1, err)
			}
			add(r)
		}
		for _, def := range endToEnd {
			raw := make([]float64, len(runs))
			for i, r := range runs {
				raw[i] = r.E2E[def.Name]
			}
			rep.Metrics[def.Name] = metricReport{Unit: def.Unit, Better: def.Better, Bound: def.Bound, summary: summarize(raw)}
		}
	} else {
		var plain, traced []*servedResult
		for i := 0; i < tracePairs; i++ {
			cfg.rec = nil
			r, err := runServed(cfg)
			if err != nil {
				return nil, fmt.Errorf("untraced run %d: %w", i+1, err)
			}
			add(r)
			plain = append(plain, r)
			// Only the last traced run's spans are kept, with the oracle's.
			if i < tracePairs-1 {
				cfg.rec = newRecorder(cap(rec.spans))
			} else {
				cfg.rec = rec
			}
			if r, err = runServed(cfg); err != nil {
				return nil, fmt.Errorf("traced run %d: %w", i+1, err)
			}
			add(r)
			traced = append(traced, r)
		}
		m, rows, err := layerMetrics(w, oracle, plain, traced, rec, o.dir, !o.smoke)
		if err != nil {
			return nil, err
		}
		rep.Attribution = rows
		for _, def := range perLayer {
			v, ok := m[def.Name]
			if !ok {
				return nil, fmt.Errorf("traced run did not measure %s", def.Name)
			}
			rep.Metrics[def.Name] = metricReport{Unit: def.Unit, Better: def.Better, summary: summarize([]float64{v})}
		}
		rep.SpansFile = filepath.Join(o.dir, "spans-"+def.Name+".json")
		if err := rec.writeFile(rep.SpansFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.Repeats = len(runs)

	// Same seed, same inputs, same work: a run whose exact counts differ
	// between repeats measured different things and is failed, not
	// averaged.
	rep.CountsAgree = true
	for _, c := range rep.Counts[1:] {
		if c != rep.Counts[0] {
			rep.CountsAgree = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("exact counts differ between repeats: %+v vs %+v", rep.Counts[0], c))
			break
		}
	}
	rep.Correct = len(rep.Problems) == 0
	return rep, nil
}

// print writes the report as a table: every metric by name with its
// unit, then operations and gates.
func (rep *workloadReport) print(out *strings.Builder, defs []metricDef) {
	fmt.Fprintf(out, "\n== %s: %d warm + %d timed epochs x %d runs ==\n", rep.Workload, rep.WarmEpochs, rep.TimedEpochs, rep.Repeats)
	for _, def := range defs {
		m := rep.Metrics[def.Name]
		if len(m.Raw) > 1 {
			fmt.Fprintf(out, "  %-36s %14.4f %-9s (q1 %.4f, q3 %.4f, spread %.1f%%, bound %.0f%%)\n",
				def.Name, m.Median, m.Unit, m.Q1, m.Q3, 100*m.spread(), 100*m.Bound)
		} else {
			fmt.Fprintf(out, "  %-36s %14.4f %s\n", def.Name, m.Median, m.Unit)
		}
	}
	fmt.Fprintf(out, "  operations: %d attempted, %d failed; crash cost %d epochs, re-sent\n", rep.Attempted, rep.Failed, rep.LostEpochs)
	if len(rep.Attribution) > 0 {
		printAttribution(out, rep.Attribution)
	}
	if rep.Correct {
		fmt.Fprintf(out, "  gates: served = oracle, recovered tenant at final epoch, archive from genesis = oracle, exact counts agree\n")
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
}
