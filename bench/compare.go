package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// verdicts of comparing one (metric, workload) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the spread is wider than the bound
)

// judge compares a new summary of a metric with the old one. worse is
// how much worse the new median is, as a share of the old (negative =
// better).
func judge(def metricDef, old, cur summary) (verdict string, worse float64) {
	if old.Median == 0 {
		return unresolved, 0
	}
	worse = (cur.Median - old.Median) / old.Median
	if def.Better == "higher" {
		worse = -worse
	}
	switch spread := max(old.spread(), cur.spread()); {
	case spread > def.Bound:
		return unresolved, worse
	case worse > def.Bound:
		return regressed, worse
	case worse < -def.Bound:
		return improved, worse
	}
	return unchanged, worse
}

// readEnvelopes reads one side of a comparison: one result file, or
// several separated by commas, pooled. A shared machine drifts by more
// than a bound for half a minute at a time, so a side worth comparing is
// several invocations, alternated with the other side's; pooling their
// repeats makes the median robust to one slow invocation and puts the
// drift into the spread, where it belongs.
func readEnvelopes(paths string) (*envelope, error) {
	var pooled *envelope
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var env envelope
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if pooled == nil {
			pooled = &env
			continue
		}
		for i := range pooled.Workloads {
			pw := &pooled.Workloads[i]
			for _, w := range env.Workloads {
				if w.Workload != pw.Workload {
					continue
				}
				pw.Attempted += w.Attempted
				pw.Failed += w.Failed
				pw.Correct = pw.Correct && w.Correct
				pw.Problems = append(pw.Problems, w.Problems...)
				for name, m := range pw.Metrics {
					m.summary = summarize(append(m.Raw, w.Metrics[name].Raw...))
					pw.Metrics[name] = m
				}
			}
		}
	}
	return pooled, nil
}

// compareFiles applies each end-to-end metric's bound to every workload
// the two sides share (a side is one result file, or several separated
// by commas) and prints one block per workload, every ratio with its
// base. The status is non-zero on any regression, on a larger failed
// share, or on an incorrect run.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readEnvelopes(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readEnvelopes(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s (%s, seed %d, %g s)\nnew: %s (%s, seed %d, %g s)\n",
		oldPath, old.GitRev, old.Seed, old.Seconds, newPath, cur.GitRev, cur.Seed, cur.Seconds)
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds || old.Smoke != cur.Smoke {
		fmt.Fprintln(stdout, "warning: the two runs used different settings; the comparison is not like for like")
	}
	status := 0
	tally := map[string]int{}
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Workload == ow.Workload {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n", ow.Workload)
		for _, def := range endToEnd {
			om, ok1 := ow.Metrics[def.Name]
			nm, ok2 := nw.Metrics[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict, worse := judge(def, om.summary, nm.summary)
			tally[verdict]++
			if verdict == regressed {
				status = 1
			}
			fmt.Fprintf(stdout, "  %-24s %-10s new %.4f / old %.4f %s = %.3fx (%+.1f%% worse, bound %.0f%%, spread old %.1f%% new %.1f%%)\n",
				def.Name, verdict, nm.Median, om.Median, def.Unit, nm.Median/om.Median,
				100*worse, 100*def.Bound, 100*om.spread(), 100*nm.spread())
		}
		oldShare := float64(ow.Failed) / float64(max(ow.Attempted, 1))
		newShare := float64(nw.Failed) / float64(max(nw.Attempted, 1))
		fmt.Fprintf(stdout, "  failed operations: new %d / %d attempted, old %d / %d attempted\n", nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
		if newShare > oldShare {
			fmt.Fprintf(stdout, "  FAILED: the failed share grew from %.4f%% to %.4f%%\n", 100*oldShare, 100*newShare)
			status = 1
		}
		if !nw.Correct {
			fmt.Fprintf(stdout, "  FAILED: the new run's outputs were not correct: %v\n", nw.Problems)
			status = 1
		}
	}
	fmt.Fprintf(stdout, "\n%d improved, %d unchanged, %d regressed, %d unresolved\n",
		tally[improved], tally[unchanged], tally[regressed], tally[unresolved])
	return status
}
