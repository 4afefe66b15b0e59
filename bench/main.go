// Command bench is the serving benchmark: it generates a workload from
// a seed, self-hosts espd on a loopback port with the WAL on, replays
// the workload over TCP in a closed loop, crashes and recovers the
// tenant, checks every output against an in-process run, and prints
// every metric by name with its unit. See README.md beside this file.
//
//	go run ./bench                          # all workloads, end-to-end metrics
//	go run ./bench -trace                   # all workloads, per-layer metrics
//	go run ./bench -workload motes-1k -seed 7 -seconds 20 -trace 0
//	go run ./bench -out new.json && go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"esp/internal/wal"
)

// envelope is the result file every run shares.
type envelope struct {
	GitRev     string           `json:"git_rev"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Smoke      bool             `json:"smoke"`
	Publishers int              `json:"publishers"`
	Started    string           `json:"started"`
	TookS      float64          `json:"took_s"`
	Workloads  []workloadReport `json:"workloads"`
}

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tempPrefix starts the name of every temp dir this process makes in the
// scratch directory, so an interrupted run can remove exactly its own.
var tempPrefix = fmt.Sprintf("tmp%d-", os.Getpid())

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// removeTempOnSignal removes this process's temp dirs when it is
// interrupted: deferred removals do not run then. The returned function
// ends the watch.
func removeTempOnSignal(dir string) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
		case <-done:
			return
		}
		if stale, err := filepath.Glob(filepath.Join(dir, tempPrefix+"*")); err == nil {
			for _, p := range stale {
				os.RemoveAll(p)
			}
		}
		os.Exit(130)
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// joinTraceArg lets -trace be written both as a switch (-trace) and with
// a separate value (--trace 0, --trace 1), which package flag does not
// accept for a boolean.
func joinTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// run is main with its inputs and outputs passed in. tamper corrupts
// the expected fingerprint (tests only). It returns the exit status.
func run(args []string, stdout, stderr io.Writer, tamper bool) int {
	started := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all of them)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", refSeconds, "run length: the timed epochs of all repeats take about this long")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and the attribution table instead of end-to-end metrics")
	smoke := fs.Bool("smoke", false, "a twentieth of the epochs, two repeats: a functional check, not a measurement")
	outPath := fs.String("out", "", "write the result envelope (JSON) to this file")
	dir := fs.String("dir", ".bench_build", "scratch directory for WAL temp dirs and span files")
	compare := fs.Bool("compare", false, "compare two sets of result envelopes: -compare old.json[,old2.json...] new.json[,...]")
	if err := fs.Parse(joinTraceArg(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two sets of result files: old.json[,old2.json...] new.json[,...]")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	// More Ps than CPUs only adds preemption noise to a timing run.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d exceeds the %d CPUs of this machine\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	defs := workloads
	if *name != "" {
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{def}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer removeTempOnSignal(*dir)()
	// A segment rotation fdatasyncs even under NoSync. At the default
	// 4 MiB threshold that is several device syncs a second on
	// wide-batch, which cost it 15% and made its repeats differ by 2x;
	// like the per-commit sync, it is the disk's latency, not the
	// program's, so the journal stays in one segment.
	wal.DefaultSegmentBytes = 1 << 40

	env := envelope{
		GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Trace: *trace, Smoke: *smoke, Publishers: publishers,
		Started: started.UTC().Format(time.RFC3339),
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, dir: *dir, tamper: tamper}
	metricDefs := endToEnd
	if *trace {
		metricDefs = perLayer
	}
	status := 0
	var lines []string
	for _, def := range defs {
		rep, err := runWorkload(def, opts)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.Name, err)
			return 1
		}
		var table strings.Builder
		rep.print(&table, metricDefs)
		fmt.Fprint(stdout, table.String())
		if !rep.Correct {
			status = 1
		}
		line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
		for _, md := range metricDefs {
			line.Metrics[md.Name] = metricValue{Value: rep.Metrics[md.Name].Median, Unit: md.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		lines = append(lines, string(b))
		env.Workloads = append(env.Workloads, *rep)
	}
	env.TookS = time.Since(started).Seconds()
	if *outPath != "" {
		b, err := json.MarshalIndent(env, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The time cap of the contract, at a glance; then one result line
	// per workload, last.
	fmt.Fprintf(stdout, "\ninvocation took %.1f s (%s, %d CPUs, GOMAXPROCS %d, seed %d)\n",
		env.TookS, env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Seed)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return status
}

// gitRev names the commit measured, when the checkout is a git one.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
