package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"esp/internal/server"
	"esp/internal/telemetry"
)

// servedConfig is one served repeat of a workload.
type servedConfig struct {
	def    workloadDef
	seed   int64
	timed  int    // timed epochs, after warmEpochs
	dir    string // scratch directory the WAL temp dir is made in
	oracle *oracleResult
	rec    *recorder // nil = spans off
	// strictP95 makes a run too short for a p95 an error; smoke runs
	// report an interpolated quantile instead.
	strictP95 bool
}

// counts are the exact quantities of one repeat. They must be identical
// across the repeats of a run: same seed, same inputs, same work.
type counts struct {
	FramesSent      int64 `json:"frames_sent"`
	TuplesPublished int64 `json:"tuples_published"`
	WALBytes        int64 `json:"wal_bytes"`
	OutputTuples    int64 `json:"output_tuples"`
}

// servedResult is what one served repeat measured.
type servedResult struct {
	// End-to-end metrics, by name.
	E2E               map[string]float64
	Counts            counts
	Attempted, Failed int64
	// Problems lists every correctness gate that failed (empty = correct).
	Problems []string

	// Detail the traced run turns into per-layer metrics.
	GenerateS, CreateMs float64
	EpochWallUs         []float64 // first publish → subscriber read, per timed epoch
	TailUs              []float64 // of which after the advance ack: the Data frame still on its way
	GCPauseMs           float64
	Before, After       telemetry.Snapshot // tenant registry around the timed epochs
	LostEpochs          int                // epochs the crash cost (the NoSync journal tail)
	WALDir              string
}

// driver replays a workload's epochs over the publisher connections.
type driver struct {
	w    *workload
	pubs [publishers]*server.Client
	rec  *recorder

	start, advSent, advAcked []time.Time    // by epoch index; conn 0's goroutine only
	root                     []atomic.Int64 // epoch span IDs, read by the other goroutines

	failed         atomic.Int64 // publishes and advances that errored or were refused
	frames, tuples atomic.Int64 // publish frames sent and the tuples in them

	next chan int   // epoch index for connection 1 to publish
	done chan error // its result
}

// publishEpoch sends connection c's frames of epoch e, each after the
// last was acked. A refused frame is a failed operation and the loop
// goes on; a transport error ends the run.
func (d *driver) publishEpoch(c, e int) error {
	ep := &d.w.Epochs[e]
	root := d.root[e].Load()
	for _, f := range ep.Frames[c] {
		var t0 time.Time
		if d.rec != nil {
			t0 = time.Now()
		}
		_, err := d.pubs[c].Publish(f.Receptor, f.Tuples)
		if d.rec != nil {
			d.rec.add(root, "client.publish", c, ep.Now.UnixNano(), t0, time.Now())
		}
		d.frames.Add(1)
		d.tuples.Add(int64(len(f.Tuples)))
		if err != nil {
			d.failed.Add(1)
			var refused *server.ServerError
			if !errors.As(err, &refused) {
				return fmt.Errorf("publish %s: %w", f.Receptor, err)
			}
		}
	}
	return nil
}

// drive replays epochs [from, to): both connections publish their share
// in parallel, then connection 0 advances — the closed loop espd's
// callers form, each waiting for its reply.
func (d *driver) drive(from, to int) error {
	for e := from; e < to; e++ {
		ep := &d.w.Epochs[e]
		epoch := ep.Now.UnixNano()
		root := d.rec.id()
		d.root[e].Store(root)
		d.start[e] = time.Now()
		d.next <- e
		err0 := d.publishEpoch(0, e)
		if err1 := <-d.done; err0 == nil {
			err0 = err1
		}
		if err0 != nil {
			return err0
		}
		d.advSent[e] = time.Now()
		err := d.pubs[0].Advance(ep.Now)
		d.advAcked[e] = time.Now()
		if err != nil {
			d.failed.Add(1)
			var refused *server.ServerError
			if !errors.As(err, &refused) {
				return fmt.Errorf("advance %d: %w", e, err)
			}
		}
		d.rec.add(root, "client.advance", 0, epoch, d.advSent[e], d.advAcked[e])
		d.rec.record(root, 0, "epoch", 0, epoch, d.start[e], d.advAcked[e])
		// A client does not keep what it has sent. Dropping it also shrinks
		// the harness's share of the heap the server's collector marks, so
		// collections come more often and shorter, as they would for espd
		// alone. The tail stays for the re-send after the crash.
		if e < len(d.w.Epochs)-resendTail {
			ep.Frames = [publishers][]pubFrame{}
		}
	}
	return nil
}

// resendTail is how many final epochs the driver keeps for the re-send
// after the crash. The crash costs what the log's two 64 KiB buffers
// held: at most ten epochs on the smallest workload.
const resendTail = 64

// runServed is one repeat: set up a self-hosted espd with the WAL on,
// replay the workload over TCP, crash and recover the tenant, and check
// every output against the oracle.
func runServed(cfg servedConfig) (res *servedResult, err error) {
	res = &servedResult{E2E: make(map[string]float64)}
	total := warmEpochs + cfg.timed
	rec := cfg.rec

	// ---- set-up: generation, listen, create, dials, warm-up ----
	t0 := time.Now()
	w, err := cfg.def.gen(cfg.seed, total)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	allTuples, timedTuples := float64(w.inputTuples(0, total)), float64(w.inputTuples(warmEpochs, total))
	t1 := time.Now()
	res.GenerateS = t1.Sub(t0).Seconds()
	rec.add(0, "sim.generate", laneMain, 0, t0, t1)

	walRoot, err := os.MkdirTemp(cfg.dir, tempPrefix+"wal-")
	if err != nil {
		return nil, err
	}
	res.WALDir = walRoot
	defer os.RemoveAll(walRoot)

	srv, err := server.Listen(server.Config{Addr: "127.0.0.1:0", WALDir: walRoot})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// Journal append on, no device sync: fsync latency belongs to the
	// disk, not the program, and does not repeat on a shared machine.
	srv.Engine().SetWALNoSync(true)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve() // returns net.ErrClosed after Shutdown
	}()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		serr := srv.Shutdown(ctx)
		<-served
		return serr
	}
	defer stop() //nolint:errcheck // error paths only; the success path checks it

	var clients []*server.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	dial := func() (*server.Client, error) {
		c, derr := server.Dial(srv.Addr())
		if derr == nil {
			clients = append(clients, c)
		}
		return c, derr
	}

	d := &driver{
		w: w, rec: rec,
		start: make([]time.Time, total), advSent: make([]time.Time, total), advAcked: make([]time.Time, total),
		root: make([]atomic.Int64, total),
		next: make(chan int), done: make(chan error),
	}
	if d.pubs[0], err = dial(); err != nil {
		return nil, err
	}
	c0 := time.Now()
	if err := d.pubs[0].Create(tenantName, w.Spec); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	c1 := time.Now()
	res.CreateMs = float64(c1.Sub(c0)) / 1e6
	rec.add(0, "cql.create", laneMain, 0, c0, c1)
	for c := 1; c < publishers; c++ {
		if d.pubs[c], err = dial(); err != nil {
			return nil, err
		}
		if err := d.pubs[c].Hello(tenantName, "pub"); err != nil {
			return nil, fmt.Errorf("hello: %w", err)
		}
	}
	subc, err := dial()
	if err != nil {
		return nil, err
	}
	if err := subc.Subscribe(tenantName, w.Stream); err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}

	// The subscriber connection only reads: it stamps each epoch's Data
	// frame on arrival and fingerprints it.
	index := make(map[int64]int, total)
	for e, ep := range w.Epochs {
		index[ep.Now.UnixNano()] = e
	}
	arrive := make([]time.Time, total)
	fp := server.NewFingerprint()
	caughtUp := make(chan struct{})
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for {
			n0 := time.Now()
			data, _, done, nerr := subc.Next()
			now := time.Now()
			if nerr != nil || done {
				return // the crash below ends the stream with an Error frame
			}
			e, ok := index[data.Epoch]
			if ok {
				arrive[e] = now
				rec.add(d.root[e].Load(), "client.next", laneSub, data.Epoch, n0, now)
			}
			fp.Add(data)
			if fp.Frames() == cfg.oracle.Frames {
				close(caughtUp)
			}
		}
	}()

	// Connection 1 publishes its share of each epoch when told to.
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for e := range d.next {
			d.done <- d.publishEpoch(1, e)
		}
	}()
	defer func() {
		close(d.next)
		<-pubDone
	}()

	u0 := time.Now()
	if err := d.drive(0, warmEpochs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setupEnd := time.Now()
	rec.add(0, "warmup", laneMain, 0, u0, setupEnd)
	res.E2E["setup_s"] = setupEnd.Sub(t0).Seconds()

	ten, ok := srv.Engine().Tenant(tenantName)
	if !ok {
		return nil, fmt.Errorf("tenant %q missing after create", tenantName)
	}
	if rec != nil {
		res.Before = ten.Registry().Snapshot()
	}

	// ---- timed epochs ----
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := d.drive(warmEpochs, total); err != nil {
		return nil, fmt.Errorf("timed epochs: %w", err)
	}
	runtime.ReadMemStats(&m1)
	wall := d.advAcked[total-1].Sub(d.start[warmEpochs])

	// Every expected Data frame must reach the subscriber.
	select {
	case <-caughtUp:
	case <-subDone:
	case <-time.After(10 * time.Second):
	}
	res.After = ten.Registry().Snapshot()

	// ---- crash: the actor stops, the WAL drops its buffers ----
	ten.Crash()
	if err := stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	<-subDone

	var lat []float64
	for e := warmEpochs; e < total; e++ {
		// The epoch is delivered when the subscriber has read its Data
		// frame (which may be before the advance ack is back), or at the
		// ack when it emits nothing; it is over when both have happened.
		delivered, over := d.advAcked[e], d.advAcked[e]
		if cfg.oracle.Emits[w.Epochs[e].Now.UnixNano()] {
			if arrive[e].IsZero() {
				continue // counted below as a missing frame
			}
			delivered = arrive[e]
			if delivered.After(over) {
				over = delivered
			}
		}
		lat = append(lat, float64(delivered.Sub(d.advSent[e]))/1e6)
		res.EpochWallUs = append(res.EpochWallUs, float64(over.Sub(d.start[e]))/1e3)
		res.TailUs = append(res.TailUs, float64(over.Sub(d.advAcked[e]))/1e3)
	}
	res.E2E["tuples_per_s"] = timedTuples / wall.Seconds()
	for name, p := range map[string]float64{"epoch_ms_p50": 50, "epoch_ms_p95": 95} {
		if res.E2E[name], err = percentileOr(lat, p, cfg.strictP95); err != nil {
			return nil, fmt.Errorf("epoch latency: %w", err)
		}
	}
	res.E2E["alloc_bytes_per_tuple"] = float64(m1.TotalAlloc-m0.TotalAlloc) / timedTuples
	res.GCPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// Operations: every publish and advance, every expected Data frame,
	// and every tuple a channel evicted at its cap.
	res.Attempted = d.frames.Load() + int64(total) + int64(cfg.oracle.Frames)
	res.Failed = d.failed.Load()
	if missing := cfg.oracle.Frames - fp.Frames(); missing > 0 {
		res.Failed += int64(missing)
	}
	res.Failed += sumNamed(res.After.Gauges, "receptor.", ".channel_dropped")
	res.Counts.FramesSent = d.frames.Load()
	res.Counts.TuplesPublished = d.tuples.Load()
	res.Counts.OutputTuples = int64(fp.Tuples())

	// Gate 1: the served stream is byte-identical to the in-process run.
	if !cfg.oracle.matches(fp) {
		res.Problems = append(res.Problems, fmt.Sprintf("served output %v diverged from in-process oracle %v", fp, cfg.oracle))
	}

	// ---- recovery: a fresh engine over the same WAL directory ----
	eng := server.NewEngine(0)
	eng.SetWALDir(walRoot)
	eng.SetWALNoSync(true)
	r0 := time.Now()
	reports, err := eng.Recover()
	r1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	rec.add(0, "wal.recover", laneMain, 0, r0, r1)
	res.E2E["recover_s"] = r1.Sub(r0).Seconds()
	rten, ok := eng.Tenant(tenantName)
	if !ok || len(reports) != 1 {
		return nil, fmt.Errorf("recover rebuilt %d tenants, want 1", len(reports))
	}

	// Under NoSync a commit leaves its records in the log's userspace
	// buffer, so the crash costs the last few epochs (a finding, see the
	// README). The contract for that is the client's: re-send everything
	// after the last committed epoch.
	last := -1 // no committed epoch survived
	if at := rten.Last().UnixNano(); at != 0 {
		if last, ok = index[at]; !ok {
			return nil, fmt.Errorf("recovered clock %v is not an epoch boundary of the workload", rten.Last())
		}
	}
	if res.LostEpochs = total - 1 - last; res.LostEpochs > resendTail {
		return nil, fmt.Errorf("the crash cost %d epochs, more than the %d kept for the re-send", res.LostEpochs, resendTail)
	}
	for _, ep := range w.Epochs[last+1:] {
		for _, fs := range ep.Frames {
			for _, f := range fs {
				if _, err := rten.Publish(f.Receptor, f.Tuples); err != nil {
					return nil, fmt.Errorf("re-send publish: %w", err)
				}
			}
		}
		if err := rten.Advance(ep.Now); err != nil {
			return nil, fmt.Errorf("re-send advance: %w", err)
		}
	}
	// Gate 2: the recovered tenant stands at the final epoch.
	if final := w.Epochs[total-1].Now; !rten.Last().Equal(final) {
		res.Problems = append(res.Problems, fmt.Sprintf("recovered tenant stands at %v, want final epoch %v", rten.Last(), final))
	}
	// Gate 3: the archive, replayed from genesis, is the same stream.
	sub, backlog, err := rten.ResumeSubscribe(w.Stream, -1)
	if err != nil {
		return nil, fmt.Errorf("subscribe from genesis: %w", err)
	}
	sub.Close()
	afp := server.NewFingerprint()
	for _, data := range backlog {
		afp.Add(data)
	}
	if !cfg.oracle.matches(afp) {
		res.Problems = append(res.Problems, fmt.Sprintf("archive replayed from genesis %v diverged from oracle %v", afp, cfg.oracle))
	}
	if err := eng.DrainAll(); err != nil {
		return nil, fmt.Errorf("drain recovered tenant: %w", err)
	}

	// The clean close flushed both files: the segments now hold the whole
	// history, warm-up included, so divide by every tuple published.
	res.Counts.WALBytes, err = segmentBytes(filepath.Join(walRoot, tenantName))
	if err != nil {
		return nil, err
	}
	res.E2E["wal_bytes_per_tuple"] = float64(res.Counts.WALBytes) / allTuples
	return res, nil
}

// segmentBytes sums the journal and archive segments under dir.
func segmentBytes(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range segs {
		info, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// sumNamed adds up the counters or gauges named prefix…suffix.
func sumNamed(values map[string]int64, prefix, suffix string) int64 {
	var n int64
	for name, v := range values {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}
