package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"esp/internal/server"
	"esp/internal/stream"
	"esp/internal/telemetry"
	"esp/internal/wal"
)

// WALConfig parameterises the durability experiment: the journalling
// overhead of a served wide deployment (the sched workload, served),
// and the boot-recovery cost of a large crashed journal.
type WALConfig struct {
	// Sched shapes the overhead leg: the wide deployment, driven through a served tenant with journalling off
	// and on.
	Sched SchedConfig
	// RecoveryMotes, RecoveryEpochs and RecoverySamples shape the
	// recovery leg's journal: motes × epochs × samples readings are
	// journalled, the tenant is killed, and boot recovery is timed.
	RecoveryMotes, RecoveryEpochs, RecoverySamples int
	// ResumeEpochs is how many post-recovery epochs are re-driven to
	// prove the replayed window state byte-identical.
	ResumeEpochs int
	// Runs is how many times each timed leg repeats (best wall time
	// wins, standard bench hygiene).
	Runs int
}

// DefaultWALConfig sizes the experiment for `espbench -exp wal`: the
// default sched workload (48 receptors × 144 epochs) for overhead, and
// a 60-epoch 1000-mote journal for recovery.
func DefaultWALConfig() WALConfig {
	return WALConfig{
		Sched:           DefaultSchedConfig(),
		RecoveryMotes:   1000,
		RecoveryEpochs:  60,
		RecoverySamples: 2,
		ResumeEpochs:    8,
		Runs:            2,
	}
}

// WALAppendResult is the overhead leg: the same served workload three
// ways — journalling off, journalling without the per-commit
// fdatasync ("append": the encode/frame/write cost that scales with
// data volume), and full durability ("durable": append plus one
// fdatasync per committed epoch). The decomposition separates the
// cost that grows with the workload from the fixed device-sync
// latency per commit, which is a property of the filesystem, not the
// log format, and is amortised over a whole epoch in deployment.
type WALAppendResult struct {
	Receptors         int   `json:"receptors"`
	Epochs            int   `json:"epochs"`
	TuplesPublished   int   `json:"tuples_published"`
	OffWallNs         int64 `json:"off_wall_ns"`
	AppendWallNs      int64 `json:"append_wall_ns"`
	DurableWallNs     int64 `json:"durable_wall_ns"`
	OffNsPerEpoch     int64 `json:"off_ns_per_epoch"`
	AppendNsPerEpoch  int64 `json:"append_ns_per_epoch"`
	DurableNsPerEpoch int64 `json:"durable_ns_per_epoch"`
	// AppendOverhead is (append−off)/off — the acceptance gate is
	// ≤ 0.15.
	AppendOverhead float64 `json:"append_overhead"`
	// DurableOverhead is (durable−off)/off, reported alongside: the
	// bench drives epochs back-to-back, so the per-commit fdatasync is
	// compared against microseconds of compute rather than the
	// minutes-long epoch it amortises over in deployment (see
	// FsyncDutyCycle).
	DurableOverhead float64 `json:"durable_overhead"`
	JournalBytes    int64   `json:"journal_bytes"`
	// Fsync digests the per-commit fdatasync latency (one fsync per
	// committed epoch, from the durable pass).
	Fsync telemetry.HistogramSnapshot `json:"fsync"`
	// FsyncDutyCycle is mean fdatasync time divided by the workload's
	// real epoch period — the fraction of deployment wall-clock the
	// durability sync actually costs.
	FsyncDutyCycle float64 `json:"fsync_duty_cycle"`
	// Identical reports whether both journalled runs' output
	// fingerprints matched the unjournalled run's.
	Identical   bool   `json:"identical"`
	Fingerprint string `json:"fingerprint"`
}

// WALRecoveryResult is the recovery leg: a crashed journal replayed at
// boot.
type WALRecoveryResult struct {
	Motes           int   `json:"motes"`
	Epochs          int   `json:"epochs"`
	TuplesJournaled int   `json:"tuples_journaled"`
	JournalBytes    int64 `json:"journal_bytes"`
	JournalSegments int   `json:"journal_segments"`
	// RecoverWallNs times Engine.Recover: scan, truncate, and replay of
	// every committed epoch through a fresh pipeline.
	RecoverWallNs int64   `json:"recover_wall_ns"`
	NsPerEpoch    int64   `json:"ns_per_epoch"`
	TuplesPerSec  float64 `json:"replay_tuples_per_sec"`
	// SubSecond is the acceptance gate: RecoverWallNs < 1e9.
	SubSecond bool `json:"sub_second"`
	// Identical reports whether ResumeEpochs epochs driven after
	// recovery fingerprinted identically to the same epochs of an
	// uninterrupted run.
	ResumeEpochs int  `json:"resume_epochs"`
	Identical    bool `json:"identical"`
}

// WALResult is BENCH_wal.json.
type WALResult struct {
	Append   WALAppendResult   `json:"append"`
	Recovery WALRecoveryResult `json:"recovery"`
}

// wideSpec renders the sched workload's wide deployment as a tenant
// spec: motes in groups of GroupSize, SmoothAvg over the expanded
// window, MergeAvg per epoch — the serving-layer twin of
// BuildWideDeployment.
func wideSpec(receptors, groupSize int, epoch, smoothWin time.Duration) []byte {
	groups := map[string]any{}
	var members []string
	gi := 0
	flush := func() {
		if len(members) > 0 {
			groups[fmt.Sprintf("granule%02d", gi)] = map[string]any{"type": "mote", "members": members}
			members = nil
			gi++
		}
	}
	recs := make([]map[string]any, 0, receptors)
	for i := 0; i < receptors; i++ {
		id := fmt.Sprintf("wide%03d", i)
		recs = append(recs, map[string]any{"id": id, "type": "mote", "schema": "temp:float"})
		members = append(members, id)
		if len(members) == groupSize {
			flush()
		}
	}
	flush()
	spec := map[string]any{
		"deployment": map[string]any{
			"epoch":  epoch.String(),
			"groups": groups,
			"pipelines": map[string]any{
				"mote": map[string]any{
					"smooth": fmt.Sprintf("SELECT avg(temp) AS temp FROM smooth_input [Range By '%d sec']", int(smoothWin/time.Second)),
					"merge":  fmt.Sprintf("SELECT avg(temp) AS temp FROM merge_input [Range By '%d sec']", int(epoch/time.Second)),
				},
			},
		},
		"receptors": recs,
		"quota":     map[string]any{"channel_cap": 1 << 16},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// wideWorkload pre-generates the deterministic sinusoid readings of
// BuildWideDeployment, shaped for publishing: steps[e][r] is receptor
// r's batch for epoch e+1.
func wideWorkload(receptors, samples, epochs int, epoch time.Duration) ([][][]stream.Tuple, int) {
	start := time.Unix(0, 0).UTC()
	steps := make([][][]stream.Tuple, epochs)
	total := 0
	for e := 0; e < epochs; e++ {
		epochStart := start.Add(time.Duration(e) * epoch)
		steps[e] = make([][]stream.Tuple, receptors)
		for r := 0; r < receptors; r++ {
			batch := make([]stream.Tuple, samples)
			for s := 0; s < samples; s++ {
				ts := epochStart.Add(time.Duration(s+1) * epoch / time.Duration(samples+1))
				v := 20 + 5*math.Sin(float64(e*samples+s)/37) + 0.1*float64(r%7)
				batch[s] = stream.NewTuple(ts, stream.Float(v))
			}
			steps[e][r] = batch
			total += samples
		}
	}
	return steps, total
}

// driveServed runs the workload through a served tenant and returns the
// output fingerprint and the wall time of the publish+advance loop.
// walRoot == "" runs unjournalled; noSync suppresses the per-commit
// fdatasync (the bench's append/durable decomposition).
func driveServed(spec []byte, steps [][][]stream.Tuple, epoch time.Duration, walRoot string, noSync bool) (*server.Fingerprint, time.Duration, *server.Tenant, error) {
	eng := server.NewEngine(0)
	if walRoot != "" {
		eng.SetWALDir(walRoot)
		eng.SetWALNoSync(noSync)
	}
	ten, err := eng.Create("wide", spec)
	if err != nil {
		return nil, 0, nil, err
	}
	sub, err := ten.Subscribe("mote")
	if err != nil {
		return nil, 0, nil, err
	}
	fp := server.NewFingerprint()
	start := time.Unix(0, 0).UTC()
	t0 := time.Now()
	for e, batches := range steps {
		for r, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			if _, err := ten.Publish(fmt.Sprintf("wide%03d", r), batch); err != nil {
				return nil, 0, nil, err
			}
		}
		if err := ten.Advance(start.Add(time.Duration(e+1) * epoch)); err != nil {
			return nil, 0, nil, err
		}
		for len(sub.C()) > 0 {
			fp.Add(<-sub.C())
		}
	}
	wall := time.Since(t0)
	return fp, wall, ten, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && !ent.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// runWALAppend measures journalling overhead on the served sched
// workload: Runs passes with journalling off and on (best wall each),
// fingerprints cross-checked.
func runWALAppend(cfg WALConfig) (*WALAppendResult, error) {
	sc := cfg.Sched
	epochs := int(sc.Duration / sc.Epoch)
	spec := wideSpec(sc.Receptors, sc.GroupSize, sc.Epoch, sc.SmoothWindow)
	steps, published := wideWorkload(sc.Receptors, sc.SamplesPerEpoch, epochs, sc.Epoch)

	res := &WALAppendResult{Receptors: sc.Receptors, Epochs: epochs, TuplesPublished: published}
	var offFP, appFP, durFP *server.Fingerprint

	// One timed pass: best-of-Runs wall of the publish+advance loop,
	// with journalling configured per mode.
	pass := func(journal, noSync bool) (*server.Fingerprint, int64, error) {
		var best int64
		var fp *server.Fingerprint
		for run := 0; run < cfg.Runs; run++ {
			root := ""
			if journal {
				var err error
				root, err = os.MkdirTemp("", "esp-wal-bench-*")
				if err != nil {
					return nil, 0, err
				}
			}
			f, wall, ten, err := driveServed(spec, steps, sc.Epoch, root, noSync)
			if err == nil && journal && !noSync {
				res.Fsync = ten.Registry().Histogram("wal_fsync_ns").Snapshot()
			}
			if err == nil {
				err = ten.Drain()
			}
			if err == nil && journal {
				res.JournalBytes = dirBytes(fmt.Sprintf("%s/wide", root))
			}
			if root != "" {
				os.RemoveAll(root)
			}
			if err != nil {
				return nil, 0, err
			}
			fp = f
			if best == 0 || int64(wall) < best {
				best = int64(wall)
			}
		}
		return fp, best, nil
	}

	var err error
	if offFP, res.OffWallNs, err = pass(false, false); err != nil {
		return nil, err
	}
	if appFP, res.AppendWallNs, err = pass(true, true); err != nil {
		return nil, err
	}
	if durFP, res.DurableWallNs, err = pass(true, false); err != nil {
		return nil, err
	}

	res.OffNsPerEpoch = res.OffWallNs / int64(epochs)
	res.AppendNsPerEpoch = res.AppendWallNs / int64(epochs)
	res.DurableNsPerEpoch = res.DurableWallNs / int64(epochs)
	res.AppendOverhead = float64(res.AppendWallNs-res.OffWallNs) / float64(res.OffWallNs)
	res.DurableOverhead = float64(res.DurableWallNs-res.OffWallNs) / float64(res.OffWallNs)
	if res.Fsync.Count > 0 {
		res.FsyncDutyCycle = float64(res.Fsync.Sum) / float64(res.Fsync.Count) / float64(sc.Epoch)
	}
	res.Identical = offFP.Sum() == appFP.Sum() && offFP.Frames() == appFP.Frames() &&
		offFP.Sum() == durFP.Sum() && offFP.Frames() == durFP.Frames()
	res.Fingerprint = fmt.Sprintf("%016x", durFP.Sum())
	if !res.Identical {
		return res, fmt.Errorf("exp: journalled output %v / %v diverged from unjournalled %v", appFP, durFP, offFP)
	}
	return res, nil
}

// runWALRecovery journals a large workload, kills the tenant, and times
// boot recovery; then drives ResumeEpochs more epochs on the recovered
// tenant and on an uninterrupted control to prove the replayed state
// byte-identical.
func runWALRecovery(cfg WALConfig) (*WALRecoveryResult, error) {
	const epoch = time.Second
	groupSize := 4
	spec := wideSpec(cfg.RecoveryMotes, groupSize, epoch, 4*epoch)
	steps, journaled := wideWorkload(cfg.RecoveryMotes, cfg.RecoverySamples, cfg.RecoveryEpochs+cfg.ResumeEpochs, epoch)
	crashSteps, resumeSteps := steps[:cfg.RecoveryEpochs], steps[cfg.RecoveryEpochs:]
	journaled = cfg.RecoveryMotes * cfg.RecoverySamples * cfg.RecoveryEpochs

	res := &WALRecoveryResult{
		Motes:           cfg.RecoveryMotes,
		Epochs:          cfg.RecoveryEpochs,
		TuplesJournaled: journaled,
		ResumeEpochs:    cfg.ResumeEpochs,
	}

	// Control: uninterrupted run over all epochs; fingerprint only the
	// resume suffix.
	ctrlEng := server.NewEngine(0)
	ctrl, err := ctrlEng.Create("wide", spec)
	if err != nil {
		return nil, err
	}
	ctrlSub, err := ctrl.Subscribe("mote")
	if err != nil {
		return nil, err
	}
	start := time.Unix(0, 0).UTC()
	ctrlFP := server.NewFingerprint()
	for e, batches := range steps {
		for r, batch := range batches {
			if _, err := ctrl.Publish(fmt.Sprintf("wide%03d", r), batch); err != nil {
				return nil, err
			}
		}
		if err := ctrl.Advance(start.Add(time.Duration(e+1) * epoch)); err != nil {
			return nil, err
		}
		for len(ctrlSub.C()) > 0 {
			d := <-ctrlSub.C()
			if e >= cfg.RecoveryEpochs {
				ctrlFP.Add(d)
			}
		}
	}
	if err := ctrl.Drain(); err != nil {
		return nil, err
	}

	var best int64
	for run := 0; run < cfg.Runs; run++ {
		root, err := os.MkdirTemp("", "esp-wal-recover-*")
		if err != nil {
			return nil, err
		}
		// Journal the crash leg and kill the tenant.
		crashEng := server.NewEngine(0)
		crashEng.SetWALDir(root)
		ten, err := crashEng.Create("wide", spec)
		if err != nil {
			os.RemoveAll(root)
			return nil, err
		}
		for e, batches := range crashSteps {
			for r, batch := range batches {
				if _, err := ten.Publish(fmt.Sprintf("wide%03d", r), batch); err != nil {
					os.RemoveAll(root)
					return nil, err
				}
			}
			if err := ten.Advance(start.Add(time.Duration(e+1) * epoch)); err != nil {
				os.RemoveAll(root)
				return nil, err
			}
		}
		ten.Crash()
		res.JournalBytes = dirBytes(fmt.Sprintf("%s/wide", root))
		if segs, err := wal.JournalSegments(fmt.Sprintf("%s/wide", root)); err == nil {
			res.JournalSegments = len(segs)
		}

		// Timed: boot recovery of the crashed journal.
		bootEng := server.NewEngine(0)
		bootEng.SetWALDir(root)
		t0 := time.Now()
		reports, err := bootEng.Recover()
		wall := time.Since(t0)
		if err != nil {
			os.RemoveAll(root)
			return nil, err
		}
		if len(reports) != 1 || reports[0].Epochs != cfg.RecoveryEpochs {
			os.RemoveAll(root)
			return nil, fmt.Errorf("exp: recovery replayed %+v, want %d epochs", reports, cfg.RecoveryEpochs)
		}
		if best == 0 || int64(wall) < best {
			best = int64(wall)
		}

		// Last run keeps the recovered tenant to prove state identity.
		if run == cfg.Runs-1 {
			rec, _ := bootEng.Tenant("wide")
			sub, err := rec.Subscribe("mote")
			if err != nil {
				os.RemoveAll(root)
				return nil, err
			}
			fp := server.NewFingerprint()
			for e, batches := range resumeSteps {
				for r, batch := range batches {
					if _, err := rec.Publish(fmt.Sprintf("wide%03d", r), batch); err != nil {
						os.RemoveAll(root)
						return nil, err
					}
				}
				if err := rec.Advance(start.Add(time.Duration(cfg.RecoveryEpochs+e+1) * epoch)); err != nil {
					os.RemoveAll(root)
					return nil, err
				}
				for len(sub.C()) > 0 {
					fp.Add(<-sub.C())
				}
			}
			if err := rec.Drain(); err != nil {
				os.RemoveAll(root)
				return nil, err
			}
			res.Identical = fp.Sum() == ctrlFP.Sum() && fp.Frames() == ctrlFP.Frames()
			if !res.Identical {
				os.RemoveAll(root)
				return res, fmt.Errorf("exp: post-recovery output %v diverged from control %v", fp, ctrlFP)
			}
		}
		os.RemoveAll(root)
	}
	res.RecoverWallNs = best
	res.NsPerEpoch = best / int64(cfg.RecoveryEpochs)
	res.TuplesPerSec = float64(journaled) / (float64(best) / float64(time.Second))
	res.SubSecond = best < int64(time.Second)
	return res, nil
}

// RunWAL runs the durability experiment: append overhead and boot
// recovery.
func RunWAL(cfg WALConfig) (*WALResult, error) {
	app, err := runWALAppend(cfg)
	if err != nil {
		return nil, err
	}
	rec, err := runWALRecovery(cfg)
	if err != nil {
		return nil, err
	}
	return &WALResult{Append: *app, Recovery: *rec}, nil
}
