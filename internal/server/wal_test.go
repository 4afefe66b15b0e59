package server

import (
	"os"
	"path/filepath"
	"testing"

	"esp/internal/stream"
	"esp/internal/wal"
)

// pub publishes one batch and fails the test on error.
func pub(t *testing.T, ten *Tenant, rec string, ts ...stream.Tuple) {
	t.Helper()
	if _, err := ten.Publish(rec, ts); err != nil {
		t.Fatal(err)
	}
}

// collect drains every frame currently buffered on sub into fp.
func collect(fp *Fingerprint, sub *Subscription) {
	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				return
			}
			fp.Add(d)
		default:
			return
		}
	}
}

// TestEngineWALRecovery is the end-to-end durability contract: crash a
// journalled tenant mid-run, recover it in a fresh engine, finish the
// workload, and require the delivered output to be byte-identical to
// an uninterrupted run — including output that depends on window state
// spanning the crash point.
func TestEngineWALRecovery(t *testing.T) {
	spec := testSpec("")
	script := func(ten *Tenant, from, to int, fp *Fingerprint, sub *Subscription) {
		t.Helper()
		for e := from; e <= to; e++ {
			sec := float64(e - 1)
			pub(t, ten, "reader0", read(sec+0.2, "A", true), read(sec+0.6, "B", e%3 != 0))
			pub(t, ten, "reader1", read(sec+0.4, "A", e%2 == 0))
			if err := ten.Advance(at(float64(e))); err != nil {
				t.Fatal(err)
			}
			collect(fp, sub)
		}
	}
	const total, crashAt = 12, 7

	// Reference: uninterrupted, no WAL.
	ref := NewEngine(0)
	rt, err := ref.Create("shelf", spec)
	if err != nil {
		t.Fatal(err)
	}
	refSub, err := rt.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	refFP := NewFingerprint()
	script(rt, 1, total, refFP, refSub)
	if refFP.Frames() == 0 {
		t.Fatal("reference run produced no output")
	}

	// Journalled run, crashed after epoch crashAt.
	dir := t.TempDir()
	e1 := NewEngine(0)
	e1.SetWALDir(dir)
	t1, err := e1.Create("shelf", spec)
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := t1.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	gotFP := NewFingerprint()
	script(t1, 1, crashAt, gotFP, sub1)
	t1.Crash()

	// Recover in a fresh engine (fresh process, morally).
	e2 := NewEngine(0)
	e2.SetWALDir(dir)
	reports, err := e2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(reports) != 1 || reports[0].Tenant != "shelf" || reports[0].Epochs != crashAt {
		t.Fatalf("reports = %+v", reports)
	}
	t2, ok := e2.Tenant("shelf")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	// Exactly-once resume: the clock stands at the crash epoch, and
	// re-advancing to it commits nothing.
	if !t2.Last().Equal(at(crashAt)) {
		t.Fatalf("recovered clock at %v, want %v", t2.Last(), at(crashAt))
	}
	before := t2.Stats().Epochs
	if err := t2.Advance(at(crashAt)); err != nil {
		t.Fatal(err)
	}
	if t2.Stats().Epochs != before {
		t.Fatal("advance to the recovered epoch re-committed it")
	}

	sub2, err := t2.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	script(t2, crashAt+1, total, gotFP, sub2)

	if gotFP.Sum() != refFP.Sum() || gotFP.Frames() != refFP.Frames() || gotFP.Tuples() != refFP.Tuples() {
		t.Fatalf("recovered output diverges: %v vs reference %v", gotFP, refFP)
	}

	// Drain stamps the catalog completed; the next boot skips replay.
	if err := t2.Drain(); err != nil {
		t.Fatal(err)
	}
	cat, err := wal.ReadCatalog(filepath.Join(dir, "shelf"))
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Completed || cat.Epochs != total {
		t.Fatalf("catalog = %+v", cat)
	}
}

// TestEngineCreateResetsWAL: the alter path starts a fresh history —
// an altered pipeline must not replay the old pipeline's journal.
func TestEngineCreateResetsWAL(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(0)
	eng.SetWALDir(dir)
	t1, err := eng.Create("shelf", testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	pub(t, t1, "reader0", read(0.5, "A", true))
	if err := t1.Advance(at(1)); err != nil {
		t.Fatal(err)
	}
	t2, err := eng.Create("shelf", testSpec("")) // alter
	if err != nil {
		t.Fatal(err)
	}
	if rec := t2.Recovered(); rec != nil {
		t.Fatalf("alter replayed %d epochs of the old journal", len(rec.Epochs))
	}
	cat, err := wal.ReadCatalog(filepath.Join(dir, "shelf"))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epochs != 0 || cat.Completed {
		t.Fatalf("catalog after alter = %+v", cat)
	}
	if err := eng.DrainAll(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWALRejectsHostileNames: with journalling on, a tenant name
// must be usable as a directory name under the WAL root.
func TestEngineWALRejectsHostileNames(t *testing.T) {
	eng := NewEngine(0)
	eng.SetWALDir(t.TempDir())
	for _, name := range []string{"..", "a/b", `a\b`, "."} {
		if _, err := eng.Create(name, testSpec("")); err == nil {
			t.Errorf("name %q accepted with WAL enabled", name)
		}
	}
}

// TestTenantWALCounters: the wal_* counters ride the tenant registry.
func TestTenantWALCounters(t *testing.T) {
	eng := NewEngine(0)
	eng.SetWALDir(t.TempDir())
	ten, err := eng.Create("shelf", testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	pub(t, ten, "reader0", read(0.2, "A", true), read(0.4, "B", true))
	if err := ten.Advance(at(1)); err != nil {
		t.Fatal(err)
	}
	snap := ten.Registry().Snapshot()
	want := map[string]int64{"wal_publish_records": 1, "wal_publish_tuples": 2, "wal_commits": 1}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if snap.Counters["wal_bytes"] == 0 {
		t.Error("wal_bytes = 0")
	}
	if err := ten.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServerWALDirConfig: the config plumbs through Listen.
func TestServerWALDirConfig(t *testing.T) {
	dir := t.TempDir()
	s, err := Listen(Config{Addr: "127.0.0.1:0", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.ln.Close()
	if got := s.Engine().WALDir(); got != dir {
		t.Fatalf("WALDir = %q, want %q", got, dir)
	}
	if _, err := s.Engine().Create("shelf", testSpec("")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shelf", "spec.json")); err != nil {
		t.Fatalf("spec not persisted: %v", err)
	}
	_ = s.Engine().DrainAll()
}

// TestNoSyncCommitSurvivesProcessCrash pins SetWALNoSync's promise: with
// the device sync off a commit still hands its records to the OS, so a
// process crash (Tenant.Crash closes the files without flushing the
// log's buffers) loses no acked epoch.
func TestNoSyncCommitSurvivesProcessCrash(t *testing.T) {
	const epochs = 9
	dir := t.TempDir()
	e1 := NewEngine(0)
	e1.SetWALDir(dir)
	e1.SetWALNoSync(true)
	t1, err := e1.Create("shelf", testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		sec := float64(e - 1)
		pub(t, t1, "reader0", read(sec+0.2, "A", true), read(sec+0.6, "B", true))
		if err := t1.Advance(at(float64(e))); err != nil {
			t.Fatal(err)
		}
	}
	t1.Crash()

	e2 := NewEngine(0)
	e2.SetWALDir(dir)
	e2.SetWALNoSync(true)
	reports, err := e2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(reports) != 1 || reports[0].Epochs != epochs {
		t.Fatalf("reports = %+v, want %d recovered epochs", reports, epochs)
	}
	t2, _ := e2.Tenant("shelf")
	if !t2.Last().Equal(at(epochs)) {
		t.Fatalf("recovered clock at %v, want the last acked boundary %v", t2.Last(), at(epochs))
	}
}
