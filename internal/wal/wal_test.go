package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"esp/internal/stream"
	"esp/internal/wire"
)

func at(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func reading(sec int, id string, v float64) stream.Tuple {
	return stream.Tuple{Ts: at(sec), Values: []stream.Value{stream.String(id), stream.Float(v)}}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Kind: KindPublish, Receptor: "m0", Tuples: []stream.Tuple{reading(1, "m0", 20.5), reading(2, "m0", 21)}},
		{Kind: KindPublish, Receptor: "", Tuples: nil},
		{Kind: KindCommit, Epoch: at(5)},
		{Kind: KindOutput, Stream: "mote", Epoch: at(5), Tuples: []stream.Tuple{reading(4, "m0", 20.75)}},
	}
	var buf []byte
	for _, r := range cases {
		var err error
		if buf, err = AppendRecord(buf, r); err != nil {
			t.Fatalf("append %v: %v", r.Kind, err)
		}
	}
	for i, want := range cases {
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		re, err := AppendRecord(nil, got)
		if err != nil {
			t.Fatalf("re-encode %d: %v", i, err)
		}
		if !bytes.Equal(re, buf[:n]) {
			t.Fatalf("record %d re-encode differs", i)
		}
		if got.Kind != want.Kind || got.Receptor != want.Receptor || got.Stream != want.Stream ||
			!got.Epoch.Equal(want.Epoch) || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeRecordHostileInputs(t *testing.T) {
	valid, _ := AppendRecord(nil, Record{Kind: KindCommit, Epoch: at(1)})
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:5],
		"torn body":        valid[:len(valid)-3],
		"zero length":      {0, 0, 0, 0, 0, 0, 0, 0},
		"huge length":      {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"flipped crc":      append(append([]byte{}, valid[:4]...), append([]byte{valid[4] ^ 0x40}, valid[5:]...)...),
		"flipped payload":  append(append([]byte{}, valid[:len(valid)-1]...), valid[len(valid)-1]^0x01),
		"unknown kind":     mustRecord(t, 0x7f, nil),
		"commit too short": mustRecord(t, byte(KindCommit), []byte{1, 2, 3}),
	}
	for name, b := range cases {
		if _, _, err := DecodeRecord(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// mustRecord frames an arbitrary body (kind + payload) with a valid CRC.
func mustRecord(t *testing.T, kind byte, payload []byte) []byte {
	t.Helper()
	return appendFrame(nil, append([]byte{kind}, payload...))
}

func openTestLog(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.Dir = dir
	if opts.Source == "" {
		opts.Source = "test"
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// writeEpochs journals pubsPerEpoch publishes then commits, for epochs
// 1..n (boundaries at(1)..at(n)).
func writeEpochs(t *testing.T, l *Log, n, pubsPerEpoch int) {
	t.Helper()
	for e := 1; e <= n; e++ {
		for p := 0; p < pubsPerEpoch; p++ {
			if err := l.Journal("m0", []stream.Tuple{reading(e, "m0", float64(e*10+p))}, nil); err != nil {
				t.Fatalf("journal epoch %d: %v", e, err)
			}
		}
		out := map[string][]stream.Tuple{"mote": {reading(e, "m0", float64(e))}}
		if err := l.Commit(at(e), out); err != nil {
			t.Fatalf("commit epoch %d: %v", e, err)
		}
	}
}

// TestJournalEncodedIdentical pins that journalling a publish's encoded
// tuple bytes verbatim writes the same segment bytes and counts as
// journalling the decoded tuples: the journal's bytes are the wire's.
func TestJournalEncodedIdentical(t *testing.T) {
	pubs := [][]stream.Tuple{
		{reading(1, "m0", 20.5), reading(1, "m0", 21)},
		nil,
		{{Ts: at(2), Values: []stream.Value{stream.Bool(true), stream.Null(), stream.Int(-3), stream.Time(at(9))}}},
	}
	segs := make([][]byte, 2)
	cats := make([]Catalog, 2)
	for i, encoded := range []bool{false, true} {
		dir := t.TempDir()
		l, _ := openTestLog(t, dir, Options{NoSync: true})
		for _, ts := range pubs {
			var err error
			if encoded {
				err = l.JournalEncoded("m0", wire.AppendTuples(nil, ts), nil)
			} else {
				err = l.Journal("m0", ts, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(at(3), nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, JournalSegmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		segs[i], cats[i] = b, l.Catalog()
	}
	if !bytes.Equal(segs[0], segs[1]) {
		t.Fatalf("journal segments differ:\nJournal        %x\nJournalEncoded %x", segs[0], segs[1])
	}
	if cats[0] != cats[1] || cats[1].PublishTuples != 3 {
		t.Fatalf("catalogs differ: %+v vs %+v", cats[0], cats[1])
	}
}

// TestJournalEncodedAllocs is the journal's allocation gate: appending
// an already-encoded publish allocates nothing.
func TestJournalEncodedAllocs(t *testing.T) {
	l, _ := openTestLog(t, t.TempDir(), Options{NoSync: true})
	defer l.Close()
	raw := wire.AppendTuples(nil, []stream.Tuple{reading(1, "m0", 20.5), reading(1, "m0", 21)})
	ran := 0
	then := func() { ran++ }
	if n := testing.AllocsPerRun(200, func() {
		if err := l.JournalEncoded("m0", raw, then); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("JournalEncoded: %v allocs, want 0", n)
	}
	if ran == 0 {
		t.Error("then never ran")
	}
}

func TestLogWriteRecoverClean(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTestLog(t, dir, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh dir recovered %d epochs", len(rec.Epochs))
	}
	writeEpochs(t, l, 5, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := ReadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Completed || cat.Epochs != 5 || cat.PublishRecords != 10 || cat.PublishTuples != 10 ||
		cat.OutputRecords != 5 || cat.StartEpoch != at(1).UnixNano() || cat.EndEpoch != at(5).UnixNano() {
		t.Fatalf("catalog = %+v", cat)
	}

	l2, rec2 := openTestLog(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Epochs) != 5 || !rec2.Last.Equal(at(5)) || rec2.Corruption != "" || len(rec2.Tail) != 0 {
		t.Fatalf("recovery = last %v, %d epochs, tail %d, corruption %q",
			rec2.Last, len(rec2.Epochs), len(rec2.Tail), rec2.Corruption)
	}
	for i, ep := range rec2.Epochs {
		if !ep.Boundary.Equal(at(i+1)) || len(ep.Publishes) != 2 {
			t.Fatalf("epoch %d = %v with %d publishes", i, ep.Boundary, len(ep.Publishes))
		}
		if ep.Publishes[0].Receptor != "m0" || ep.Publishes[0].Count != 1 {
			t.Fatalf("epoch %d publish 0 = %+v", i, ep.Publishes[0])
		}
	}
	if !rec2.ArchivedThrough.Equal(at(5)) {
		t.Fatalf("archived through %v", rec2.ArchivedThrough)
	}
}

func TestLogCrashDiscardsUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	writeEpochs(t, l, 3, 1)
	// Journal two publishes past the last barrier, then crash: they
	// were never fsynced as part of a commit, so recovery must resume
	// at epoch 3 and report (not replay) the tail.
	if err := l.Journal("m0", []stream.Tuple{reading(4, "m0", 40)}, nil); err != nil {
		t.Fatal(err)
	}
	l.Crash()

	l2, rec := openTestLog(t, dir, Options{})
	defer l2.Close()
	if len(rec.Epochs) != 3 || !rec.Last.Equal(at(3)) {
		t.Fatalf("recovered %d epochs, last %v", len(rec.Epochs), rec.Last)
	}
	// The tail publish lived in the bufio buffer the crash dropped, so
	// here it is simply gone; a tail that reached the OS would surface
	// in rec.Tail and be truncated. Either way it must not be replayed.
	for _, ep := range rec.Epochs {
		for _, p := range ep.Publishes {
			ts, _, err := wire.DecodeTuples(p.Raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range ts {
				if tu.Ts.After(at(3)) {
					t.Fatalf("uncommitted reading replayed: %v", tu)
				}
			}
		}
	}
	// Resume exactly once: the next commit is epoch 4.
	if err := l2.Commit(at(3), nil); err == nil {
		t.Fatal("re-committing epoch 3 succeeded")
	}
	if err := l2.Commit(at(4), nil); err != nil {
		t.Fatalf("commit epoch 4 after recovery: %v", err)
	}
}

func TestLogRecoverTruncatesFlippedByte(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	writeEpochs(t, l, 6, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	commits, err := Commits(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 6 {
		t.Fatalf("%d commits", len(commits))
	}
	// Flip one byte just after the 4th barrier: epochs 5-6 must be
	// dropped, 1-4 preserved.
	path := filepath.Join(dir, commits[3].Segment)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[commits[3].End+recHeaderLen+3] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openTestLog(t, dir, Options{})
	defer l2.Close()
	if len(rec.Epochs) != 4 || !rec.Last.Equal(at(4)) {
		t.Fatalf("recovered %d epochs, last %v", len(rec.Epochs), rec.Last)
	}
	if rec.Corruption == "" {
		t.Fatal("corruption not reported")
	}
	if rec.Discarded == 0 {
		t.Fatal("no bytes discarded")
	}
	// The file must physically end at the 4th barrier now.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != commits[3].End {
		t.Fatalf("journal is %d bytes, want %d", info.Size(), commits[3].End)
	}
}

func TestLogRotationEpochAligned(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every commit rotates.
	l, _ := openTestLog(t, dir, Options{SegmentBytes: 64})
	writeEpochs(t, l, 4, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegs(dir, journalPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d journal segments, want >= 3 (rotation never fired)", len(segs))
	}
	// Every rotated (non-tail) segment must end exactly at a barrier.
	commits, err := Commits(dir)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[string]int64{}
	for _, c := range commits {
		ends[c.Segment] = c.End
	}
	for _, seg := range segs[:len(segs)-1] {
		if end, ok := ends[filepath.Base(seg.path)]; !ok || end != seg.size {
			t.Fatalf("segment %s (size %d) does not end at a barrier (%d)", seg.path, seg.size, end)
		}
	}
	l2, rec := openTestLog(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	if len(rec.Epochs) != 4 {
		t.Fatalf("recovered %d epochs across segments", len(rec.Epochs))
	}
}

func TestLogRecoverDuplicatedSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{SegmentBytes: 64})
	writeEpochs(t, l, 3, 1)
	l.Crash()
	// Duplicate segment 1 as the (next) segment 4: its commits repeat
	// earlier epochs, which the monotonicity check must reject.
	src, err := os.ReadFile(filepath.Join(dir, segName(journalPrefix, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(journalPrefix, 4)), src, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openTestLog(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	if len(rec.Epochs) != 3 || !rec.Last.Equal(at(3)) {
		t.Fatalf("recovered %d epochs, last %v", len(rec.Epochs), rec.Last)
	}
	if rec.Corruption == "" {
		t.Fatal("duplicated segment not reported as corruption")
	}
	if _, err := os.Stat(filepath.Join(dir, segName(journalPrefix, 4))); !os.IsNotExist(err) {
		t.Fatal("duplicated segment survived truncation")
	}
}

func TestLogArchiveRegeneratedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	writeEpochs(t, l, 3, 1)
	l.Crash()
	// Simulate the archive lagging the journal: drop the whole archive
	// (it is derivable, so this must be recoverable).
	segs, err := listSegs(dir, archivePrefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg.path); err != nil {
			t.Fatal(err)
		}
	}
	l2, rec := openTestLog(t, dir, Options{})
	if len(rec.Epochs) != 3 {
		t.Fatalf("recovered %d epochs", len(rec.Epochs))
	}
	if !rec.ArchivedThrough.IsZero() {
		t.Fatalf("archived through %v, want zero", rec.ArchivedThrough)
	}
	// Replay regenerates the archive without touching the journal.
	for e := 1; e <= 3; e++ {
		out := map[string][]stream.Tuple{"mote": {reading(e, "m0", float64(e))}}
		if err := l2.ReplayCommit(at(e), out); err != nil {
			t.Fatalf("replay commit %d: %v", e, err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openTestLog(t, dir, Options{})
	defer l3.Close()
	if !rec3.ArchivedThrough.Equal(at(3)) {
		t.Fatalf("regenerated archive reaches %v, want %v", rec3.ArchivedThrough, at(3))
	}
	cat := l3.Catalog()
	if cat.OutputRecords != 3 {
		t.Fatalf("catalog output records = %d", cat.OutputRecords)
	}
}

func TestLogRecoveryEquivalence(t *testing.T) {
	// The same history written with and without a crash+reopen cycle
	// must scan identically: recovery is invisible to later readers.
	a, b := t.TempDir(), t.TempDir()
	la, _ := openTestLog(t, a, Options{})
	writeEpochs(t, la, 6, 2)
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}

	lb, _ := openTestLog(t, b, Options{})
	writeEpochs(t, lb, 4, 2)
	lb.Crash()
	lb2, rec := openTestLog(t, b, Options{})
	if len(rec.Epochs) != 4 {
		t.Fatalf("recovered %d epochs", len(rec.Epochs))
	}
	for e := 5; e <= 6; e++ {
		for p := 0; p < 2; p++ {
			if err := lb2.Journal("m0", []stream.Tuple{reading(e, "m0", float64(e*10+p))}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := lb2.Commit(at(e), map[string][]stream.Tuple{"mote": {reading(e, "m0", float64(e))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb2.Close(); err != nil {
		t.Fatal(err)
	}

	_, recA := openTestLog(t, a, Options{})
	_, recB := openTestLog(t, b, Options{})
	if !reflect.DeepEqual(recA.Epochs, recB.Epochs) {
		t.Fatal("crash+resume history diverges from uninterrupted history")
	}
}

// TestNoSyncRotationNeverSyncs: under NoSync a segment rotation must not
// touch the device either. OnFsync reports the commit barriers only, so
// the file syncs are counted underneath it: one per barrier and per
// rotation of a segment in the durable run, plus one per catalog write
// (at Open and after each rotating commit), and none in the NoSync run.
func TestNoSyncRotationNeverSyncs(t *testing.T) {
	const epochs = 12
	defer func() { syncFile = datasync }()
	run := func(noSync bool) (segSyncs, catSyncs, fsyncs int, cat Catalog) {
		syncFile = func(f *os.File) error {
			if strings.HasSuffix(f.Name(), segSuffix) {
				segSyncs++
			} else {
				catSyncs++
			}
			return datasync(f)
		}
		l, _, err := Open(Options{
			Dir: t.TempDir(), SegmentBytes: 128, NoSync: noSync,
			OnFsync: func(time.Duration) { fsyncs++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= epochs; e++ {
			if err := l.Journal("m0", []stream.Tuple{reading(e, "m0", float64(e))}, nil); err != nil {
				t.Fatal(err)
			}
			out := map[string][]stream.Tuple{"mote": {reading(e, "m0", float64(e))}}
			if err := l.Commit(at(e), out); err != nil {
				t.Fatal(err)
			}
		}
		cat = l.Catalog()
		l.Crash()
		return segSyncs, catSyncs, fsyncs, cat
	}
	syncs, catSyncs, fsyncs, cat := run(false)
	rotations := cat.JournalSegments - 1 + cat.ArchiveSegments - 1
	if rotations < 4 {
		t.Fatalf("only %d rotations at 128-byte segments: the test exercises nothing", rotations)
	}
	if syncs != epochs+rotations || fsyncs != epochs {
		t.Errorf("durable run: %d segment syncs, %d OnFsync calls; want %d barriers + %d rotations, %d",
			syncs, fsyncs, epochs, rotations, epochs)
	}
	if catSyncs < 2 {
		t.Errorf("durable run: %d catalog syncs; want one at Open and one per rotating commit", catSyncs)
	}
	syncs, catSyncs, fsyncs, ncat := run(true)
	if ncat.JournalSegments != cat.JournalSegments || ncat.ArchiveSegments != cat.ArchiveSegments {
		t.Fatalf("NoSync rotated differently: %+v vs %+v", ncat, cat)
	}
	if syncs != 0 || catSyncs != 0 || fsyncs != 0 {
		t.Errorf("NoSync run: %d segment syncs, %d catalog syncs, %d OnFsync calls; want none", syncs, catSyncs, fsyncs)
	}
}

// TestCatalogWriteIsDurable: every catalog write — at Open, after a
// rotating commit, and at Close — syncs the temp file, then renames it
// over the catalog, then syncs the directory. The order is read off the
// sync seams: at the file sync the catalog still holds the old contents,
// and at the directory sync the new ones, with the temp file gone.
func TestCatalogWriteIsDurable(t *testing.T) {
	dir := t.TempDir()
	catalog := filepath.Join(dir, catalogFile)
	tmp := catalog + ".tmp"
	var events []string
	var synced []byte // the temp file's contents at its sync
	defer func() { syncFile, syncDir = datasync, dirSync }()
	syncFile = func(f *os.File) error {
		if f.Name() == tmp {
			var err error
			if synced, err = os.ReadFile(tmp); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(catalog); bytes.Equal(got, synced) {
				events = append(events, "renamed before the file sync")
			}
			events = append(events, "sync file")
		}
		return datasync(f)
	}
	syncDir = func(d string) error {
		// Rotation syncs the directory for its new segments too; a
		// catalog write's directory sync is the one right after its
		// file sync.
		if d == dir && len(events) > 0 && events[len(events)-1] == "sync file" {
			if _, err := os.Stat(tmp); err == nil {
				events = append(events, "dir sync before the rename")
			} else if got, _ := os.ReadFile(catalog); !bytes.Equal(got, synced) {
				events = append(events, "dir sync without the synced catalog in place")
			}
			events = append(events, "sync dir")
		}
		return dirSync(d)
	}
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	opened := len(events)
	for e := 1; e <= 3; e++ {
		if err := l.Journal("m0", []stream.Tuple{reading(e, "m0", float64(e))}, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(at(e), nil); err != nil {
			t.Fatal(err)
		}
	}
	rotated := len(events)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if opened != 2 || rotated <= opened || (rotated-opened)%2 != 0 || len(events) != rotated+2 {
		t.Fatalf("catalog sync events: %d at Open, %d after the rotating commits, %d after Close: %v",
			opened, rotated, len(events), events)
	}
	for i := 0; i < len(events); i += 2 {
		if events[i] != "sync file" || events[i+1] != "sync dir" {
			t.Fatalf("catalog write %d: %v, want [sync file, sync dir]", i/2, events[i:i+2])
		}
	}
	if cat, err := ReadCatalog(dir); err != nil || !cat.Completed || cat.Epochs != 3 {
		t.Fatalf("catalog = %+v, %v", cat, err)
	}
}
