package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Segment filename prefixes. Sequence numbers are contiguous from 1; a
// gap is treated as corruption (the scan stops before it).
const (
	journalPrefix = "wal-"
	archivePrefix = "arc-"
	segSuffix     = ".seg"
)

func segName(prefix string, seq int) string {
	return fmt.Sprintf("%s%08d%s", prefix, seq, segSuffix)
}

// Publish is one journalled publish: the receptor it targeted and its
// readings in append order, still encoded. Raw is the record's counted
// tuple list as wire.AppendTuples writes it, checked by the scan under
// DecodeRecord's rules, and Count its tuple count. Raw aliases the
// segment bytes the scan read, so a recovered history costs its journal
// bytes, not its decoded tuples; replay decodes each record into reused
// scratch (wire.Decoder).
type Publish struct {
	Receptor string
	Raw      []byte
	Count    int
}

// Epoch is one committed epoch: its barrier boundary and every publish
// journalled since the previous barrier, in order.
type Epoch struct {
	Boundary  time.Time
	Publishes []Publish
}

// Recovery is what a scan of an existing log directory found: the
// committed history to replay, plus diagnostics about what the crash
// (if any) cost. Open returns it alongside the reopened log.
type Recovery struct {
	// Epochs is the committed history in commit order. Replaying these
	// publishes and boundaries through the tenant's processor rebuilds
	// its state exactly (the replay-commute property).
	Epochs []Epoch
	// Last is the last committed barrier (zero when none committed).
	Last time.Time
	// Tail is the valid publishes journalled after the last barrier.
	// They were never acked as durable (durability is the commit
	// fsync), so recovery discards them: clients re-send everything
	// after the last committed epoch.
	Tail []Publish
	// ArchivedThrough is the last epoch whose cleaned output survived
	// in the archive; replay regenerates output for later committed
	// epochs (the archive is synced lazily, so it may trail the
	// journal after a crash).
	ArchivedThrough time.Time
	// Corruption describes why the journal scan stopped before the
	// physical end of the log ("" when the log was clean). The scan
	// stops at the last valid record; everything after — including any
	// later segments — is discarded by truncation.
	Corruption string
	// Discarded is how many journal bytes truncation dropped (torn
	// tail, corrupt records, uncommitted publishes, later segments).
	Discarded int64
}

// Empty reports whether the scan found no committed history.
func (r *Recovery) Empty() bool { return r == nil || len(r.Epochs) == 0 }

// segFile is one on-disk segment.
type segFile struct {
	path string
	seq  int
	size int64
}

// listSegs returns dir's prefix-matching segments in sequence order.
func listSegs(dir, prefix string) ([]segFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segFile
	for _, ent := range ents {
		name := ent.Name()
		var seq int
		if _, err := fmt.Sscanf(name, prefix+"%08d"+segSuffix, &seq); err != nil || segName(prefix, seq) != name {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segFile{path: filepath.Join(dir, name), seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// scanPos is a valid resume point: the segment and offset right after
// the last good barrier.
type scanPos struct {
	seq int   // 0 = no barrier anywhere (truncate to nothing)
	end int64 // offset just past the barrier record
}

// journalScan is the raw result of scanning the journal segments.
type journalScan struct {
	segs    []segFile
	rec     Recovery
	good    scanPos // last commit barrier
	total   int64   // total journal bytes on disk
	counts  Catalog // publish/epoch counts of the surviving history
	lastSeq int     // highest surviving segment sequence (0 = none)

	// In-flight state: publishes since the last barrier, and the
	// receptor names seen so far (one string per receptor, not per
	// record).
	pending       []Publish
	pendingTuples int64
	hasCommit     bool
	names         map[string]string
}

// scanJournal reads every journal segment in order, stopping at the
// first invalid byte and collecting the committed history before it.
func scanJournal(dir string) (*journalScan, error) {
	segs, err := listSegs(dir, journalPrefix)
	if err != nil {
		return nil, err
	}
	js := &journalScan{segs: segs}
	expect := 1
	for _, seg := range segs {
		js.total += seg.size
		if seg.seq != expect {
			js.rec.Corruption = fmt.Sprintf("journal segment gap: found seq %d, want %d", seg.seq, expect)
			break
		}
		expect++
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		if !js.scanSegment(b, filepath.Base(seg.path), seg.seq) {
			break
		}
	}
	js.finish()
	return js, nil
}

// scanSegment scans one journal segment's bytes, header included, into
// the history; it reports false when it stopped at corruption (recorded
// in rec.Corruption). Publishes keep aliasing b.
func (js *journalScan) scanSegment(b []byte, name string, seq int) bool {
	if len(b) < len(segHeader) || !bytes.Equal(b[:len(segHeader)], segHeader[:]) {
		js.rec.Corruption = fmt.Sprintf("%s: bad segment header", name)
		return false
	}
	off := int64(len(segHeader))
	for int(off) < len(b) {
		r, n, err := parseRecord(b[off:])
		if err != nil {
			js.rec.Corruption = fmt.Sprintf("%s@%d: %v", name, off, err)
			return false
		}
		switch r.kind {
		case KindPublish:
			js.pending = append(js.pending, Publish{Receptor: js.name(r.name), Raw: r.tuples, Count: r.count})
			js.pendingTuples += int64(r.count)
		case KindCommit:
			if js.hasCommit && !r.epoch.After(js.rec.Last) {
				js.rec.Corruption = fmt.Sprintf("%s@%d: non-monotonic commit %v (last %v)",
					name, off, r.epoch, js.rec.Last)
				return false
			}
			js.hasCommit = true
			js.rec.Epochs = append(js.rec.Epochs, Epoch{Boundary: r.epoch, Publishes: js.pending})
			js.rec.Last = r.epoch
			js.counts.Epochs++
			js.counts.PublishRecords += int64(len(js.pending))
			js.counts.PublishTuples += js.pendingTuples
			js.pending, js.pendingTuples = nil, 0
			js.good = scanPos{seq: seq, end: off + int64(n)}
		default:
			js.rec.Corruption = fmt.Sprintf("%s@%d: unexpected %v record in journal", name, off, r.kind)
			return false
		}
		off += int64(n)
	}
	return true
}

// name returns a receptor name as a string shared by every record that
// names it.
func (js *journalScan) name(b []byte) string {
	if s, ok := js.names[string(b)]; ok {
		return s
	}
	if js.names == nil {
		js.names = make(map[string]string)
	}
	s := string(b)
	js.names[s] = s
	return s
}

// finish closes the scan: the publishes after the last barrier are the
// tail, and the catalog's epoch range is the surviving history's.
func (js *journalScan) finish() {
	js.rec.Tail = js.pending
	if js.good.seq > 0 {
		js.counts.StartEpoch = js.rec.Epochs[0].Boundary.UnixNano()
		js.counts.EndEpoch = js.rec.Last.UnixNano()
		js.lastSeq = js.good.seq
	}
}

// archiveScan is the raw result of scanning the archive segments
// against an already-scanned journal.
type archiveScan struct {
	good    scanPos
	counts  Catalog // output record/tuple counts of the surviving archive
	through time.Time
	lastSeq int
}

// scanArchive validates the archive against the journal's last
// committed barrier: output records past journalLast belong to an
// uncommitted epoch and are dropped, as is anything after the first
// invalid byte. An epoch's outputs only count once its own archive
// barrier is seen — a crash mid-epoch drops the partial outputs and
// replay regenerates them.
func scanArchive(dir string, journalLast time.Time, hasJournal bool) (*archiveScan, error) {
	segs, err := listSegs(dir, archivePrefix)
	if err != nil {
		return nil, err
	}
	as := &archiveScan{}
	var pendRecs, pendTuples int64
	expect := 1
	hasCommit := false
scan:
	for _, seg := range segs {
		if seg.seq != expect {
			break
		}
		expect++
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		if len(b) < len(segHeader) || !bytes.Equal(b[:len(segHeader)], segHeader[:]) {
			break
		}
		off := int64(len(segHeader))
		for int(off) < len(b) {
			r, n, err := parseRecord(b[off:])
			if err != nil {
				break scan
			}
			switch r.kind {
			case KindOutput:
				pendRecs++
				pendTuples += int64(r.count)
			case KindCommit:
				if hasCommit && !r.epoch.After(as.through) {
					break scan
				}
				if !hasJournal || r.epoch.After(journalLast) {
					break scan
				}
				hasCommit = true
				as.through = r.epoch
				as.counts.OutputRecords += pendRecs
				as.counts.OutputTuples += pendTuples
				pendRecs, pendTuples = 0, 0
				as.good = scanPos{seq: seg.seq, end: off + int64(n)}
			default:
				break scan
			}
			off += int64(n)
		}
	}
	if as.good.seq > 0 {
		as.lastSeq = as.good.seq
	}
	return as, nil
}

// truncate drops everything after pos: later segments are removed and
// the segment holding pos is cut at pos.end. pos.seq == 0 removes all
// prefix-matching segments. Returns the byte count dropped.
func truncate(dir, prefix string, pos scanPos) (int64, error) {
	segs, err := listSegs(dir, prefix)
	if err != nil {
		return 0, err
	}
	var dropped int64
	for _, seg := range segs {
		switch {
		case seg.seq < pos.seq:
		case seg.seq == pos.seq:
			if seg.size > pos.end {
				if err := os.Truncate(seg.path, pos.end); err != nil {
					return dropped, err
				}
				dropped += seg.size - pos.end
			}
		default:
			if err := os.Remove(seg.path); err != nil {
				return dropped, err
			}
			dropped += seg.size
		}
	}
	if dropped > 0 {
		if err := syncDir(dir); err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Segment names one on-disk journal segment (test support).
type Segment struct {
	Name string // filename (not path)
	Seq  int
	Size int64
}

// JournalSegments lists dir's journal segments in sequence order. Test
// support for crash-injection harnesses.
func JournalSegments(dir string) ([]Segment, error) {
	segs, err := listSegs(dir, journalPrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[i] = Segment{Name: filepath.Base(s.path), Seq: s.seq, Size: s.size}
	}
	return out, nil
}

// JournalSegmentName builds the filename of journal segment seq — what a
// duplicated-segment injector names its copy.
func JournalSegmentName(seq int) string { return segName(journalPrefix, seq) }

// RecordPos locates one record inside a segment file (test support).
type RecordPos struct {
	Start, End int64 // byte extent within the file
	Kind       Kind
}

// SegmentRecords walks one segment file, listing its valid records in
// order and stopping quietly at the first invalid byte. Test support
// for injectors that need record boundaries to aim a mutation at.
func SegmentRecords(path string) ([]RecordPos, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(segHeader) || !bytes.Equal(b[:len(segHeader)], segHeader[:]) {
		return nil, nil
	}
	var out []RecordPos
	off := int64(len(segHeader))
	for int(off) < len(b) {
		r, n, err := parseRecord(b[off:])
		if err != nil {
			break
		}
		out = append(out, RecordPos{Start: off, End: off + int64(n), Kind: r.kind})
		off += int64(n)
	}
	return out, nil
}

// CommitPos locates one commit barrier in a journal: the segment file
// holding it, the offset just past its record, and its boundary. Test
// support for crash-injection harnesses that need to predict how much
// history survives a mutation at a given byte position.
type CommitPos struct {
	Segment string // segment filename (not path)
	End     int64  // offset just past the commit record
	Epoch   time.Time
}

// Commits scans a journal and lists its commit barriers in order,
// stopping quietly at the first invalid byte.
func Commits(dir string) ([]CommitPos, error) {
	js, err := scanJournal(dir)
	if err != nil {
		return nil, err
	}
	out := make([]CommitPos, 0, len(js.rec.Epochs))
	// Re-derive positions: walk again recording each barrier. Cheaper
	// to carry them out of scanJournal, but this keeps the scanner's
	// hot path free of test-only bookkeeping.
	segs := js.segs
	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		if len(b) < len(segHeader) || !bytes.Equal(b[:len(segHeader)], segHeader[:]) {
			break
		}
		off := int64(len(segHeader))
		for int(off) < len(b) {
			r, n, err := parseRecord(b[off:])
			if err != nil {
				break
			}
			if r.kind == KindCommit {
				out = append(out, CommitPos{Segment: filepath.Base(seg.path), End: off + int64(n), Epoch: r.epoch})
			}
			off += int64(n)
		}
	}
	if len(out) > len(js.rec.Epochs) {
		out = out[:len(js.rec.Epochs)] // barriers past the corruption point don't count
	}
	return out, nil
}
