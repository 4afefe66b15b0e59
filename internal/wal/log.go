package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"esp/internal/stream"
	"esp/internal/telemetry"
	"esp/internal/wire"
)

// DefaultSegmentBytes is the rotation threshold: a segment that crosses
// it is closed at the next commit barrier. A variable so crash-injection
// harnesses can force multi-segment journals out of small workloads.
var DefaultSegmentBytes int64 = 4 << 20

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing). One directory
	// per producer.
	Dir string
	// Source names the producer in the catalog (the tenant name).
	Source string
	// SegmentBytes is the rotation threshold (default
	// DefaultSegmentBytes). Rotation happens only at commit barriers,
	// keeping segments epoch-aligned.
	SegmentBytes int64
	// NoSync skips the device syncs of a Commit — the barrier's
	// fdatasync and those of a segment rotation — and the file and
	// directory syncs of every catalog write, while still handing the
	// committed records to the OS, so they survive a process crash but
	// not a machine crash. Only for tests and the bench's overhead
	// decomposition — it voids the durability contract.
	NoSync bool
	// Registry, when non-nil, receives the wal_* counters and the
	// fsync latency histogram.
	Registry *telemetry.Registry
	// OnFsync, when non-nil, is called after each commit-barrier
	// fdatasync with its duration — the hook the serving layer uses to
	// attribute fsync time to a traced request. Never called under
	// NoSync. Runs on the committing goroutine; keep it cheap.
	OnFsync func(time.Duration)
}

// Log is one producer's journal + archive + catalog. Journal is safe
// for concurrent use; Commit, ReplayCommit, and Close are expected
// from a single owner (the tenant actor) but are serialized anyway.
type Log struct {
	// immutable after Open
	dir      string
	segBytes int64
	noSync   bool
	onFsync  func(time.Duration)

	// telemetry (nil-safe when no registry was given)
	mRecords   *telemetry.Counter
	mTuples    *telemetry.Counter
	mCommits   *telemetry.Counter
	mBytes     *telemetry.Counter
	mOutputs   *telemetry.Counter
	mRotations *telemetry.Counter
	mFsync     *telemetry.Histogram

	mu       sync.Mutex
	closed   bool
	journal  *segWriter
	archive  *segWriter
	cat      Catalog
	last     time.Time // last committed barrier
	hasLast  bool
	archived time.Time // last epoch with archived output
	hasArch  bool
	scratch  []byte             // record body (or its head) scratch, reused
	enc      []byte             // Journal's tuple-encoding scratch, reused
	hdr      [recHeaderLen]byte // record header scratch: a field, so it never escapes
}

// segWriter appends framed records to a sequence of segment files.
type segWriter struct {
	dir    string
	prefix string
	seq    int
	f      *os.File
	w      *bufio.Writer
	size   int64
}

// openSeg opens segment seq for append, creating it (with header) when
// missing. size must be the current on-disk size (0 for new).
func openSeg(dir, prefix string, seq int, size int64) (*segWriter, error) {
	path := filepath.Join(dir, segName(prefix, seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	sw := &segWriter{dir: dir, prefix: prefix, seq: seq, f: f, w: bufio.NewWriterSize(f, 1<<16), size: size}
	if size == 0 {
		if _, err := sw.w.Write(segHeader[:]); err != nil {
			f.Close()
			return nil, err
		}
		sw.size = int64(len(segHeader))
	}
	return sw, nil
}

func (sw *segWriter) write(rec []byte) error {
	n, err := sw.w.Write(rec)
	sw.size += int64(n)
	return err
}

// syncFile is datasync; tests count the device syncs through it.
var syncFile = datasync

func (sw *segWriter) sync() error {
	if err := sw.w.Flush(); err != nil {
		return err
	}
	return syncFile(sw.f)
}

func (sw *segWriter) close() error {
	if err := sw.sync(); err != nil {
		sw.f.Close()
		return err
	}
	return sw.f.Close()
}

// syncDir is dirSync; tests observe the directory syncs through it.
var syncDir = dirSync

// dirSync fsyncs a directory so renames, creates, and removes in it are
// durable.
func dirSync(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open scans an existing log directory (truncating any invalid or
// uncommitted tail back to the last commit barrier), reopens it for
// append, and returns the committed history for replay. On a fresh
// directory the returned Recovery is empty. The caller owns Close.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	js, err := scanJournal(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	as, err := scanArchive(opts.Dir, js.rec.Last, js.good.seq > 0)
	if err != nil {
		return nil, nil, err
	}
	dropped, err := truncate(opts.Dir, journalPrefix, js.good)
	if err != nil {
		return nil, nil, err
	}
	js.rec.Discarded = dropped
	if _, err := truncate(opts.Dir, archivePrefix, as.good); err != nil {
		return nil, nil, err
	}
	js.rec.ArchivedThrough = as.through

	l := &Log{
		dir:      opts.Dir,
		segBytes: opts.SegmentBytes,
		noSync:   opts.NoSync,
		onFsync:  opts.OnFsync,
		last:     js.rec.Last,
		hasLast:  js.good.seq > 0,
		archived: as.through,
		hasArch:  as.lastSeq > 0,
	}
	if reg := opts.Registry; reg != nil {
		l.mRecords = reg.Counter("wal_publish_records")
		l.mTuples = reg.Counter("wal_publish_tuples")
		l.mCommits = reg.Counter("wal_commits")
		l.mBytes = reg.Counter("wal_bytes")
		l.mOutputs = reg.Counter("wal_output_records")
		l.mRotations = reg.Counter("wal_rotations")
		l.mFsync = reg.Histogram("wal_fsync_ns")
	}

	jseq, jsize := 1, int64(0)
	if js.lastSeq > 0 {
		jseq, jsize = js.lastSeq, js.good.end
	}
	aseq, asize := 1, int64(0)
	if as.lastSeq > 0 {
		aseq, asize = as.lastSeq, as.good.end
	}
	if l.journal, err = openSeg(opts.Dir, journalPrefix, jseq, jsize); err != nil {
		return nil, nil, err
	}
	if l.archive, err = openSeg(opts.Dir, archivePrefix, aseq, asize); err != nil {
		l.journal.f.Close()
		return nil, nil, err
	}

	l.cat = js.counts
	l.cat.OutputRecords = as.counts.OutputRecords
	l.cat.OutputTuples = as.counts.OutputTuples
	l.cat.Source = opts.Source
	l.cat.JournalSegments = jseq
	l.cat.ArchiveSegments = aseq
	// Mark the catalog live (Completed=false) immediately: a crash
	// from here on is detectable from the catalog alone. The catalog
	// write's directory sync also makes the truncation and the new
	// segments durable.
	if err := writeCatalog(opts.Dir, l.cat, l.noSync); err != nil {
		l.journal.f.Close()
		l.archive.f.Close()
		return nil, nil, err
	}
	return l, &js.rec, nil
}

// Journal appends one publish record, encoding ts into the log's
// scratch buffer and handing it to JournalEncoded's write path. The
// record is buffered — durable at the next Commit, which is the ack
// contract: a publish ack means "journalled", an advance ack means
// "durable through this epoch". When then is non-nil it runs under the
// log's lock after a successful append, letting the caller order an
// in-memory publish identically to the journal (concurrent publishers
// to one receptor would otherwise race journal order vs. channel
// order, and replay would not be byte-identical).
func (l *Log) Journal(receptor string, ts []stream.Tuple, then func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc = wire.AppendTuples(l.enc[:0], ts)
	return l.journalLocked(receptor, l.enc, then)
}

// JournalEncoded is Journal for a tuple list that is already encoded:
// tuples must be a counted tuple list as wire.AppendTuples writes it —
// a decoded publish frame's Raw bytes — and is written into the record
// verbatim, without a re-encode. Because the wire decoder accepts only
// canonical bytes, the record is byte-identical to the one Journal
// writes for the decoded tuples. tuples is not retained.
func (l *Log) JournalEncoded(receptor string, tuples []byte, then func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journalLocked(receptor, tuples, then)
}

// journalLocked is the single publish-record write path.
func (l *Log) journalLocked(receptor string, tuples []byte, then func()) error {
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	n, _, err := wire.Uvarint(tuples)
	if err != nil {
		return fmt.Errorf("wal: publish tuple list: %w", err)
	}
	l.scratch = append(l.scratch[:0], byte(KindPublish))
	l.scratch = appendName(l.scratch, receptor)
	if err := l.writeRecord(l.journal, l.scratch, tuples); err != nil {
		return err
	}
	l.cat.PublishRecords++
	l.cat.PublishTuples += int64(n)
	l.mRecords.Add(1)
	l.mTuples.Add(int64(n))
	if then != nil {
		then()
	}
	return nil
}

// Commit writes the epoch's cleaned output to the archive, appends the
// commit barrier to the journal, and makes the journal durable
// (fdatasync; under NoSync, written to the file) — the durability point
// the advance ack stands on.
// Segments that crossed the size threshold rotate afterwards, so
// segment boundaries are always epoch boundaries. outputs maps stream
// name → the epoch's cleaned tuples; empty streams are skipped.
func (l *Log) Commit(epoch time.Time, outputs map[string][]stream.Tuple) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.hasLast && !epoch.After(l.last) {
		return fmt.Errorf("wal: commit %v is not after last barrier %v", epoch, l.last)
	}
	if err := l.archiveEpochLocked(epoch, outputs); err != nil {
		return err
	}
	l.scratch = l.scratch[:0]
	l.scratch = append(l.scratch, byte(KindCommit))
	l.scratch = binary.BigEndian.AppendUint64(l.scratch, uint64(epoch.UnixNano()))
	if err := l.writeRecord(l.journal, l.scratch, nil); err != nil {
		return err
	}
	t0 := time.Now()
	if err := l.settleLocked(l.journal); err != nil {
		return err
	}
	if !l.noSync {
		d := time.Since(t0)
		l.mFsync.Observe(d)
		if l.onFsync != nil {
			l.onFsync(d)
		}
	}
	l.last, l.hasLast = epoch, true
	l.archived, l.hasArch = epoch, true
	if l.cat.Epochs == 0 {
		l.cat.StartEpoch = epoch.UnixNano()
	}
	l.cat.Epochs++
	l.cat.EndEpoch = epoch.UnixNano()
	l.mCommits.Add(1)
	return l.maybeRotateLocked()
}

// ReplayCommit re-records one recovered epoch's regenerated output in
// the archive when the crash lost it. The journal is untouched (its
// barrier already exists) and nothing is fsynced — the archive is
// derivable, so its durability is restored lazily.
func (l *Log) ReplayCommit(epoch time.Time, outputs map[string][]stream.Tuple) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.hasArch && !epoch.After(l.archived) {
		return nil // survived the crash; already archived
	}
	if err := l.archiveEpochLocked(epoch, outputs); err != nil {
		return err
	}
	l.archived, l.hasArch = epoch, true
	return nil
}

// archiveEpochLocked appends one epoch's output records and its archive
// barrier, in sorted stream order for determinism.
func (l *Log) archiveEpochLocked(epoch time.Time, outputs map[string][]stream.Tuple) error {
	names := make([]string, 0, len(outputs))
	for name, ts := range outputs {
		if len(ts) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		l.scratch = l.scratch[:0]
		l.scratch = append(l.scratch, byte(KindOutput))
		l.scratch = appendName(l.scratch, name)
		l.scratch = binary.BigEndian.AppendUint64(l.scratch, uint64(epoch.UnixNano()))
		l.scratch = wire.AppendTuples(l.scratch, outputs[name])
		if err := l.writeRecord(l.archive, l.scratch, nil); err != nil {
			return err
		}
		l.cat.OutputRecords++
		l.cat.OutputTuples += int64(len(outputs[name]))
		l.mOutputs.Add(1)
	}
	l.scratch = l.scratch[:0]
	l.scratch = append(l.scratch, byte(KindCommit))
	l.scratch = binary.BigEndian.AppendUint64(l.scratch, uint64(epoch.UnixNano()))
	return l.writeRecord(l.archive, l.scratch, nil)
}

// writeRecord frames and appends one record whose body is head followed
// by tail — two slices, so a publish's tuple bytes go from the caller's
// buffer into the segment's without first being copied behind the
// record's kind and name.
func (l *Log) writeRecord(sw *segWriter, head, tail []byte) error {
	n := len(head) + len(tail)
	if n > MaxRecord {
		return fmt.Errorf("wal: record body %d bytes exceeds %d", n, MaxRecord)
	}
	binary.BigEndian.PutUint32(l.hdr[:], uint32(n))
	binary.BigEndian.PutUint32(l.hdr[4:], crc32.Update(crc32.Checksum(head, crcTable), crcTable, tail))
	for _, b := range [...][]byte{l.hdr[:], head, tail} {
		if err := sw.write(b); err != nil {
			return err
		}
	}
	l.mBytes.Add(int64(recHeaderLen + n))
	return nil
}

// settleLocked hands sw's buffered records to the OS — so they survive
// a process crash — and, unless NoSync, to the device.
func (l *Log) settleLocked(sw *segWriter) error {
	if l.noSync {
		return sw.w.Flush()
	}
	return sw.sync()
}

// rotateLocked settles and closes sw's current segment and opens the
// next.
func (l *Log) rotateLocked(sw *segWriter) error {
	if err := l.settleLocked(sw); err != nil {
		return err
	}
	if err := sw.f.Close(); err != nil {
		return err
	}
	next, err := openSeg(sw.dir, sw.prefix, sw.seq+1, 0)
	if err != nil {
		return err
	}
	*sw = *next
	if l.noSync {
		return nil
	}
	return syncDir(sw.dir)
}

// maybeRotateLocked rotates any segment past the size threshold. Called
// only at commit barriers.
func (l *Log) maybeRotateLocked() error {
	rotated := false
	if l.journal.size >= l.segBytes {
		if err := l.rotateLocked(l.journal); err != nil {
			return err
		}
		l.cat.JournalSegments = l.journal.seq
		l.mRotations.Add(1)
		rotated = true
	}
	if l.archive.size >= l.segBytes {
		if err := l.rotateLocked(l.archive); err != nil {
			return err
		}
		l.cat.ArchiveSegments = l.archive.seq
		l.mRotations.Add(1)
		rotated = true
	}
	if rotated {
		return writeCatalog(l.dir, l.cat, l.noSync)
	}
	return nil
}

// Close flushes and syncs both files and marks the catalog completed —
// the clean-shutdown stamp a later Open distinguishes from a crash.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.journal.close()
	if err2 := l.archive.close(); err == nil {
		err = err2
	}
	if err != nil {
		return err
	}
	l.cat.Completed = true
	return writeCatalog(l.dir, l.cat, l.noSync)
}

// Crash abandons the log the way a process kill would: file handles
// close without flushing the userspace buffers, and the catalog keeps
// its live (Completed=false) stamp. Everything fsynced — committed
// epochs — survives; buffered tail bytes are lost. Test support for
// the crash-recovery harnesses.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.journal.f.Close()
	l.archive.f.Close()
}

// Catalog snapshots the live catalog.
func (l *Log) Catalog() Catalog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cat
}

// Last reports the last committed barrier (zero time when none).
func (l *Log) Last() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Dir reports the log directory.
func (l *Log) Dir() string { return l.dir }
