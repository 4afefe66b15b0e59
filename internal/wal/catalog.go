package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// catalogFile is the catalog's filename inside a log directory.
const catalogFile = "catalog.json"

// Catalog summarises what a log directory holds: which source produced
// it, the committed epoch range, record counts, and whether the writer
// closed cleanly. It is advisory — the segments are ground truth and a
// recovery scan rebuilds it — but it lets an operator (or a future
// historical-query planner) answer "what is in here?" without reading
// the segments. Completed=false on disk means the writer is live or
// died: the recovery path.
type Catalog struct {
	// Source names the producer (the tenant name).
	Source string `json:"source"`
	// StartEpoch and EndEpoch bound the committed epochs (UnixNano;
	// zero when no epoch has committed).
	StartEpoch int64 `json:"start_epoch"`
	EndEpoch   int64 `json:"end_epoch"`
	// Epochs counts committed barriers.
	Epochs int64 `json:"epochs"`
	// PublishRecords/PublishTuples count journalled raw readings.
	PublishRecords int64 `json:"publish_records"`
	PublishTuples  int64 `json:"publish_tuples"`
	// OutputRecords/OutputTuples count archived cleaned output.
	OutputRecords int64 `json:"output_records"`
	OutputTuples  int64 `json:"output_tuples"`
	// JournalSegments and ArchiveSegments count segment files.
	JournalSegments int `json:"journal_segments"`
	ArchiveSegments int `json:"archive_segments"`
	// Completed reports a clean close (drain): false on disk while the
	// writer is live, and after a crash.
	Completed bool `json:"completed"`
}

// ReadCatalog loads a log directory's catalog.
func ReadCatalog(dir string) (Catalog, error) {
	var c Catalog
	b, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("wal: catalog: %w", err)
	}
	return c, nil
}

// writeCatalog atomically and durably replaces the catalog file: the
// new contents are written to a temp name and synced, the temp file is
// renamed over the catalog, and the directory is synced, so a crash at
// any point leaves the old catalog or the new one, never a torn or empty
// file, and a synced rename is not undone by a machine crash. Under
// noSync both syncs are skipped, as the commit barrier's is.
func writeCatalog(dir string, c Catalog, noSync bool) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, catalogFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if !noSync {
		if err := syncFile(f); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, catalogFile)); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}
