package main

import (
	"fmt"
	"time"

	"esp/internal/exp"
)

// runWAL measures write-ahead-log append overhead on the served wide
// workload and boot-recovery time of a large crashed journal, and
// writes BENCH_wal.json.
func runWAL(bool) error {
	fmt.Println("== wal: journalling overhead and crash-recovery time ==")
	cfg := exp.DefaultWALConfig()
	res, err := exp.RunWAL(cfg)
	if err != nil {
		return err
	}
	a := res.Append
	fmt.Printf("   append: %d receptors × %d epochs (%d tuples) served\n",
		a.Receptors, a.Epochs, a.TuplesPublished)
	fmt.Printf("     wal off %8d ns/epoch   append %8d ns/epoch   overhead %+.2f%%  (gate ≤ 15%%)\n",
		a.OffNsPerEpoch, a.AppendNsPerEpoch, 100*a.AppendOverhead)
	fmt.Printf("     durable %8d ns/epoch   overhead %+.2f%%  fsync/commit p50 %s p99 %s  duty %.5f%%\n",
		a.DurableNsPerEpoch, 100*a.DurableOverhead,
		time.Duration(a.Fsync.P50), time.Duration(a.Fsync.P99), 100*a.FsyncDutyCycle)
	fmt.Printf("     journal %0.1f MiB   identical %v\n",
		float64(a.JournalBytes)/(1<<20), a.Identical)
	r := res.Recovery
	fmt.Printf("   recovery: %d motes × %d epochs (%d tuples, %0.1f MiB, %d segments)\n",
		r.Motes, r.Epochs, r.TuplesJournaled, float64(r.JournalBytes)/(1<<20), r.JournalSegments)
	fmt.Printf("     replayed in %s (%d ns/epoch, %.0f tuples/s)   sub-second %v   identical %v\n",
		time.Duration(r.RecoverWallNs), r.NsPerEpoch, r.TuplesPerSec, r.SubSecond, r.Identical)
	if err := writeJSON("BENCH_wal.json", res); err != nil {
		return err
	}
	fmt.Println("   wrote BENCH_wal.json")
	return nil
}
