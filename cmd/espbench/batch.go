package main

import (
	"fmt"

	"esp/internal/exp"
)

// runBatch measures the columnar batch path + plan optimizer against the
// row-at-a-time tuple path on the wide workload and writes
// BENCH_batch.json.
func runBatch(bool) error {
	fmt.Println("== batch: columnar execution + plan optimizer vs tuple-at-a-time ==")
	fmt.Println("   same wide deployment, identical output required; wall time only")
	res, err := exp.RunBatchComparison(exp.DefaultBatchConfig())
	if err != nil {
		return err
	}
	fmt.Printf("   %d receptors, %d groups, %d epochs\n", res.Receptors, res.Groups, res.Epochs)
	for _, m := range res.Modes {
		fmt.Printf("   %-6s %10d ns/epoch\n", m.Mode, m.NsPerEpoch)
	}
	fmt.Printf("   speedup %.2fx   (%d output tuples, identical=%v)\n",
		res.Speedup, res.OutputTuples, res.Identical)
	if err := writeJSON("BENCH_batch.json", res); err != nil {
		return err
	}
	fmt.Println("   wrote BENCH_batch.json")
	return nil
}
