package oracle

// Run executes the full differential suite: WindowCases window-algebra
// programs (pane-vs-naive, window-vs-reference), RefCases deployments
// (pipeline-vs-reference), PlanCases paired
// deployments (cql-vs-handbuilt), BatchCases execution-mode pairs
// (batched-vs-tuple), OptCases planning-mode pairs
// (optimized-vs-unoptimized), PartitionCases build-mode pairs
// (partitioned-vs-per-leg), ChaosCases fault-injected deployments
// (chaos-drop-commute), and RecoveryCases crash-recovery differentials
// (recovery-replay-commute). It returns the number of cases
// executed and the first divergence found, minimized — or nil when every
// cross-check agreed. Case i of each family uses seed cfg.Seed+i, so a
// reported Divergence reproduces from its (Check, Seed) pair alone.
func Run(cfg Config) (int, *Divergence) {
	cases := 0
	for i := 0; i < cfg.WindowCases; i++ {
		cases++
		if d := CheckWindowCase(GenWindowCase(cfg.Seed+int64(i)), cfg); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.RefCases; i++ {
		cases++
		if d := CheckDeploymentCase(GenDeploymentCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.PlanCases; i++ {
		cases++
		if d := CheckPlanCase(GenPlanCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.BatchCases; i++ {
		cases++
		if d := CheckBatchCase(GenDeploymentCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.OptCases; i++ {
		cases++
		if d := CheckOptCase(GenPlanCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.PartitionCases; i++ {
		cases++
		if d := CheckPartitionCase(GenPartitionCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.ChaosCases; i++ {
		cases++
		if d := CheckChaosCase(GenDeploymentCase(cfg.Seed + int64(i))); d != nil {
			return cases, d
		}
	}
	for i := 0; i < cfg.RecoveryCases; i++ {
		cases++
		if d := CheckRecoveryCase(cfg.Seed + int64(i)); d != nil {
			return cases, d
		}
	}
	return cases, nil
}
