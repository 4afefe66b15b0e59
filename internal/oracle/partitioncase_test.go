package oracle

import "testing"

// TestPartitionCasesCoverTheMixes checks the partition family generates
// what it is for: deployments where legs and merges both collapse, where
// only one of them does (an ineligible stage next to eligible ones),
// where nothing does, receptors in several groups, quarantines, and
// collapsed window stages that slide faster than the epoch.
func TestPartitionCasesCoverTheMixes(t *testing.T) {
	cfg := DefaultConfig()
	shapes := make(map[string]int)
	multiGroup, quarantined, subSlide := 0, 0, 0
	for i := 0; i < cfg.PartitionCases; i++ {
		c := GenPartitionCase(cfg.Seed + int64(i))
		r, err := c.run(false)
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		if c.SubSlide && c.Smooth != psNone && c.Merge != pmNone && r.collapsed["leg"] && r.collapsed["merge"] {
			subSlide++
		}
		switch {
		case r.collapsed["leg"] && r.collapsed["merge"]:
			shapes["both"]++
		case r.collapsed["leg"]:
			shapes["legs only"]++
		case r.collapsed["merge"]:
			shapes["merges only"]++
		default:
			shapes["none"]++
		}
		for j := range c.IDs {
			if len(c.Groups[j]) > 1 {
				multiGroup++
			}
			if c.PanicAt[j] > 0 {
				quarantined++
			}
		}
	}
	for _, shape := range []string{"both", "legs only", "merges only"} {
		if shapes[shape] == 0 {
			t.Errorf("no case with collapse shape %q in %d cases: %v", shape, cfg.PartitionCases, shapes)
		}
	}
	if multiGroup == 0 || quarantined == 0 || subSlide == 0 {
		t.Errorf("multi-group receptors: %d, panicking receptors: %d, collapsed sub-epoch slides: %d; want all present", multiGroup, quarantined, subSlide)
	}
}
