package core

import "testing"

// regressionSeed is a previously-failing random-DAG seed (once a lost write
// under a node-shared cache, an extension since removed), pinned here and
// under the validator in TestValidatorCleanRuns.
const regressionSeed = 7212503127583136179

// TestRandomDAGRegressions runs regressionSeed under each cache policy, so a
// coherence regression in any policy path trips deterministically rather
// than waiting for testing/quick to rediscover the seed.
func TestRandomDAGRegressions(t *testing.T) {
	for ci, dc := range dagConfigs {
		t.Run(dc.name, func(t *testing.T) {
			if !runRandomDAG(t, regressionSeed, ci) {
				t.Fatalf("seed %d (pol=%v) produced wrong cell values", regressionSeed, dc.pol)
			}
		})
	}
}
