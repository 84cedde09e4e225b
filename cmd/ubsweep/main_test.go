package main

import (
	"testing"

	"ubscache/internal/exp"
	"ubscache/internal/runner"
)

// TestTimingLineLabelsSummedSeconds pins the per-experiment timing line:
// the summed per-run seconds are labelled as a sum over the workers, and
// the sweep's wall time stands beside them.
func TestTimingLineLabelsSummedSeconds(t *testing.T) {
	eo := runner.ExperimentOutcome{Experiment: exp.Experiment{ID: "fig10"}, Seconds: 2.1}
	for _, tc := range []struct {
		workers int
		wall    float64
		want    string
	}{
		{2, 1.07, "(fig10: 2.1s simulated, summed over 2 workers; sweep wall time 1.07s)"},
		{1, 2.15, "(fig10: 2.1s simulated, summed over 1 worker; sweep wall time 2.15s)"},
	} {
		if got := timingLine(eo, tc.workers, tc.wall); got != tc.want {
			t.Errorf("timingLine(%d workers) = %q, want %q", tc.workers, got, tc.want)
		}
	}
}
