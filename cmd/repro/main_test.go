package main

import (
	"strings"
	"testing"
)

// TestExperimentSet pins the experiment list: the paper experiments run,
// and the per-feature runners that moved to the benchmark module stay
// gone (re-adding one should be a deliberate edit of this test).
func TestExperimentSet(t *testing.T) {
	var stderr strings.Builder
	if code := realMain([]string{"-exp", "table1", "-quick", "-scales", "1", "-repeats", "1"}, &stderr); code != 0 {
		t.Fatalf("-exp table1 exited %d: %s", code, stderr.String())
	}
	for _, gone := range []string{"parallel", "xadt", "index", "spill", "vector", "optimizer", "durability", "mutation", "concurrent", "crash"} {
		stderr.Reset()
		if code := realMain([]string{"-exp", gone}, &stderr); code != 1 {
			t.Errorf("-exp %s exited %d, want 1", gone, code)
		}
		if !strings.Contains(stderr.String(), "unknown experiment") {
			t.Errorf("-exp %s stderr = %q, want unknown experiment", gone, stderr.String())
		}
	}
}
