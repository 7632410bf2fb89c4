package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/testutil"
)

// TestDifferentialSmoke is the short-budget differential run that make ci
// executes under -race: a dozen random DTDs, each checked across the full
// mapping × DOP × fast-path × index matrix.
func TestDifferentialSmoke(t *testing.T) {
	seed := testutil.Seed(t, 1)
	sum, err := Run(Options{
		Seed:         seed,
		Iters:        12,
		ArtifactPath: filepath.Join(t.TempDir(), "artifact.txt"),
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d divergences, first: %s (%s)",
			len(sum.Divergences), sum.Divergences[0], testutil.ReproLine(t, seed))
	}
	if sum.Cells == 0 {
		t.Fatal("no matrix cells executed")
	}
	t.Logf("%d iterations, %d cases, %d cells, all identical", sum.Iters, sum.Cases, sum.Cells)
}

// TestDifferentialCrashAxis runs the matrix with the crash-recovery axis
// on: each iteration's documents are also loaded through a WAL on a
// fault-injecting in-memory filesystem, crashed at a seeded point,
// recovered, resumed, and the recovered store must agree with the
// uninterrupted one — byte-for-byte on the heaps and row-for-row on
// every XORator query.
func TestDifferentialCrashAxis(t *testing.T) {
	seed := testutil.Seed(t, 1)
	sum, err := Run(Options{
		Seed:         seed,
		Iters:        8,
		Crash:        true,
		ArtifactPath: filepath.Join(t.TempDir(), "artifact.txt"),
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d divergences, first: %s (%s)",
			len(sum.Divergences), sum.Divergences[0], testutil.ReproLine(t, seed))
	}
	t.Logf("%d iterations, %d cells with recovered stores, all identical", sum.Iters, sum.Cells)
}

// TestDifferentialCostModelAxis reruns the matrix with the cost-model
// axis on: every query also executes under the greedy pre-statistics
// planner, with statistics invalidated, and with statistics forced
// stale under DisableAutoStats. Join orders may differ across those
// cells, but the rows must not: multiset-identical in general, byte-
// identical for the fully-ordered three-way-join cases.
func TestDifferentialCostModelAxis(t *testing.T) {
	seed := testutil.Seed(t, 1)
	sum, err := Run(Options{
		Seed:         seed,
		Iters:        8,
		CostModel:    true,
		ArtifactPath: filepath.Join(t.TempDir(), "artifact.txt"),
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d divergences, first: %s (%s)",
			len(sum.Divergences), sum.Divergences[0], testutil.ReproLine(t, seed))
	}
	t.Logf("%d iterations, %d cells including cost-model axis, all identical", sum.Iters, sum.Cells)
}

// TestDifferentialMemBudgetAxis reruns the matrix with a tiny per-query
// memory budget: every query additionally executes with its blocking
// operators forced through the spill paths (serially and at DOP), and
// must still return exactly the unlimited-memory rows on both mappings.
func TestDifferentialMemBudgetAxis(t *testing.T) {
	seed := testutil.Seed(t, 1)
	sum, err := Run(Options{
		Seed:         seed,
		Iters:        8,
		MemBudget:    4096,
		ArtifactPath: filepath.Join(t.TempDir(), "artifact.txt"),
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d divergences, first: %s (%s)",
			len(sum.Divergences), sum.Divergences[0], testutil.ReproLine(t, seed))
	}
	t.Logf("%d iterations, %d cells including budget axis, all identical", sum.Iters, sum.Cells)
}

// TestDifferentialDetectsDivergence proves the harness has teeth: with the
// Gather's morsel reordering disabled (a deliberately corrupted config),
// parallel cells emit rows in arrival order and the run must report a
// divergence plus a seed-replayable failure artifact.
func TestDifferentialDetectsDivergence(t *testing.T) {
	exec.DisableGatherReorder = true
	defer func() { exec.DisableGatherReorder = false }()
	seed := testutil.Seed(t, 1)
	art := filepath.Join(t.TempDir(), "artifact.txt")
	sum, err := Run(Options{
		Seed:         seed,
		Iters:        40,
		Docs:         4,
		LoadRepeat:   12,
		FailFast:     true,
		ArtifactPath: art,
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) == 0 {
		t.Fatalf("sabotaged Gather reorder went undetected (%s)", testutil.ReproLine(t, seed))
	}
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatalf("failure artifact not written: %v", err)
	}
	for _, want := range []string{"# replay: go run ./cmd/repro -exp difftest -seed", "--- DTD ---", "--- document 1 of"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
	t.Logf("detected: %s", sum.Divergences[0])
}
