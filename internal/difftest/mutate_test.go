package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/plan"
	"repro/internal/testutil"
)

// TestMutationDifferentialSmoke runs short random mutation histories —
// SQL DML, document add/remove/replace, fragment splices — against the
// Hybrid/XORator/durable triplet and requires every checked cell to
// agree, including the periodic kill-and-recover byte comparison.
func TestMutationDifferentialSmoke(t *testing.T) {
	seed := testutil.Seed(t, 1)
	sum, err := RunMutation(Options{
		Seed:         seed,
		Iters:        3,
		Ops:          25,
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
		t.Fatal("no mutation cells executed")
	}
	t.Logf("%d iterations, %d cases, %d cells, all identical", sum.Iters, sum.Cases, sum.Cells)
}

// TestMutationHistory500 is the headline acceptance run: one seeded
// 500-op random mutation history applied to both mappings, checked at
// DOP 1 and 4 with indexes on and off after every op, with the durable
// twin killed and recovered every few ops and required to come back
// byte-identical to the twin that never crashed.
func TestMutationHistory500(t *testing.T) {
	if testing.Short() {
		t.Skip("500-op history skipped in -short mode")
	}
	seed := testutil.Seed(t, 1)
	sum, err := RunMutation(Options{
		Seed:         seed,
		Iters:        1,
		Ops:          500,
		Docs:         2,
		DOP:          4,
		ArtifactPath: filepath.Join(t.TempDir(), "artifact.txt"),
	})
	if err != nil {
		t.Fatalf("harness error: %v (%s)", err, testutil.ReproLine(t, seed))
	}
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d divergences, first: %s (%s)",
			len(sum.Divergences), sum.Divergences[0], testutil.ReproLine(t, seed))
	}
	t.Logf("500-op history: %d cells checked, all identical", sum.Cells)
}

// TestMutationDetectsDivergence proves the mutation net has teeth: with
// the Gather's morsel reordering sabotaged, the DOP cells checked after
// each op must report a divergence and write a -mutate replay artifact.
func TestMutationDetectsDivergence(t *testing.T) {
	exec.DisableGatherReorder = true
	defer func() { exec.DisableGatherReorder = false }()
	seed := testutil.Seed(t, 1)
	art := filepath.Join(t.TempDir(), "artifact.txt")
	sum, err := RunMutation(Options{
		Seed:         seed,
		Iters:        40,
		Ops:          12,
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
	for _, want := range []string{"-exp difftest -mutate -seed", "--- mutation history ---", "--- DTD ---"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing %q", want)
		}
	}
	t.Logf("detected: %s", sum.Divergences[0])
}

// indexReads walks a plan and appends the type of every operator that
// reads an index: B+tree scans and joins, and fragment-index scans.
// Gather pipelines are walked one by one.
func indexReads(t *testing.T, op exec.Operator, out []string) []string {
	t.Helper()
	switch n := op.(type) {
	case *exec.IndexScan, *exec.IndexedFragScan:
		out = append(out, fmt.Sprintf("%T", n))
	case *exec.IndexLoopJoin:
		out = indexReads(t, n.Left, append(out, fmt.Sprintf("%T", n)))
	case *exec.SeqScan, *exec.ValuesScan:
	case *exec.Filter:
		out = indexReads(t, n.Child, out)
	case *exec.Project:
		out = indexReads(t, n.Child, out)
	case *exec.TableFuncApply:
		out = indexReads(t, n.Child, out)
	case *exec.HashAggregate:
		out = indexReads(t, n.Child, out)
	case *exec.Sort:
		out = indexReads(t, n.Child, out)
	case *exec.TopN:
		out = indexReads(t, n.Child, out)
	case *exec.Limit:
		out = indexReads(t, n.Child, out)
	case *exec.HashJoin:
		out = indexReads(t, n.Right, indexReads(t, n.Left, out))
	case *exec.NestedLoopJoin:
		out = indexReads(t, n.Right, indexReads(t, n.Left, out))
	case *exec.Gather:
		for _, p := range n.Pipes {
			out = indexReads(t, p.Root, out)
		}
	default:
		t.Fatalf("indexReads: unhandled operator %T", op)
	}
	return out
}

// TestNoIndexCellsReadNoIndex holds the mutation harness's "noindex"
// cells to their job: they are the heap-only oracle that an index which
// drifted from its heap after mutations diverges from, so no plan they
// run may read a B+tree or a fragment index. Every generated case of
// both mappings is planned under the cells' options; the default
// options must read some index, or the check proves nothing.
func TestNoIndexCellsReadNoIndex(t *testing.T) {
	opts := Options{}
	opts.setDefaults()
	serial := plan.Options{DOP: 1}
	indexed := 0
	for seed := int64(1); seed <= 4; seed++ {
		ms, err := newMutState(opts, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ms.cases {
			for _, m := range []struct {
				st  *core.Store
				sql string
			}{{ms.hy, c.Hybrid}, {ms.xo, c.XORator}} {
				if m.sql == "" {
					continue
				}
				for _, o := range []plan.Options{serial, noIndex(serial), noIndex(parallelOptions(opts))} {
					m.st.DB.SetPlannerOptions(o)
					op, err := m.st.DB.Plan(m.sql)
					if err != nil {
						t.Fatalf("seed %d %s: %q: %v", seed, c.Name, m.sql, err)
					}
					reads := indexReads(t, op, nil)
					if !o.DisableIndexScan {
						indexed += len(reads)
					} else if len(reads) > 0 {
						t.Errorf("seed %d %s under %+v reads %v:\n%s", seed, c.Name, o, reads, plan.Explain(op))
					}
				}
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no default plan read an index; the check is vacuous")
	}
	t.Logf("%d index reads in the default plans, none under the noindex options", indexed)
}

// TestPlainNoIndexCellsReadNoIndex holds the plain harness's "noindex"
// cells to the same job: every generated case of both mappings (seeds
// 1–10) is planned under each noindex cell plainCells returns, and none
// may read a B+tree or a fragment index. The serial reference must read
// some index, or the check proves nothing.
func TestPlainNoIndexCellsReadNoIndex(t *testing.T) {
	opts := Options{}
	opts.setDefaults()
	serial := plan.Options{DOP: 1}
	indexed := 0
	for seed := int64(1); seed <= 10; seed++ {
		it, err := buildIteration(opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range it.cases {
			for _, m := range []struct {
				alg string
				st  *core.Store
				sql string
			}{{"hybrid", it.hy, c.Hybrid}, {"xorator", it.xo, c.XORator}} {
				if m.sql == "" {
					continue
				}
				for _, cell := range append([]cellSpec{{m.alg, serial}}, plainCells(opts, m.alg)...) {
					m.st.DB.SetPlannerOptions(cell.o)
					op, err := m.st.DB.Plan(m.sql)
					if err != nil {
						t.Fatalf("seed %d %s: %q: %v", seed, c.Name, m.sql, err)
					}
					reads := indexReads(t, op, nil)
					switch {
					case cell.axis == m.alg:
						indexed += len(reads)
					case strings.Contains(cell.axis, "noindex") && len(reads) > 0:
						t.Errorf("seed %d %s cell %s reads %v:\n%s", seed, c.Name, cell.axis, reads, plan.Explain(op))
					}
				}
				m.st.DB.SetPlannerOptions(serial)
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no reference plan read an index; the check is vacuous")
	}
	t.Logf("%d index reads in the reference plans, none in the noindex cells", indexed)
}
