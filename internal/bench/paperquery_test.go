package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/plan"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/testutil"
	"repro/internal/xadt"
)

// paperStore is one loaded corpus under one mapping, with the rows every
// workload query returns under the default DOP-1 plan.
type paperStore struct {
	name    string
	ds      Dataset
	alg     core.Algorithm
	st      *core.Store
	queries map[string]string
	want    map[string][][]types.Value
}

// TestPaperQueryOracle runs QS1-6 and QG1-6 under both mappings through
// every execution-path switch the engine keeps and requires rows
// identical, in identical order, to the default serial plan. Each cell
// is one alternative path: the order-preserving parallel exchange, scans
// instead of fragment indexes, and spilling blocking operators.
func TestPaperQueryOracle(t *testing.T) {
	serial := plan.Options{DOP: 1}
	var stores []*paperStore
	for _, w := range []struct {
		ds      Dataset
		queries []Query
	}{
		{ShakespeareDataset(3), ShakespeareQueries()},
		{SigmodDataset(60), SigmodQueries()},
	} {
		for _, alg := range []core.Algorithm{core.Hybrid, core.XORator} {
			ps := &paperStore{name: w.ds.Name + "/" + string(alg), ds: w.ds, alg: alg,
				queries: map[string]string{}, want: map[string][][]types.Value{}}
			var err error
			if ps.st, _, err = buildStore(w.ds, core.Config{Algorithm: alg}, 1); err != nil {
				t.Fatalf("%s: %v", ps.name, err)
			}
			ps.st.DB.SetPlannerOptions(serial)
			for _, q := range w.queries {
				text := q.Hybrid
				if alg == core.XORator {
					text = q.XORator
				}
				res, err := ps.st.Query(text)
				if err != nil {
					t.Fatalf("%s/%s: %v", ps.name, q.ID, err)
				}
				ps.queries[q.ID] = text
				ps.want[q.ID] = res.Rows
			}
			stores = append(stores, ps)
		}
	}

	cells := []struct {
		name string
		opts plan.Options
	}{
		{name: "dop4", opts: plan.Options{DOP: 4, MorselPages: 1, CPUs: 4}},
		{name: "noxadtindex", opts: plan.Options{DOP: 1, DisableXADTIndexes: true}},
		{name: "membudget4k", opts: plan.Options{DOP: 1, MemBudgetBytes: 4 << 10, SpillVFS: storage.NewMemVFS()}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			// A parallel plan's exchange must have stopped every worker
			// by the time its query returns.
			base := runtime.NumGoroutine()
			var spillRuns int64
			for _, ps := range stores {
				st := ps.st
				st.DB.ResetSpillStats()
				st.DB.SetPlannerOptions(c.opts)
				for id, text := range ps.queries {
					res, err := st.Query(text)
					if err != nil {
						t.Fatalf("%s/%s: %v", ps.name, id, err)
					}
					got, want := res.Rows, ps.want[id]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: %d rows differ from the default serial plan's %d",
							ps.name, id, len(got), len(want))
					}
				}
				spillRuns += st.DB.SpillStats().Runs
				st.DB.SetPlannerOptions(serial)
			}
			if c.opts.MemBudgetBytes > 0 && spillRuns == 0 {
				t.Errorf("no query spilled under a %d-byte budget", c.opts.MemBudgetBytes)
			}
			testutil.WaitGoroutines(t, base)
		})
	}

	t.Run("indexedplans", func(t *testing.T) {
		for _, ps := range stores {
			if ps.alg != core.XORator {
				continue
			}
			for _, id := range []string{"QS3", "QS4", "QG1"} {
				text, ok := ps.queries[id]
				if !ok {
					continue
				}
				op, err := ps.st.DB.Plan(text)
				if err != nil {
					t.Fatalf("%s/%s: %v", ps.name, id, err)
				}
				if ex := plan.Explain(op); !strings.Contains(ex, "IndexedFragScan") {
					t.Errorf("%s/%s: no IndexedFragScan in plan:\n%s", ps.name, id, ex)
				}
			}
		}
	})

	// probes holds planning to one fragment-index probe per indexable
	// conjunct, shared by the estimate, the join search and the access
	// path. Each findKeyInElm call in the text bounds one such conjunct.
	t.Run("probes", func(t *testing.T) {
		total := uint64(0)
		for _, ps := range stores {
			if ps.alg != core.XORator {
				continue
			}
			cat := ps.st.DB.Catalog
			lookups := func() uint64 {
				var n uint64
				for _, name := range cat.TableNames() {
					for _, fi := range cat.Table(name).FragIndexes {
						n += fi.Lookups()
					}
				}
				return n
			}
			for id, text := range ps.queries {
				before := lookups()
				if _, err := ps.st.DB.Plan(text); err != nil {
					t.Fatalf("%s/%s: %v", ps.name, id, err)
				}
				got := lookups() - before
				if limit := uint64(strings.Count(text, "findKeyInElm")); got > limit {
					t.Errorf("%s/%s: %d fragment-index probes while planning, want at most %d", ps.name, id, got, limit)
				}
				total += got
			}
		}
		if total == 0 {
			t.Error("no paper query probed a fragment index")
		}
	})

	// plans pins the Explain text of every paper query under both
	// mappings, serial and parallel, so an executor refactor that must not
	// change plans — shapes or estimates — is held to that;
	// rerun with -update after reviewing an intentional plan change.
	t.Run("plans", func(t *testing.T) {
		var sb strings.Builder
		for _, ps := range stores {
			ids := make([]string, 0, len(ps.queries))
			for id := range ps.queries {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, cell := range []struct {
				name string
				opts plan.Options
			}{
				{"dop1", serial},
				{"dop4", plan.Options{DOP: 4, MorselPages: 1, CPUs: 4}},
			} {
				ps.st.DB.SetPlannerOptions(cell.opts)
				for _, id := range ids {
					op, err := ps.st.DB.Plan(ps.queries[id])
					if err != nil {
						t.Fatalf("%s/%s: %v", ps.name, id, err)
					}
					fmt.Fprintf(&sb, "== %s %s %s\n%s", ps.name, id, cell.name, plan.Explain(op))
				}
			}
			ps.st.DB.SetPlannerOptions(serial)
		}
		got := sb.String()
		path := filepath.Join("testdata", "paperquery_plans.golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden file: %v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("paper-query plans differ from %s; rerun with -update if the change is intentional", path)
		}
	})

	// formats rebuilds each XORator store with every fragment storage
	// format forced and compares rows by text: the sampling decision picks
	// Raw for one corpus and Compressed for the other, so the default
	// stores alone leave each format's evaluation half-exercised.
	t.Run("formats", func(t *testing.T) {
		for _, ps := range stores {
			if ps.alg != core.XORator {
				continue
			}
			for _, f := range []xadt.Format{xadt.Raw, xadt.Compressed, xadt.Directory} {
				st, _, err := buildStore(ps.ds, core.Config{Algorithm: core.XORator, ForceFormat: &f}, 1)
				if err != nil {
					t.Fatalf("%s %v: %v", ps.name, f, err)
				}
				st.DB.SetPlannerOptions(serial)
				for id, text := range ps.queries {
					res, err := st.Query(text)
					if err != nil {
						t.Fatalf("%s %v/%s: %v", ps.name, f, id, err)
					}
					if !slices.Equal(renderRows(t, res.Rows), renderRows(t, ps.want[id])) {
						t.Errorf("%s %v/%s: rows differ from the default store's", ps.name, f, id)
					}
				}
			}
		}
	})

	// golden pins each mapping's rows as text, so neither a change to how
	// XADT methods evaluate nor one to how joins and scans build rows can
	// move a query answer unnoticed; rerun with -update after reviewing an
	// intentional change. QS1 returns whole stored fragments (XORator)
	// or over 10k flattened rows (Hybrid), so it is pinned by the SHA-256
	// of its rendered rows rather than by the rows themselves.
	t.Run("golden", func(t *testing.T) {
		for _, g := range []struct {
			alg  core.Algorithm
			file string
		}{
			{core.XORator, "paperquery_xorator.golden"},
			{core.Hybrid, "paperquery_hybrid.golden"},
		} {
			checkRowsGolden(t, stores, g.alg, filepath.Join("testdata", g.file))
		}
	})
}

// checkRowsGolden compares the default serial rows of every query under
// one mapping with a golden file.
func checkRowsGolden(t *testing.T, stores []*paperStore, alg core.Algorithm, path string) {
	t.Helper()
	var sb strings.Builder
	for _, ps := range stores {
		if ps.alg != alg {
			continue
		}
		ids := make([]string, 0, len(ps.want))
		for id := range ps.want {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fmt.Fprintf(&sb, "== %s %s: %d rows\n", ps.name, id, len(ps.want[id]))
			lines := renderRows(t, ps.want[id])
			if id == "QS1" {
				fmt.Fprintf(&sb, "sha256 %x\n", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
				continue
			}
			for _, line := range lines {
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s rows differ from %s; rerun with -update if the change is intentional", alg, path)
	}
}

// renderRows renders each row as one line of quoted values, XADT values
// by their fragment text, so rows compare across storage formats.
func renderRows(t *testing.T, rows [][]types.Value) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch v.Kind() {
			case types.KindXADT:
				text, err := xadt.FromBytes(v.XADT()).Text()
				if err != nil {
					t.Fatalf("row %d col %d: %v", i, j, err)
				}
				cells[j] = strconv.Quote(text)
			case types.KindString:
				cells[j] = strconv.Quote(v.Str())
			default:
				cells[j] = v.String()
			}
		}
		out[i] = strings.Join(cells, "\t")
	}
	return out
}
