package bench

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/plan"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
	"repro/internal/xadt"
)

// paperStore is one loaded corpus under one mapping, with the rows every
// workload query returns under the default DOP-1 plan.
type paperStore struct {
	name    string
	alg     core.Algorithm
	st      *core.Store
	legacy  *core.Store // XORator only: same documents, headerless XADT fragments
	queries map[string]string
	want    map[string][][]types.Value
}

// TestPaperQueryOracle runs QS1-6 and QG1-6 under both mappings through
// every execution-path switch the engine keeps and requires rows
// identical, in identical order, to the default serial plan. Each cell
// is one alternative path: the order-preserving parallel exchange, the
// parse-every-call XADT evaluator, scans instead of fragment indexes,
// the row-at-a-time engine, the greedy planner, spilling blocking
// operators, and seed-era headerless fragments. Two cells relax the
// comparison where the alternative path legitimately differs: the greedy
// planner may join in another order and none of the queries has an ORDER
// BY, so it compares row multisets; the legacy store keeps no fragment
// headers, so it compares XADT values with headers stripped.
func TestPaperQueryOracle(t *testing.T) {
	baseBatches := vec.Outstanding()
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
			ps := &paperStore{name: w.ds.Name + "/" + string(alg), alg: alg,
				queries: map[string]string{}, want: map[string][][]types.Value{}}
			var err error
			if ps.st, _, err = buildStore(w.ds, core.Config{Algorithm: alg}, 1); err != nil {
				t.Fatalf("%s: %v", ps.name, err)
			}
			if alg == core.XORator {
				if ps.legacy, _, err = buildStore(w.ds, core.Config{Algorithm: alg, DisableXADTHeaders: true}, 1); err != nil {
					t.Fatalf("%s legacy: %v", ps.name, err)
				}
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
		name      string
		opts      plan.Options
		slowXADT  bool // XADT header fast-reject and decode cache off
		legacy    bool // query the headerless twin store
		unordered bool // compare row multisets
	}{
		{name: "dop4", opts: plan.Options{DOP: 4, MorselPages: 1, CPUs: 4}},
		{name: "nofastpath", opts: serial, slowXADT: true},
		{name: "noxadtindex", opts: plan.Options{DOP: 1, DisableXADTIndexes: true}},
		{name: "rowengine", opts: plan.Options{DOP: 1, DisableVectorized: true}},
		{name: "nocostmodel", opts: plan.Options{DOP: 1, DisableCostModel: true}, unordered: true},
		{name: "membudget4k", opts: plan.Options{DOP: 1, MemBudgetBytes: 4 << 10, SpillVFS: storage.NewMemVFS()}},
		{name: "legacy", opts: serial, legacy: true},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var spillRuns int64
			for _, ps := range stores {
				st := ps.st
				if c.legacy {
					if ps.legacy == nil {
						continue
					}
					st = ps.legacy
				}
				st.DB.ResetSpillStats()
				st.DB.SetPlannerOptions(c.opts)
				st.DB.SetXADTFastPath(!c.slowXADT)
				for id, text := range ps.queries {
					res, err := st.Query(text)
					if err != nil {
						t.Fatalf("%s/%s: %v", ps.name, id, err)
					}
					got, want := res.Rows, ps.want[id]
					if c.legacy {
						got, want = stripHeaders(got), stripHeaders(want)
					}
					if c.unordered {
						got, want = sortRows(got), sortRows(want)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: %d rows differ from the default serial plan's %d",
							ps.name, id, len(got), len(want))
					}
				}
				spillRuns += st.DB.SpillStats().Runs
				st.DB.SetPlannerOptions(serial)
				st.DB.SetXADTFastPath(true)
			}
			if c.opts.MemBudgetBytes > 0 && spillRuns == 0 {
				t.Errorf("no query spilled under a %d-byte budget", c.opts.MemBudgetBytes)
			}
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

	if got := vec.Outstanding(); got != baseBatches {
		t.Errorf("%d pooled batches leaked across the oracle run", got-baseBatches)
	}
}

// stripHeaders returns a copy of rows whose XADT values carry only the
// legacy payload, without the fragment header the loader prepends.
func stripHeaders(rows [][]types.Value) [][]types.Value {
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
		for j, v := range r {
			if v.Kind() == types.KindXADT {
				out[i][j] = types.NewXADT(xadt.StripHeader(xadt.FromBytes(v.XADT())).Bytes())
			}
		}
	}
	return out
}

// sortRows returns rows in a canonical order.
func sortRows(rows [][]types.Value) [][]types.Value {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b []types.Value) int {
		return slices.CompareFunc(a, b, types.Compare)
	})
	return out
}
