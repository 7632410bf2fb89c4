package plan

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chainFixture builds the a–b–c chain that planning without statistics
// loses on: a is the smallest table but joins b over a 4-value key
// (a⋈b explodes), while b⋈c is 1:1 over a unique key. With default
// distinct counts the planner starts at a and pays the explosion; with
// statistics it joins b⋈c first.
func chainFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(nil)
	mk := func(name string, cols []string, rows int, gen func(i int) []types.Value) {
		t.Helper()
		specs := make([]catalog.Column, len(cols))
		for i, c := range cols {
			specs[i] = catalog.Column{Name: c, Type: types.KindInt}
		}
		tbl, err := cat.CreateTable(name, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(gen(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("a", []string{"a_id", "a_ab"}, 20, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}
	})
	mk("b", []string{"b_id", "b_ab", "b_bc"}, 400, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 4)), types.NewInt(int64(i))}
	})
	mk("c", []string{"c_id", "c_bc"}, 400, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i))}
	})
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

const chainQuery = `SELECT COUNT(*) FROM a, b, c WHERE a_ab = b_ab AND b_bc = c_bc`

// TestDPJoinOrderAvoidsExplodingIntermediate is the join-ordering
// regression test. Without statistics every join key gets the default
// distinct count, so the planner starts at the smallest table (a) and
// materializes the a⋈b explosion; once statistics exist it must join
// the selective b⋈c edge first, and both orders must return the same
// rows.
func TestDPJoinOrderAvoidsExplodingIntermediate(t *testing.T) {
	cat := chainFixture(t)
	stmt, err := sql.Parse(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Cat: cat, Reg: expr.NewRegistry()}

	cat.InvalidateStats()
	blindOp, blindSum, err := p.PlanSummary(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(blindSum.JoinOrder, " "); blindSum.Strategy != "dp" || got != "a b c" {
		t.Errorf("no-stats plan = %s [%s], want dp [a b c]", blindSum.Strategy, got)
	}

	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	statsOp, statsSum, err := p.PlanSummary(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(statsSum.JoinOrder, " "); statsSum.Strategy != "dp" || got != "c b a" {
		t.Errorf("analyzed plan = %s [%s], want dp [c b a]: the selective b/c edge first", statsSum.Strategy, got)
	}

	want, err := exec.Drain(blindOp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Drain(statsOp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("analyzed rows differ from no-stats rows: %v vs %v", got, want)
	}
}

// TestGreedyOrderBeyondDPLimit covers the one path to greedyOrder: a
// FROM list longer than dpMaxRelations. In the 9-table chain t0–t1–…–t8
// table ti holds rows r = 0..9+i, keyed r%10 on both join columns, so
// key k appears twice in ti when k < i and once otherwise.
func TestGreedyOrderBeyondDPLimit(t *testing.T) {
	const n = dpMaxRelations + 1
	cat := catalog.New(nil)
	var from, where []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		tbl, err := cat.CreateTable(name, []catalog.Column{
			{Name: name + "_l", Type: types.KindInt},
			{Name: name + "_r", Type: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10+i; r++ {
			k := types.NewInt(int64(r % 10))
			if err := tbl.Insert([]types.Value{k, k}); err != nil {
				t.Fatal(err)
			}
		}
		from = append(from, name)
		if i > 0 {
			where = append(where, fmt.Sprintf("t%d_r = t%d_l", i-1, i))
		}
	}
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse("SELECT COUNT(*) FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND "))
	if err != nil {
		t.Fatal(err)
	}
	op, sum, err := (&Planner{Cat: cat, Reg: expr.NewRegistry()}).PlanSummary(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Strategy != "greedy" || len(sum.JoinOrder) != n {
		t.Fatalf("%d-table chain planned %s over %v, want greedy over all %d", n, sum.Strategy, sum.JoinOrder, n)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	// Key k contributes the product of its per-table multiplicities:
	// 2^(8-k) for k = 0..7 (twice in t(k+1)..t8) and 1 for k = 8, 9, so
	// 256+128+…+2 + 1+1 = 512 rows.
	if len(rows) != 1 || rows[0][0].Int() != 512 {
		t.Errorf("COUNT(*) = %v, want 512", rows)
	}
}

// TestStaleStatsFallbackAfterDML pins the staleness contract: once DML
// drifts a table past catalog.DefaultStaleRatio, a planner with
// DisableAutoStats must distrust its statistics (reporting the table in
// StaleStats and estimating from defaults), while the default planner
// auto-refreshes before estimating and trusts them again.
func TestStaleStatsFallbackAfterDML(t *testing.T) {
	cat := chainFixture(t)
	stmt, err := sql.Parse(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DisableAutoStats: true}}
	if _, sum, err := fresh.PlanSummary(stmt); err != nil {
		t.Fatal(err)
	} else if len(sum.StaleStats) != 0 {
		t.Fatalf("freshly analyzed tables reported stale: %v", sum.StaleStats)
	}

	// Push b past the staleness ratio without touching its contents.
	b := cat.Table("b")
	b.AdvanceMods(int64(float64(b.Rows())*catalog.DefaultStaleRatio) + 1)

	noAuto := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DisableAutoStats: true}}
	if _, sum, err := noAuto.PlanSummary(stmt); err != nil {
		t.Fatal(err)
	} else {
		found := false
		for _, alias := range sum.StaleStats {
			if alias == "b" {
				found = true
			}
		}
		if !found {
			t.Fatalf("drifted table b not in StaleStats: %v", sum.StaleStats)
		}
	}
	if snap := b.StatsSnapshot(); snap.Fresh() {
		t.Fatal("snapshot still fresh after drift")
	}

	// The default planner refreshes the drifted table before estimating.
	auto := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	if _, sum, err := auto.PlanSummary(stmt); err != nil {
		t.Fatal(err)
	} else if len(sum.StaleStats) != 0 {
		t.Fatalf("auto-refresh left stale tables: %v", sum.StaleStats)
	}
	if snap := b.StatsSnapshot(); !snap.Fresh() {
		t.Fatal("auto-refresh did not restore fresh statistics")
	}
}

// TestExplainEstGolden pins the EXPLAIN text — operator shapes and the
// est= cardinality annotations — for a fixed fixture and query set. Any
// estimator or join-order change shows up as a golden diff. Refresh
// with go test ./internal/engine/plan/ -run ExplainEstGolden -update.
func TestExplainEstGolden(t *testing.T) {
	cat := chainFixture(t)
	queries := []string{
		`SELECT a_id FROM a WHERE a_ab = 2`,
		`SELECT b_id FROM b WHERE b_bc < 100`,
		`SELECT a_id, b_id FROM a, b WHERE a_ab = b_ab`,
		chainQuery,
	}
	var sb strings.Builder
	p := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	for _, q := range queries {
		op := planFor(t, p, q)
		sb.WriteString("-- " + q + "\n")
		sb.WriteString(Explain(op))
		sb.WriteString("\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "explain_est.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Errorf("EXPLAIN drifted from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
	if !strings.Contains(got, "est=") {
		t.Error("no est= annotations in cost-model EXPLAIN output")
	}
}
