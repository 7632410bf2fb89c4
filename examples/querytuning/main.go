// Querytuning: the paper's performance-engineering observations as
// runnable ablations — the UDF-vs-builtin call overhead of Figure 14, the
// fenced-UDF penalty the paper avoided, the §4.1 compression trade-off,
// and the statistics-driven plan change: the same three-table join
// planned before and after RunStats (DESIGN.md §5j).
package main

import (
	"fmt"
	"log"
	"time"

	xmlstore "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/types"
)

func main() {
	ds := bench.ShakespeareDataset(16)
	hybrid, _, err := bench.BuildStore(ds, core.Hybrid, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Figure 14: built-in vs UDF call overhead ==")
	ms, err := bench.RunUDFOverhead(hybrid, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.UDFTable(ms))

	fmt.Println("\n== FENCED vs NOT FENCED UDFs ==")
	fmt.Println("(the paper runs NOT FENCED: 'the FENCED option causes a significant performance penalty')")
	q := `SELECT udf_length(speaker_value) FROM speaker`
	base := timeIt(hybrid, q)
	hybrid.DB.Registry.Fenced = true
	fenced := timeIt(hybrid, q)
	hybrid.DB.Registry.Fenced = false
	fmt.Printf("not fenced: %v   fenced: %v   penalty: %.1fx\n",
		base.Round(time.Microsecond), fenced.Round(time.Microsecond),
		float64(fenced)/float64(base))

	fmt.Println("\n== §4.1 XADT storage-format trade-off ==")
	sig := bench.SigmodDataset(200)
	for _, format := range []xmlstore.Format{xmlstore.Raw, xmlstore.Compressed} {
		f := format
		st, err := core.NewStore(sig.DTD, core.Config{Algorithm: core.XORator, ForceFormat: &f})
		if err != nil {
			log.Fatal(err)
		}
		if err := st.Load(sig.Docs); err != nil {
			log.Fatal(err)
		}
		if err := st.RunStats(); err != nil {
			log.Fatal(err)
		}
		t := timeIt(st, `SELECT getElm(getElm(pp_slist, 'aTuple', 'title', 'Join'), 'author', '', '')
FROM pp WHERE findKeyInElm(pp_slist, 'title', 'Join') = 1`)
		fmt.Printf("%-11s database=%5.1fMB  QG1=%v\n",
			format, float64(st.Stats().DataBytes)/(1<<20), t.Round(time.Microsecond))
	}

	fmt.Println("\n== §5j statistics-driven join ordering ==")
	statsDrivenPlanChange()
}

// statsDrivenPlanChange builds the chain that planning without
// statistics loses on — a tiny table a whose join edge to b explodes (4
// distinct key values), while b joins c 1:1 over a unique key — and
// shows the cost-based planner reordering the join once statistics
// exist.
func statsDrivenPlanChange() {
	db := engine.Open(engine.Config{})
	mk := func(name string, cols []string, rows int, gen func(i int) []types.Value) {
		specs := make([]catalog.Column, len(cols))
		for i, c := range cols {
			specs[i] = catalog.Column{Name: c, Type: types.KindInt}
		}
		if _, err := db.CreateTable(name, specs); err != nil {
			log.Fatal(err)
		}
		tbl := db.Catalog.Table(name)
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(gen(i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	mk("a", []string{"a_id", "a_ab"}, 100, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}
	})
	mk("b", []string{"b_id", "b_ab", "b_bc"}, 2000, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 4)), types.NewInt(int64(i))}
	})
	mk("c", []string{"c_id", "c_bc"}, 2000, func(i int) []types.Value {
		return []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i))}
	})

	q := `SELECT COUNT(*) FROM a, b, c WHERE a_ab = b_ab AND b_bc = c_bc`
	show := func(label string) time.Duration {
		ex, err := db.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := db.Query(q); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		fmt.Printf("--- %s (%v) ---\n%s", label, best.Round(time.Microsecond), ex)
		return best
	}
	blind := show("no statistics: default distinct counts, a⋈b explodes")
	if err := db.RunStats(); err != nil {
		log.Fatal(err)
	}
	analyzed := show("after RunStats: the selective b⋈c edge joins first")
	fmt.Printf("join-order speedup: %.1fx\n", float64(blind)/float64(analyzed))
}

func timeIt(st *core.Store, query string) time.Duration {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := st.Query(query); err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}
