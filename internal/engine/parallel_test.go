package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/types"
	"repro/internal/xadt"
)

// parallelFixture builds the Figure 6 schema at a size that spans enough
// heap pages to morselize: nActs acts and 40 speeches per act, with XADT
// speaker/line fragments so parallel plans exercise UDF evaluation.
func parallelFixture(t testing.TB, nActs int) *Database {
	t.Helper()
	db := Open(Config{BufferPoolPages: 1024})
	if _, err := db.CreateTable("act", []catalog.Column{
		{Name: "actID", Type: types.KindInt},
		{Name: "act_title", Type: types.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("speech", []catalog.Column{
		{Name: "speechID", Type: types.KindInt},
		{Name: "speech_parentID", Type: types.KindInt},
		{Name: "speech_speaker", Type: types.KindXADT},
		{Name: "speech_line", Type: types.KindXADT},
	}); err != nil {
		t.Fatal(err)
	}
	frag := func(s string) types.Value {
		v, err := xadt.Parse(s, xadt.Raw)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewXADT(v.Bytes())
	}
	speakers := []string{"HAMLET", "HORATIO", "GHOST", "OPHELIA", "CLAUDIUS"}
	acts := db.Catalog.Table("act")
	speeches := db.Catalog.Table("speech")
	id := 0
	for a := 1; a <= nActs; a++ {
		if err := acts.Insert([]types.Value{
			types.NewInt(int64(a)), types.NewString(fmt.Sprintf("ACT %d", a)),
		}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 40; s++ {
			id++
			err := speeches.Insert([]types.Value{
				types.NewInt(int64(id)),
				types.NewInt(int64(a)),
				frag(fmt.Sprintf("<SPEAKER>%s</SPEAKER>", speakers[id%len(speakers)])),
				frag(fmt.Sprintf("<LINE>line %d of act %d</LINE><LINE>and line two</LINE>", id, a)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.RunStats(); err != nil {
		t.Fatal(err)
	}
	if pages := speeches.Heap.DataPages(); pages < 4 {
		t.Fatalf("speech table spans %d pages; too small to morselize", pages)
	}
	return db
}

// parallelQueries covers every operator shape the planner parallelizes:
// bare scans, filters with UDFs, joins, table functions, aggregates, and
// the order-sensitive ORDER BY / LIMIT plans of the QS6 family.
var parallelQueries = []string{
	`SELECT speechID FROM speech`,
	`SELECT speechID, xadtText(speech_speaker) FROM speech`,
	`SELECT speechID FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1`,
	`SELECT act_title, speechID FROM act, speech WHERE actID = speech_parentID`,
	`SELECT xadtText(u.out) FROM speech, TABLE(unnest(speech_line, 'LINE')) u`,
	`SELECT speech_parentID, COUNT(*) FROM speech GROUP BY speech_parentID`,
	`SELECT DISTINCT xadtText(speech_speaker) FROM speech`,
	`SELECT speechID FROM speech ORDER BY speechID DESC LIMIT 10`,
	`SELECT act_title, COUNT(*) FROM act, speech WHERE actID = speech_parentID GROUP BY act_title ORDER BY act_title`,
}

// TestParallelQueryDeterminism runs every query shape at DOP 1 and DOP 4
// and requires byte-identical results — including row order, since the
// exchange reassembles morsel output in scan order.
func TestParallelQueryDeterminism(t *testing.T) {
	db := parallelFixture(t, 30)
	for _, q := range parallelQueries {
		db.SetPlannerOptions(plan.Options{DOP: 1})
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		db.SetPlannerOptions(plan.Options{DOP: 4, MorselPages: 1, CPUs: 4})
		got, err := db.Query(q)
		if err != nil {
			t.Fatalf("dop=4 %q: %v", q, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%q: dop=4 returned %d rows differing from serial %d rows",
				q, len(got.Rows), len(want.Rows))
		}
	}
}

// TestParallelQueryStress issues parallel queries concurrently against
// one Database; run with -race this doubles as the data-race audit of
// the pool, catalog, heap, and exchange machinery.
func TestParallelQueryStress(t *testing.T) {
	db := parallelFixture(t, 20)
	db.SetPlannerOptions(plan.Options{DOP: 4, MorselPages: 1, CPUs: 4})
	queries := []string{
		`SELECT speechID, xadtText(speech_speaker) FROM speech`,
		`SELECT act_title, speechID FROM act, speech WHERE actID = speech_parentID`,
		`SELECT speech_parentID, COUNT(*) FROM speech GROUP BY speech_parentID`,
		`SELECT xadtText(u.out) FROM speech, TABLE(unnest(speech_line, 'LINE')) u`,
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*6)
	for round := 0; round < 6; round++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				got, err := db.Query(q)
				if err != nil {
					errs <- fmt.Errorf("%q: %w", q, err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want[i].Rows) {
					errs <- fmt.Errorf("%q: concurrent result differs", q)
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkScan compares a predicate scan at DOP 1 and DOP GOMAXPROCS —
// the parallel_speedup measurement at benchmark scale — and times a
// serial scan whose fused predicate is a LIKE '%…%' over a string column.
func BenchmarkScan(b *testing.B) {
	db := parallelFixture(b, 100)
	text, err := db.CreateTable("speech_text", []catalog.Column{
		{Name: "speechID", Type: types.KindInt},
		{Name: "text", Type: types.KindString},
	})
	if err != nil {
		b.Fatal(err)
	}
	for id := 1; id <= 4000; id++ {
		line := fmt.Sprintf("line %d of act %d", id, (id-1)/40+1)
		if err := text.Insert([]types.Value{types.NewInt(int64(id)), types.NewString(line)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.RunStats(); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, q string, opts plan.Options) {
		db.SetPlannerOptions(opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	udf := `SELECT speechID FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1`
	b.Run("dop1", func(b *testing.B) { run(b, udf, plan.Options{DOP: 1}) })
	b.Run("dopN", func(b *testing.B) { run(b, udf, plan.Options{DOP: runtime.GOMAXPROCS(0), MorselPages: 4}) })
	b.Run("like", func(b *testing.B) {
		run(b, `SELECT speechID FROM speech_text WHERE text LIKE '%of act 7%'`, plan.Options{DOP: 1})
	})
}
