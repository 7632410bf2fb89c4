package engine

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// refFixture builds doc(id, frag): one Compressed fragment of the
// sListTuples of each generated SIGMOD document, and the first one's
// again in reverse order, so that equal elements come from parents with
// different bytes. It returns
// the database, under a 4 KiB operator budget so that every blocking
// operator spills, and the stored fragments' nodes in row order.
func refFixture(t *testing.T) (*Database, [][]*xmltree.Node) {
	t.Helper()
	db := Open(Config{BufferPoolPages: 256, MemBudgetBytes: 4096, SpillDir: t.TempDir()})
	tbl, err := db.CreateTable("doc", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "frag", Type: types.KindXADT},
	})
	if err != nil {
		t.Fatal(err)
	}
	var frags [][]*xmltree.Node
	for _, d := range datagen.GenerateSigmod(datagen.SigmodConfig{
		Documents: 4, Seed: 1, SectionsPerDoc: [2]int{2, 3}, ArticlesPerSection: [2]int{2, 4}, AuthorsPerArticle: [2]int{1, 4},
	}) {
		frags = append(frags, d.Root.Descendants("sListTuple"))
	}
	reversed := slices.Clone(frags[0])
	slices.Reverse(reversed)
	frags = append(frags, reversed)
	for i, nodes := range frags {
		row := []types.Value{types.NewInt(int64(i)), types.NewXADT(xadt.Encode(nodes, xadt.Compressed).Bytes())}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RunStats(); err != nil {
		t.Fatal(err)
	}
	return db, frags
}

// encodedElements returns Encode of every element named tag in frags,
// in document order: the bytes an unnest over them must produce.
func encodedElements(frags [][]*xmltree.Node, tag string) []string {
	var out []string
	for _, nodes := range frags {
		for _, n := range nodes {
			n.Walk(func(d *xmltree.Node) bool {
				if d.IsElement() && d.Name == tag {
					out = append(out, string(xadt.Encode([]*xmltree.Node{d}, xadt.Compressed).Bytes()))
				}
				return true
			})
		}
	}
	return out
}

// plainRows checks that no value in rows is a reference: each row equals,
// field for field, a twin built from its values' bytes.
func plainRows(t *testing.T, q string, rows [][]types.Value) {
	t.Helper()
	for _, row := range rows {
		twin := make([]types.Value, len(row))
		for i, v := range row {
			twin[i] = v
			if v.Kind() == types.KindXADT {
				twin[i] = types.NewXADT(bytes.Clone(v.XADT()))
			}
		}
		if !reflect.DeepEqual(row, twin) {
			t.Fatalf("%s: a result row holds a reference: %#v", q, row)
		}
	}
}

// TestReferencesLeavingStatements runs s.out, a reference into the
// stored fragment, through ORDER BY, DISTINCT, GROUP BY and a hash join,
// which hash, compare and spill it, under a budget that makes each of
// them spill: the answers are those of the elements' encoded bytes, and
// no result row holds a reference.
func TestReferencesLeavingStatements(t *testing.T) {
	db, frags := refFixture(t)
	tuples := encodedElements(frags, "aTuple")
	const from = ` FROM doc, TABLE(unnest(frag, 'aTuple')) s`
	run := func(q string) [][]types.Value {
		t.Helper()
		db.ResetSpillStats()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if db.SpillStats().Runs == 0 {
			t.Fatalf("%s did not spill under a 4 KiB budget", q)
		}
		plainRows(t, q, res.Rows)
		return res.Rows
	}
	col := func(rows [][]types.Value, i int) []string {
		var out []string
		for _, r := range rows {
			out = append(out, string(r[i].XADT()))
		}
		return out
	}

	res, err := db.Query(`SELECT s.out` + from)
	if err != nil {
		t.Fatal(err)
	}
	if got := col(res.Rows, 0); !slices.Equal(got, tuples) {
		t.Fatalf("SELECT s.out: %d rows, not the %d encoded aTuples", len(got), len(tuples))
	}
	plainRows(t, "SELECT s.out", res.Rows)

	sorted := slices.Clone(tuples)
	slices.Sort(sorted)
	if got := col(run(`SELECT s.out AS o`+from+` ORDER BY o`), 0); !slices.Equal(got, sorted) {
		t.Errorf("ORDER BY s.out: %d rows, not the %d encoded aTuples in byte order", len(got), len(sorted))
	}

	distinct := slices.Compact(slices.Clone(sorted))
	if len(distinct) == len(sorted) {
		t.Fatal("fixture has no duplicate aTuples")
	}
	got := col(run(`SELECT DISTINCT s.out`+from), 0)
	slices.Sort(got)
	if !slices.Equal(got, distinct) {
		t.Errorf("DISTINCT s.out: %d rows, want %d", len(got), len(distinct))
	}

	counts := map[string]int64{}
	for _, b := range tuples {
		counts[b]++
	}
	rows := run(`SELECT s.out, COUNT(*) AS n` + from + ` GROUP BY s.out`)
	if len(rows) != len(counts) {
		t.Errorf("GROUP BY s.out: %d groups, want %d", len(rows), len(counts))
	}
	for _, r := range rows {
		if n := counts[string(r[0].XADT())]; r[1].Int() != n {
			t.Errorf("GROUP BY s.out: count %d, want %d", r[1].Int(), n)
		}
	}

	// The planner puts lateral applies above its join tree, so no SQL
	// hash-joins on s.out; build doc ⋈ unnest on each side by hand.
	side := func(alias string) exec.Operator {
		scan := exec.NewSeqScan(db.Catalog.Table("doc"), alias, nil)
		tag := &expr.Const{Val: types.NewString("aTuple")}
		return exec.NewTableFuncApply(scan, db.Registry.Table("unnest"), []expr.Expr{&expr.Col{Idx: 1}, tag}, alias+"s")
	}
	// The probe key reads the joined row: the right s.out is column 5.
	join := exec.NewHashJoin(side("l"), side("r"), &expr.Col{Idx: 2}, &expr.Col{Idx: 5})
	spill := &exec.SpillSink{}
	join.Ctx = exec.NewQueryCtx(4096, storage.NewMemVFS(), "", spill)
	joined, err := exec.Drain(join)
	if err != nil {
		t.Fatal(err)
	}
	if spill.Stats().Runs == 0 {
		t.Fatal("hash join on s.out did not spill under a 4 KiB budget")
	}
	plainRows(t, "hash join", joined)
	var pairs int64
	for _, n := range counts {
		pairs += n * n
	}
	if int64(len(joined)) != pairs {
		t.Errorf("hash join on s.out: %d rows, want %d", len(joined), pairs)
	}
	for _, r := range joined {
		if !bytes.Equal(r[2].XADT(), r[5].XADT()) {
			t.Fatalf("hash join paired %q with %q", r[2].XADT(), r[5].XADT())
		}
	}
}

// TestReferencesStoredAsBytes inserts the rows of a plan's operator —
// references straight from unnest, since the SQL has no INSERT ...
// SELECT — into an XADT column with a fragment index, logging them to a
// WAL. The heap holds Encode's bytes, and a store rebuilt from the
// recovered log answers like the live one.
func TestReferencesStoredAsBytes(t *testing.T) {
	db, frags := refFixture(t)
	tuples := encodedElements(frags, "aTuple")
	sinkCols := []catalog.Column{{Name: "id", Type: types.KindInt}, {Name: "frag", Type: types.KindXADT}}
	if _, err := db.CreateTable("sink", sinkCols); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexes("sink", []string{"frag"}); err != nil {
		t.Fatal(err)
	}

	op, err := db.Plan(`SELECT s.out FROM doc, TABLE(unnest(frag, 'aTuple')) s`)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var ops []mvcc.Op
	for {
		row, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		if _, span := row[0].Fragment().Parts(); span == 0 {
			t.Fatal("unnest returned a value that is not a reference")
		}
		ops = append(ops, mvcc.Op{Kind: mvcc.OpRowInsert, Table: "sink",
			Row: []types.Value{types.NewInt(int64(len(ops))), row[0]}})
	}
	op.Close()

	vfs := storage.NewMemVFS()
	w, err := wal.Create(vfs, "wal", wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	batch := w.Begin()
	if err := db.ApplyOps(ops, batch); err != nil {
		t.Fatal(err)
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}

	const read = `SELECT id, frag FROM sink ORDER BY id`
	live, err := db.Query(read)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != len(tuples) {
		t.Fatalf("sink holds %d rows, want %d", len(live.Rows), len(tuples))
	}
	for i, r := range live.Rows {
		if string(r[1].XADT()) != tuples[i] {
			t.Fatalf("stored row %d = %q, Encode %q", i, r[1].XADT(), tuples[i])
		}
	}

	// Rebuild the sink from the log alone; its fragment index is built
	// from the stored bytes.
	tail, err := wal.Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	rec := Open(Config{BufferPoolPages: 256})
	sink, err := rec.CreateTable("sink", sinkCols)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tail.Batches {
		for _, o := range b.Ops {
			if err := sink.Insert(o.Row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rec.CreateIndexes("sink", []string{"frag"}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{read,
		`SELECT id FROM sink WHERE findKeyInElm(frag, 'author', 'Hill') = 1`,
		`SELECT id FROM sink WHERE findKeyInElm(frag, 'title', 'Cache') = 1`,
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: recovered store answers %d rows, live %d", q, len(got.Rows), len(want.Rows))
		}
	}
	if plan, _ := db.Explain(`SELECT id FROM sink WHERE findKeyInElm(frag, 'author', 'Hill') = 1`); !strings.Contains(plan, "IndexedFragScan") {
		t.Errorf("probe of the sink does not use its fragment index:\n%s", plan)
	}
}
