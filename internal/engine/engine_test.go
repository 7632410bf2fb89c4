package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
)

// fixtureDB builds a tiny XORator-style database: act and speech tables
// with XADT speaker/line fragments, mirroring the paper's Figure 6 schema.
func fixtureDB(t *testing.T) *Database {
	t.Helper()
	db := Open(Config{BufferPoolPages: 256})
	_, err := db.CreateTable("act", []catalog.Column{
		{Name: "actID", Type: types.KindInt},
		{Name: "act_title", Type: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.CreateTable("speech", []catalog.Column{
		{Name: "speechID", Type: types.KindInt},
		{Name: "speech_parentID", Type: types.KindInt},
		{Name: "speech_parentCODE", Type: types.KindString},
		{Name: "speech_speaker", Type: types.KindXADT},
		{Name: "speech_line", Type: types.KindXADT},
	})
	if err != nil {
		t.Fatal(err)
	}
	frag := func(s string) types.Value {
		v, err := xadt.Parse(s, xadt.Raw)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewXADT(v.Bytes())
	}
	acts := db.Catalog.Table("act")
	acts.Insert([]types.Value{types.NewInt(1), types.NewString("ACT I")})
	acts.Insert([]types.Value{types.NewInt(2), types.NewString("ACT II")})
	speeches := db.Catalog.Table("speech")
	speeches.Insert([]types.Value{
		types.NewInt(1), types.NewInt(1), types.NewString("ACT"),
		frag("<SPEAKER>HAMLET</SPEAKER>"),
		frag("<LINE>my dear friend</LINE><LINE>good night</LINE>"),
	})
	speeches.Insert([]types.Value{
		types.NewInt(2), types.NewInt(1), types.NewString("ACT"),
		frag("<SPEAKER>HORATIO</SPEAKER>"),
		frag("<LINE>hail to your lordship</LINE>"),
	})
	speeches.Insert([]types.Value{
		types.NewInt(3), types.NewInt(2), types.NewString("ACT"),
		frag("<SPEAKER>HAMLET</SPEAKER><SPEAKER>GHOST</SPEAKER>"),
		frag("<LINE>a friend indeed</LINE><LINE>swear</LINE>"),
	})
	if err := db.RunStats(); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryStrings(t *testing.T, db *Database, q string) []string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	var out []string
	for _, row := range res.Rows {
		var parts []string
		for _, v := range row {
			if v.Kind() == types.KindXADT {
				s, err := xadt.FromBytes(v.XADT()).Text()
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, s)
			} else {
				parts = append(parts, v.String())
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

// TestQueryQE1Shape runs the paper's Figure 7(a) query shape against the
// fixture.
func TestQueryQE1Shape(t *testing.T) {
	db := fixtureDB(t)
	rows := queryStrings(t, db, `
SELECT getElm(speech_line, 'LINE', 'LINE', 'friend')
FROM speech, act
WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1
AND findKeyInElm(speech_line, 'LINE', 'friend') = 1
AND speech_parentID = actID
AND speech_parentCODE = 'ACT'`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	joined := strings.Join(rows, ";")
	if !strings.Contains(joined, "my dear friend") || !strings.Contains(joined, "a friend indeed") {
		t.Errorf("rows = %v", rows)
	}
	if strings.Contains(joined, "good night") {
		t.Errorf("non-matching lines leaked: %v", rows)
	}
}

// TestQueryQE2Shape runs the Figure 8(a) order-access query.
func TestQueryQE2Shape(t *testing.T) {
	db := fixtureDB(t)
	rows := queryStrings(t, db, `SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	joined := strings.Join(rows, ";")
	if !strings.Contains(joined, "good night") || !strings.Contains(joined, "swear") {
		t.Errorf("rows = %v", rows)
	}
}

// TestQueryUnnest runs the Figure 9 unnest query.
func TestQueryUnnest(t *testing.T) {
	db := fixtureDB(t)
	rows := queryStrings(t, db, `
SELECT DISTINCT xadtText(unnestedS.out) AS SPEAKER
FROM speech, TABLE(unnest(speech_speaker, 'SPEAKER')) unnestedS`)
	if len(rows) != 3 {
		t.Fatalf("distinct speakers = %v", rows)
	}
	joined := strings.Join(rows, ";")
	for _, want := range []string{"HAMLET", "HORATIO", "GHOST"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %v", want, rows)
		}
	}
}

func TestBuiltinVsUDFStringFunctions(t *testing.T) {
	db := fixtureDB(t)
	b := queryStrings(t, db, `SELECT length(act_title) FROM act`)
	u := queryStrings(t, db, `SELECT udf_length(act_title) FROM act`)
	if len(b) != 2 || len(u) != 2 || b[0] != u[0] || b[1] != u[1] {
		t.Errorf("builtin %v vs udf %v", b, u)
	}
	bs := queryStrings(t, db, `SELECT substr(act_title, 5) FROM act`)
	us := queryStrings(t, db, `SELECT udf_substr(act_title, 5) FROM act`)
	if bs[0] != "I" || us[0] != "I" || bs[1] != "II" {
		t.Errorf("substr: %v / %v", bs, us)
	}
}

func TestFencedModeMatchesUnfenced(t *testing.T) {
	plain := fixtureDB(t)
	fenced := fixtureDB(t)
	fenced.Registry.Fenced = true
	a := queryStrings(t, plain, `SELECT udf_length(act_title) FROM act WHERE actID = 1`)
	b := queryStrings(t, fenced, `SELECT udf_length(act_title) FROM act WHERE actID = 1`)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("fenced result differs: %v vs %v", a, b)
	}
}

func TestJoinCountAndExplain(t *testing.T) {
	db := fixtureDB(t)
	n, err := db.JoinCount(`SELECT speechID FROM speech, act WHERE speech_parentID = actID`)
	if err != nil || n != 1 {
		t.Errorf("JoinCount = %d, %v", n, err)
	}
	text, err := db.Explain(`SELECT speechID FROM speech`)
	if err != nil || !strings.Contains(text, "SeqScan") {
		t.Errorf("Explain = %q, %v", text, err)
	}
}

func TestIndexedQuery(t *testing.T) {
	db := fixtureDB(t)
	if err := db.CreateIndexes("speech", []string{"speech_parentID"}); err != nil {
		t.Fatal(err)
	}
	rows := queryStrings(t, db, `SELECT speechID FROM speech WHERE speech_parentID = 1`)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	text, _ := db.Explain(`SELECT speechID FROM speech WHERE speech_parentID = 1`)
	if !strings.Contains(text, "IndexScan") {
		t.Errorf("expected index scan:\n%s", text)
	}
}

func TestQueryErrors(t *testing.T) {
	db := fixtureDB(t)
	cases := []string{
		`SELECT`,
		`SELECT x FROM nosuch`,
		`SELECT getElm(actID, 'a', 'b', 'c') FROM act`, // wrong arg type at runtime
	}
	for _, q := range cases {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

// TestBuiltinIntegerArgumentsReturnErrors holds the built-ins' integer
// arguments to an error, not a panic, for any other kind: serially and
// in a parallel plan, where a panic in a Gather worker would kill the
// process.
func TestBuiltinIntegerArgumentsReturnErrors(t *testing.T) {
	for _, dop := range []int{1, 4} {
		db := fixtureDB(t)
		db.SetPlannerOptions(plan.Options{DOP: dop, MorselPages: 1, ForceParallel: dop > 1})
		// Enough rows for several morsels in each table.
		speech, err := db.Catalog.Table("speech").Heap.Get(storage.RID{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			db.Catalog.Table("act").Insert([]types.Value{types.NewInt(int64(10 + i)), types.NewString("ACT X")})
			db.Catalog.Table("speech").Insert(speech)
		}
		for _, q := range []string{
			`SELECT getElm(speech_line, 'LINE', 'LINE', '', 'x') FROM speech`,
			`SELECT getElmIndex(speech_line, 'speech', 'LINE', 'x', 1) FROM speech`,
			`SELECT getElmIndex(speech_line, 'speech', 'LINE', 1, 'x') FROM speech`,
			`SELECT substr(act_title, 'x') FROM act`,
			`SELECT substr(act_title, 1, 'x') FROM act`,
			`SELECT udf_substr(act_title, 'x') FROM act`,
			`SELECT udf_substr(act_title, 1, 'x') FROM act`,
		} {
			if dop > 1 {
				if text, err := db.Explain(q); err != nil || !strings.Contains(text, "Gather") {
					t.Fatalf("DOP %d: %q does not plan in parallel:\n%s (%v)", dop, q, text, err)
				}
			}
			if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "expects an integer argument") {
				t.Errorf("DOP %d: Query(%q) error = %v, want an integer-argument error", dop, q, err)
			}
		}
	}
}

func TestNullXADTHandling(t *testing.T) {
	db := fixtureDB(t)
	db.Catalog.Table("speech").Insert([]types.Value{
		types.NewInt(9), types.NewInt(2), types.NewString("ACT"), types.Null, types.Null,
	})
	// findKeyInElm on NULL returns 0: the row is filtered, not an error.
	rows := queryStrings(t, db, `
SELECT speechID FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1`)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestSetPlannerOptions(t *testing.T) {
	db := fixtureDB(t)
	if err := db.CreateIndexes("speech", []string{"speechID"}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT speech_parentID FROM speech WHERE speechID = 2`
	text, err := db.Explain(q)
	if err != nil || !strings.Contains(text, "IndexScan") {
		t.Fatalf("explain = %q, %v", text, err)
	}
	db.SetPlannerOptions(plan.Options{DisableIndexScan: true})
	text, err = db.Explain(q)
	if err != nil || strings.Contains(text, "IndexScan") || !strings.Contains(text, "SeqScan") {
		t.Errorf("explain with DisableIndexScan = %q, %v", text, err)
	}
}

func TestBufferPoolAccounting(t *testing.T) {
	db := fixtureDB(t)
	db.Pool.Reset()
	if _, err := db.Query(`SELECT speechID FROM speech`); err != nil {
		t.Fatal(err)
	}
	if db.Pool.Stats().Total() == 0 {
		t.Error("query did not touch the buffer pool")
	}
}

// TestOpenWithoutPool checks that a zero BufferPoolPages opens no pool,
// live or from a snapshot, and that queries run without one.
func TestOpenWithoutPool(t *testing.T) {
	db := Open(Config{})
	if db.Pool != nil {
		t.Fatal("Open(Config{}) created a buffer pool")
	}
	if _, err := db.CreateTable("act", []catalog.Column{{Name: "actID", Type: types.KindInt}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		db.Catalog.Table("act").Insert([]types.Value{types.NewInt(int64(i))})
	}
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSnapshot(&snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Pool != nil {
		t.Fatal("OpenSnapshot(Config{}) created a buffer pool")
	}
	for _, d := range []*Database{db, reopened} {
		res, err := d.Query(`SELECT actID FROM act WHERE actID >= 2`)
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("query without a pool: %v, %v", res, err)
		}
	}
}

func TestConcurrentReadQueries(t *testing.T) {
	db := fixtureDB(t)
	if err := db.CreateIndexes("speech", []string{"speechID"}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT speechID FROM speech WHERE speechID = 2`,
		`SELECT xadtText(speech_speaker) FROM speech`,
		`SELECT COUNT(*) FROM speech, act WHERE speech_parentID = actID`,
		`SELECT DISTINCT xadtText(u.out) FROM speech, TABLE(unnest(speech_speaker, 'SPEAKER')) u`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*8)
	for round := 0; round < 8; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				if _, err := db.Query(q); err != nil {
					errs <- err
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
