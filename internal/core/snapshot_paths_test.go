package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// TestSnapshotThroughEveryAccessPath holds every access operator to the
// snapshot a session began on. After the session opens, other
// transactions commit an in-place UPDATE (which moves a row off the
// probed key), a moving UPDATE, a DELETE, a DELETE whose RID an INSERT
// reuses and, under XORator, splices that change a findKeyInElm answer.
// A SeqScan, an IndexScan, an IndexLoopJoin and (XORator) an
// IndexedFragScan must each still return exactly the rows they returned
// at the snapshot, in the same order. After the session's own UPDATE,
// INSERT and splice, each must return what a twin store holding the
// snapshot plus those writes returns.
func TestSnapshotThroughEveryAccessPath(t *testing.T) {
	for _, alg := range []Algorithm{Hybrid, XORator} {
		t.Run(string(alg), func(t *testing.T) { snapshotPaths(t, alg) })
	}
}

func snapshotPaths(t *testing.T, alg Algorithm) {
	build := func() *Store {
		st, _ := mvccPlayStore(t, alg, 1)
		if err := st.CreateDefaultIndexes(); err != nil {
			t.Fatal(err)
		}
		if err := st.RunStats(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st, twin := build(), build()
	exec := func(st *Store, q string) {
		t.Helper()
		if _, err := st.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	query := func(st *Store, q string) [][]types.Value {
		t.Helper()
		res, err := st.DB.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Rows
	}
	speeches := st.DB.Catalog.Table("speech")
	ridOf := func(id int64) (storage.RID, bool) {
		rids := speeches.IndexOn("speechID").Tree.Lookup(types.NewInt(id))
		if len(rids) != 1 {
			return storage.RID{}, false
		}
		return rids[0], true
	}
	// Every speech on the last heap page P is deleted, so that the page
	// resets and the next insert reuses the RID (P, 0). The other writes
	// go to speeches elsewhere: a, b and c of scene K, the scene with
	// the most of them, and f, a speech of another scene, which the
	// session's own UPDATE moves onto K.
	last := int32(speeches.Heap.DataPages() - 1)
	var onLast []int64
	var reusedRID storage.RID
	var k int64
	bySceneID := map[int64][]int64{}
	pairs := query(st, `SELECT sceneID, speechID FROM scene, speech WHERE speech_parentID = sceneID`)
	for _, r := range pairs {
		id := r[1].Int()
		if rid, _ := ridOf(id); rid.Page == last {
			onLast = append(onLast, id)
			if rid.Slot == 0 {
				reusedRID = rid
			}
			continue
		}
		scene := r[0].Int()
		bySceneID[scene] = append(bySceneID[scene], id)
		if len(bySceneID[scene]) > len(bySceneID[k]) {
			k = scene
		}
	}
	if last == 0 || len(onLast) == 0 || reusedRID.Page != last || len(bySceneID[k]) < 3 {
		t.Fatalf("speech spans %d pages, %d speeches on the last, scene %d has %d others; want several",
			last+1, len(onLast), k, len(bySceneID[k]))
	}
	a, b, c := bySceneID[k][0], bySceneID[k][1], bySceneID[k][2]
	var f int64
	for _, r := range pairs {
		if rid, _ := ridOf(r[1].Int()); r[0].Int() != k && rid.Page != last {
			f = r[1].Int()
			break
		}
	}

	paths := []struct{ op, q string }{
		{"SeqScan", `SELECT speechID, speech_parentID, speech_childOrder, speech_parentCODE FROM speech`},
		{"IndexScan", fmt.Sprintf(`SELECT speechID, speech_childOrder, speech_parentCODE FROM speech WHERE speech_parentID = %d`, k)},
		{"IndexLoopJoin", fmt.Sprintf(`SELECT sceneID, speechID, speech_childOrder FROM scene, speech WHERE speech_parentID = sceneID AND sceneID = %d`, k)},
	}
	// Under XORator, speeches x and y take other transactions' splices
	// (x stops matching the speaker name, y starts), z the session's own
	// UPDATE and w its own splice onto the name.
	var name string
	var x, y, z, w int64
	if alg == XORator {
		tag := func(n string) string { return "<SPEAKER>" + n + "</SPEAKER>" }
		var named, others []int64
		for _, r := range query(st, `SELECT speechID, xadtText(speech_speaker) FROM speech`) {
			id, text := r[0].Int(), r[1].Str()
			if rid, _ := ridOf(id); rid.Page == last || id == a || id == b || id == c || id == f {
				continue
			}
			if name == "" {
				name = strings.TrimSuffix(strings.TrimPrefix(text, "<SPEAKER>"), "</SPEAKER>")
			}
			if text == tag(name) {
				named = append(named, id)
			} else if !strings.Contains(text, tag(name)) {
				others = append(others, id)
			}
		}
		if len(named) < 3 || len(others) < 2 {
			t.Fatalf("speaker %q has %d speeches and %d others, want 3 and 2", name, len(named), len(others))
		}
		x, z, y, w = named[1], named[2], others[0], others[1]
		paths = append(paths, struct{ op, q string }{"IndexedFragScan", fmt.Sprintf(
			`SELECT speechID, speech_childOrder FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', '%s') = 1`, name)})
	}
	speaker := func(n string) []string { return []string{"<SPEAKER>" + n + "</SPEAKER>"} }

	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	read := func(q string) [][]types.Value {
		t.Helper()
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Rows
	}
	check := func(stage string, want func(i int, q string) [][]types.Value, sorted bool) {
		t.Helper()
		for i, p := range paths {
			if ex, err := s.es.Explain(p.q); err != nil || !strings.Contains(ex, p.op) {
				t.Fatalf("%s: %s has no %s (%v):\n%s", stage, p.q, p.op, err, ex)
			}
			got, exp := read(p.q), want(i, p.q)
			if sorted {
				got, exp = [][]types.Value{{types.NewString(canon(&engine.Result{Rows: got}))}},
					[][]types.Value{{types.NewString(canon(&engine.Result{Rows: exp}))}}
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s: %s through %s:\ngot  %v\nwant %v", stage, p.q, p.op, got, exp)
			}
		}
	}
	atS := make([][][]types.Value, len(paths))
	for i, p := range paths {
		if atS[i] = read(p.q); len(atS[i]) == 0 {
			t.Fatalf("%s returns no rows", p.q)
		}
	}

	// Other transactions commit. The insert reusing (P, 0) comes before
	// the moving UPDATE, whose new record would take that slot instead.
	ridB, _ := ridOf(b)
	exec(st, fmt.Sprintf(`UPDATE speech SET speech_parentID = 9001 WHERE speechID = %d`, a))
	exec(st, fmt.Sprintf(`DELETE FROM speech WHERE speechID = %d`, c))
	for _, id := range onLast {
		exec(st, fmt.Sprintf(`DELETE FROM speech WHERE speechID = %d`, id))
	}
	exec(st, fmt.Sprintf(`INSERT INTO speech (speechID, speech_parentID, speech_childOrder) VALUES (80001, %d, 1)`, k))
	exec(st, fmt.Sprintf(`UPDATE speech SET speech_parentCODE = '%s' WHERE speechID = %d`, strings.Repeat("moved ", 700), b))
	if rid, ok := ridOf(b); !ok || rid == ridB {
		t.Fatalf("the moving UPDATE kept speech %d at %v", b, ridB)
	}
	if rid, ok := ridOf(80001); !ok || rid != reusedRID {
		t.Fatalf("the INSERT took %v, not the deleted speech's RID %v", rid, reusedRID)
	}
	if alg == XORator {
		if err := st.SpliceFragment("speech", "speech_speaker", x, speaker("ZEBRA")); err != nil {
			t.Fatal(err)
		}
		if err := st.SpliceFragment("speech", "speech_speaker", y, speaker(name)); err != nil {
			t.Fatal(err)
		}
		fresh, err := st.Query(paths[3].q)
		if err != nil || reflect.DeepEqual(fresh.Rows, atS[3]) {
			t.Fatalf("the splices left the findKeyInElm answer as it was (%v)", err)
		}
	}
	check("after other commits", func(i int, _ string) [][]types.Value { return atS[i] }, false)

	// The session's own writes, and the same writes on the twin.
	own := []string{
		fmt.Sprintf(`UPDATE speech SET speech_parentID = %d WHERE speechID = %d`, k, f),
		fmt.Sprintf(`INSERT INTO speech (speechID, speech_parentID, speech_childOrder) VALUES (90001, %d, 2)`, k),
	}
	if alg == XORator {
		own = append(own, fmt.Sprintf(`UPDATE speech SET speech_childOrder = 77 WHERE speechID = %d`, z))
	}
	for _, q := range own {
		sessionExec(t, s, q)
		exec(twin, q)
	}
	if alg == XORator {
		if err := s.SpliceFragment("speech", "speech_speaker", w, speaker(name)); err != nil {
			t.Fatal(err)
		}
		if err := twin.SpliceFragment("speech", "speech_speaker", w, speaker(name)); err != nil {
			t.Fatal(err)
		}
	}
	check("after own writes", func(_ int, q string) [][]types.Value { return query(twin, q) }, true)
}
