package catalog

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine/types"
	"repro/internal/testutil"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite golden files")

// statsFixture builds a deterministic Stats by analyzing a small table:
// a unique int column, a skewed 5-value string column, and an all-null
// column. Everything downstream of RunStats (sampling stride, bucket
// boundaries, encoding order) is deterministic, so the encoded bytes
// can be pinned by a golden file.
func statsFixture(t *testing.T) *Stats {
	t.Helper()
	c, tbl := newTestTable(t)
	for i := 0; i < 200; i++ {
		tbl.Insert([]types.Value{
			types.NewInt(int64(i * 3)),
			types.NewString(fmt.Sprintf("S%d", i%5)),
			types.Null,
		})
	}
	if err := c.RunStats("speech"); err != nil {
		t.Fatal(err)
	}
	return &tbl.Stats
}

func TestHistogramFracBelow(t *testing.T) {
	s := statsFixture(t)
	h := s.Cols["speechID"].Hist
	if h == nil {
		t.Fatal("no histogram for speechID")
	}
	// Values 0,3,...,597: FracBelow must be ~v/600, monotone, and clamped.
	if got := h.FracBelow(types.NewInt(-5)); got != 0 {
		t.Errorf("FracBelow(-5) = %v, want 0", got)
	}
	if got := h.FracBelow(types.NewInt(10_000)); got != 1 {
		t.Errorf("FracBelow(10000) = %v, want 1", got)
	}
	prev := -1.0
	for v := int64(0); v <= 600; v += 50 {
		got := h.FracBelow(types.NewInt(v))
		want := float64(v) / 600
		if got < prev {
			t.Errorf("FracBelow not monotone at %d: %v < %v", v, got, prev)
		}
		if diff := got - want; diff < -0.1 || diff > 0.1 {
			t.Errorf("FracBelow(%d) = %v, want ~%v", v, got, want)
		}
		prev = got
	}
	// Heavy duplicates: the 5-value string column still gets a histogram
	// whose buckets cover all rows.
	sh := s.Cols["speaker"].Hist
	if sh == nil {
		t.Fatal("no histogram for speaker")
	}
	total := 0
	for _, c := range sh.Counts {
		total += c
	}
	if total < 190 || total > 210 {
		t.Errorf("speaker histogram covers %d rows, want ~200", total)
	}
}

func TestStatsCodecRoundTrip(t *testing.T) {
	s := statsFixture(t)
	blob := EncodeStats(s)
	back, err := DecodeStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != s.Rows || back.Pages != s.Pages || back.ModsSince != s.ModsSince {
		t.Errorf("header mismatch: %+v vs %+v", back, s)
	}
	for name, cs := range s.Cols {
		got, ok := back.Cols[name]
		if !ok {
			t.Fatalf("column %q lost in round trip", name)
		}
		if got.Distinct != cs.Distinct {
			t.Errorf("%s: distinct %d vs %d", name, got.Distinct, cs.Distinct)
		}
		if diff := got.NullFrac - cs.NullFrac; diff < -1e-6 || diff > 1e-6 {
			t.Errorf("%s: null frac %v vs %v", name, got.NullFrac, cs.NullFrac)
		}
		if (got.Hist == nil) != (cs.Hist == nil) {
			t.Fatalf("%s: histogram presence changed", name)
		}
		if cs.Hist != nil && !reflect.DeepEqual(got.Hist, cs.Hist) {
			t.Errorf("%s: histogram changed in round trip", name)
		}
	}
	// Determinism: encoding the decoded form reproduces the bytes.
	if !bytes.Equal(EncodeStats(back), blob) {
		t.Error("re-encoding decoded stats produced different bytes")
	}
}

// TestStatsEncodingGolden pins the persisted statistics encoding: any
// byte-level change to the codec (new fields, reordered sections,
// varint width changes) shows up as a golden diff and must bump the
// format version instead of silently breaking old snapshots. Refresh
// with go test ./internal/engine/catalog/ -run Golden -update.
func TestStatsEncodingGolden(t *testing.T) {
	blob := EncodeStats(statsFixture(t))
	dump := hex.Dump(blob)
	path := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(want) != dump {
		t.Errorf("stats encoding drifted from %s (rerun with -update if intended)\ngot:\n%s", path, dump)
	}
}

// TestElementCountsMatchNodeWalk holds RunStats' element-name tally,
// taken from the scanner's element table, to a walk of the decoded nodes
// over generated fragments in every storage format, with and without the
// fragment header.
func TestElementCountsMatchNodeWalk(t *testing.T) {
	frags := testutil.Fragments()
	want := map[string]int{}
	for _, nodes := range frags {
		for _, n := range nodes {
			n.Walk(func(d *xmltree.Node) bool {
				if d.IsElement() {
					want[d.Name]++
				}
				return true
			})
		}
	}
	for _, f := range []xadt.Format{xadt.Raw, xadt.Compressed, xadt.Directory} {
		for _, encode := range []func([]*xmltree.Node, xadt.Format) xadt.Value{xadt.Encode, xadt.EncodeStored} {
			got := map[string]int{}
			var c elementCounter
			for _, nodes := range frags {
				c.count(types.NewXADT(encode(nodes, f).Bytes()), got)
			}
			if !maps.Equal(got, want) {
				t.Errorf("%v: element counts %v, node walk %v", f, got, want)
			}
		}
	}
}

// FuzzStatsCodec feeds arbitrary bytes to DecodeStats: it must reject
// garbage with an error, never panic or over-allocate, and any blob it
// does accept must re-encode and re-decode to the same statistics.
func FuzzStatsCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("XSTATS01"))
	f.Add([]byte("XSTATS99garbage"))
	var seedTbl *Stats
	{
		c := New(nil)
		tbl, err := c.CreateTable("t", []Column{
			{Name: "a", Type: types.KindInt},
			{Name: "b", Type: types.KindString},
		})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			tbl.Insert([]types.Value{
				types.NewInt(int64(i % 7)), types.NewString(fmt.Sprintf("v%d", i%3)),
			})
		}
		if err := c.RunStats("t"); err != nil {
			f.Fatal(err)
		}
		seedTbl = &tbl.Stats
	}
	f.Add(EncodeStats(seedTbl))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStats(data)
		if err != nil {
			return
		}
		blob := EncodeStats(s)
		back, err := DecodeStats(blob)
		if err != nil {
			t.Fatalf("re-decode of accepted blob failed: %v", err)
		}
		if !bytes.Equal(EncodeStats(back), blob) {
			t.Fatal("encode/decode/encode not a fixed point")
		}
	})
}
