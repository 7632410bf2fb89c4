package xadt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestCacheLRUAndStats holds the one-slot cache, a least-recently-used
// cache of one table: a value read twice in a row is decoded once, any
// other value evicts it, and the slot's table is the one the text scans
// to.
func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(2)
	a := Encode(fragment(t, "<A>x</A>"), Raw)
	b := Encode(fragment(t, "<B>y</B>"), Raw)

	for _, v := range []Value{a, b, a, a} {
		if _, err := c.table(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses", s)
	}
	// Equal bytes elsewhere in memory are another value.
	if _, err := c.table(FromBytes(bytes.Clone(a.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 4 {
		t.Errorf("stats = %+v, want a copy of the bytes to miss", s)
	}

	// The slot's table must agree with a scan.
	cached, _ := c.table(a)
	var w scratch
	if err := w.scan(a.Bytes(), &w.t); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cached, w.t) {
		t.Errorf("cached table %+v differs from direct scan %+v", *cached, w.t)
	}
}

func TestCachePoolFlushesStats(t *testing.T) {
	p := NewCachePool(4)
	c := p.Get()
	v := Encode(fragment(t, "<A>x</A>"), Compressed)
	for i := 0; i < 3; i++ {
		if _, err := c.table(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Hits != 0 && s.Misses != 0 {
		t.Errorf("pool stats flushed early: %+v", s)
	}
	p.Put(c)
	if s := p.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("pool stats = %+v, want 2 hits / 1 miss", s)
	}
}

// TestSharedCacheMatchesUncached routes a few hundred generated
// fragments through one cache. Visits interleave so that the slot is
// evicted, refilled with other fragments, and hit again; every method's
// output must equal the uncached evaluator's.
func TestSharedCacheMatchesUncached(t *testing.T) {
	frags := testutil.Fragments()
	stride := len(frags)/300 + 1
	var vals []Value
	for i := 0; i < len(frags); i += stride {
		vals = append(vals, Encode(frags[i], allFormats[len(vals)%len(allFormats)]))
	}
	want := make([]string, len(vals))
	for i, v := range vals {
		want[i] = results(nil, v)
	}
	// Each value is visited, then one of the four before it or itself.
	rng := rand.New(rand.NewSource(testutil.Seed(t, 1)))
	var order []int
	for i := range vals {
		order = append(order, i, max(0, i-rng.Intn(5)))
	}
	e := &Evaluator{Cache: NewCache(0)}
	for _, i := range order {
		if got := results(e, vals[i]); got != want[i] {
			t.Fatalf("value %d (%x) through a cache:\n%s\nuncached:\n%s", i, vals[i].Bytes(), got, want[i])
		}
	}
	if s := e.Cache.Stats(); s.Hits == 0 || s.Misses <= uint64(len(vals)) {
		t.Errorf("cache stats %+v over %d values; want hits and evictions", s, len(vals))
	}
	if len(vals) < 200 {
		t.Errorf("only %d values", len(vals))
	}
}

// TestFullCacheMissAllocatesOnlyKey alternates two values through one
// cache, so every read misses and decodes into the slot: the slot reuses
// its table's slices and keys by identity, so a miss allocates nothing.
func TestFullCacheMissAllocatesOnlyKey(t *testing.T) {
	c := NewCache(0)
	vals := []Value{
		Encode(fragment(t, "<H>hot</H><H>x</H>"), Raw),
		Encode(fragment(t, "<A>1</A><B>2</B><C>3</C>"), Compressed),
	}
	i := 0
	access := func() {
		if _, err := c.table(vals[i%len(vals)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 4; j++ {
		access()
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, access); allocs > 0 {
		t.Errorf("%.1f allocations per miss, want 0", allocs)
	}
	if s := c.Stats(); s.Hits != before.Hits || s.Misses-before.Misses < 100 {
		t.Errorf("stats %+v after %+v: not one miss per read", s, before)
	}
}
