package xadt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(2)
	a := Encode(fragment(t, "<A>x</A>"), Raw)
	b := Encode(fragment(t, "<B>y</B>"), Raw)
	d := Encode(fragment(t, "<D>z</D>"), Raw)

	for _, v := range []Value{a, b, a} {
		if _, err := c.table(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
	}
	// Insert d: b is LRU and must be evicted, a stays.
	if _, err := c.table(d); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if _, err := c.table(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.table(b); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits / 4 misses (b evicted)", s)
	}

	// Cached tables must agree with direct scans.
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
// fragments, each headerless and behind a v1 header, through one
// two-entry cache and one default-size cache. Visits interleave so that
// entries are evicted, reused for other fragments, and hit again; every
// method's output must equal the uncached evaluator's.
func TestSharedCacheMatchesUncached(t *testing.T) {
	frags := testutil.Fragments()
	stride := len(frags)/150 + 1
	var vals []Value
	for i := 0; i < len(frags); i += stride {
		enc := Encode(frags[i], allFormats[len(vals)/2%len(allFormats)])
		vals = append(vals, enc, FromBytes(testutil.WithV1Header(enc.Bytes())))
	}
	want := make([]string, len(vals))
	for i, v := range vals {
		want[i] = results(nil, v)
	}
	// Each value is visited, then one of the four before it.
	rng := rand.New(rand.NewSource(testutil.Seed(t, 1)))
	var order []int
	for i := range vals {
		order = append(order, i, max(0, i-rng.Intn(5)))
	}
	small, full := &Evaluator{Cache: NewCache(2)}, &Evaluator{Cache: NewCache(0)}
	for _, i := range order {
		for _, e := range []*Evaluator{small, full} {
			if got := results(e, vals[i]); got != want[i] {
				t.Fatalf("value %d (%x) through a %d-entry cache:\n%s\nuncached:\n%s", i, vals[i].Bytes(), e.Cache.cap, got, want[i])
			}
		}
	}
	for _, e := range []*Evaluator{small, full} {
		if s := e.Cache.Stats(); s.Hits == 0 || s.Misses <= uint64(e.Cache.cap) {
			t.Errorf("%d-entry cache: %+v; want hits and evictions", e.Cache.cap, s)
		}
	}
	if len(vals) < 200 {
		t.Errorf("only %d values", len(vals))
	}
}

// TestFullCacheMissAllocatesOnlyKey admits misses into a full cache: the
// evicted entry and its table slices are reused, so the only allocation
// is the copy of the new key.
func TestFullCacheMissAllocatesOnlyKey(t *testing.T) {
	const capacity = 4
	c := NewCache(capacity)
	hot := Encode(fragment(t, "<H>hot</H>"), Raw)
	var cold []Value
	for _, s := range []string{"<A>1</A>", "<B>2</B>", "<C>3</C>", "<D>4</D>"} {
		cold = append(cold, Encode(fragment(t, s), Raw))
	}
	i := 0
	access := func() {
		// The hit keeps the miss streak short, so every miss is admitted;
		// cycling four cold values through three free slots makes every
		// cold access a miss that evicts.
		if _, err := c.table(hot); err != nil {
			t.Fatal(err)
		}
		if _, err := c.table(cold[i%len(cold)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 2*len(cold); j++ {
		access()
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, access); allocs > 1 {
		t.Errorf("%.1f allocations per admitted miss into a full cache, want at most 1 (the key)", allocs)
	}
	s := c.Stats()
	if runs := s.Misses - before.Misses; runs < 100 || s.Hits-before.Hits != runs || c.Len() != capacity {
		t.Errorf("stats %+v after %+v, len %d: not one hit and one admitted miss per run", s, before, c.Len())
	}
}
