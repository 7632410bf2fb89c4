package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine/catalog"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/xindex"
	"repro/internal/xadt"
)

// The probes call one layer directly, over the values a loaded store
// holds, so that a layer's cost is known apart from the queries that
// pay it. They run after the timed section of a traced run.

type storedValue struct {
	rid storage.RID
	val types.Value
}

// storedFragments returns the XADT values of one column, in heap order.
func storedFragments(st *core.Store, table, column string) ([]storedValue, *catalog.Table) {
	t := st.Table(table)
	if t == nil {
		return nil, nil
	}
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return nil, t
	}
	var out []storedValue
	// The callback never fails, so neither does the scan.
	_ = t.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		if row[ci].Kind() == types.KindXADT {
			out = append(out, storedValue{rid, row[ci]})
		}
		return nil
	})
	return out, t
}

// xadtCalls are the arguments the workload queries pass to the XADT
// methods on one column.
type xadtCalls struct {
	getElm      [3]string // rootElm, searchElm, searchKey
	findKey     [2]string // searchElm, searchKey
	getElmIndex [2]string // parentElm, childElm; positions 2..2
	unnest      string
}

var (
	shakespeareCalls = xadtCalls{
		getElm: [3]string{"LINE", "STAGEDIR", ""}, findKey: [2]string{"STAGEDIR", ""},
		getElmIndex: [2]string{"", "LINE"}, unnest: "LINE",
	}
	sigmodCalls = xadtCalls{
		getElm: [3]string{"aTuple", "title", "Join"}, findKey: [2]string{"title", "Join"},
		getElmIndex: [2]string{"authors", "author"}, unnest: "sListTuple",
	}
)

// xadtProbe times the four XADT methods, and EncodeStored, over stored
// fragments, with the evaluator the engine's UDFs use: header
// fast-reject on and a decode cache of the default size.
type xadtProbe struct {
	frags                                int
	getElm, findKey, getElmIndex, unnest time.Duration
	allocBytes                           uint64
	encodeBytes                          int64
	encode                               time.Duration
	errs                                 int
}

func newXADTProbe() *xadtProbe { return &xadtProbe{} }

func (p *xadtProbe) methods(st *core.Store, table, column string, c xadtCalls) {
	vals, _ := storedFragments(st, table, column)
	ev := &xadt.Evaluator{Cache: xadt.NewCache(0)}
	count := func(err error) {
		if err != nil {
			p.errs++
		}
	}
	loop := func(total *time.Duration, call func(v xadt.Value) error) {
		start := time.Now()
		for _, sv := range vals {
			count(call(xadt.FromBytes(sv.val.XADT())))
		}
		*total += time.Since(start)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop(&p.getElm, func(v xadt.Value) error {
		_, err := ev.GetElm(v, c.getElm[0], c.getElm[1], c.getElm[2], 0)
		return err
	})
	loop(&p.findKey, func(v xadt.Value) error {
		_, err := ev.FindKeyInElm(v, c.findKey[0], c.findKey[1])
		return err
	})
	loop(&p.getElmIndex, func(v xadt.Value) error {
		_, err := ev.GetElmIndex(v, c.getElmIndex[0], c.getElmIndex[1], 2, 2)
		return err
	})
	loop(&p.unnest, func(v xadt.Value) error {
		_, err := ev.Unnest(v, c.unnest)
		return err
	})
	runtime.ReadMemStats(&m1)
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.frags += len(vals)
}

// encoding times EncodeStored, the write path's half of the XADT layer,
// over the decoded form of the stored fragments.
func (p *xadtProbe) encoding(st *core.Store, table, column string) {
	vals, _ := storedFragments(st, table, column)
	for _, sv := range vals {
		nodes, err := xadt.FromBytes(sv.val.XADT()).Nodes()
		if err != nil {
			p.errs++
			continue
		}
		start := time.Now()
		enc := xadt.EncodeStored(nodes, st.Format)
		p.encode += time.Since(start)
		p.encodeBytes += int64(enc.Len())
	}
}

func (p *xadtProbe) fill(m map[string]float64) {
	perFrag := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(p.frags)) }
	m["xadt.getelm_us_per_frag"] = perFrag(p.getElm)
	m["xadt.findkey_us_per_frag"] = perFrag(p.findKey)
	m["xadt.getelmindex_us_per_frag"] = perFrag(p.getElmIndex)
	m["xadt.unnest_us_per_frag"] = perFrag(p.unnest)
	m["xadt.alloc_bytes_per_frag"] = ratio(float64(p.allocBytes), float64(4*p.frags))
	m["xadt.encode_mb_s"] = ratio(float64(p.encodeBytes)/1e6, p.encode.Seconds())
}

// xindexProbe times fragment-index lookups for the keys the workload
// queries search, counts how many candidates a lookup returns per row
// that really matches, and times AddRow into a fresh index.
type xindexProbe struct {
	lookupTime time.Duration
	lookupN    int
	candidates int
	verified   int
	addTime    time.Duration
	added      int
	sizeBytes  int64
	xmlBytes   int64
}

func newXIndexProbe() *xindexProbe { return &xindexProbe{} }

const xindexLookupReps = 200

func (p *xindexProbe) lookups(st *core.Store, table, column, elm, key string) {
	t := st.Table(table)
	if t == nil {
		return
	}
	fi := t.FragIndexOn(column)
	if fi == nil {
		return
	}
	var rids []storage.RID
	start := time.Now()
	for i := 0; i < xindexLookupReps; i++ {
		rids, _ = fi.LookupFindKey(elm, key)
	}
	p.lookupTime += time.Since(start)
	p.lookupN += xindexLookupReps
	p.candidates += len(rids)
	ci := fi.ColumnIndex()
	for _, rid := range rids {
		row, err := t.Heap.Get(rid)
		if err != nil || row[ci].Kind() != types.KindXADT {
			continue
		}
		if ok, err := xadt.FindKeyInElm(xadt.FromBytes(row[ci].XADT()), elm, key); err == nil && ok {
			p.verified++
		}
	}
}

func (p *xindexProbe) addRows(st *core.Store, table, column string) {
	vals, t := storedFragments(st, table, column)
	if t == nil {
		return
	}
	fresh := xindex.NewFragmentIndex(table, column, t.Schema.ColIndex(column))
	start := time.Now()
	for _, sv := range vals {
		fresh.AddRow(sv.rid, sv.val)
	}
	p.addTime += time.Since(start)
	p.added += len(vals)
}

func (p *xindexProbe) sizes(xmlBytes int64, stores ...*core.Store) {
	p.xmlBytes += xmlBytes
	for _, st := range stores {
		for _, name := range st.DB.Catalog.TableNames() {
			for _, fi := range st.Table(name).FragIndexes {
				p.sizeBytes += fi.SizeBytes()
			}
		}
	}
}

func (p *xindexProbe) fill(m map[string]float64) {
	m["xindex.lookup_us"] = ratio(float64(p.lookupTime.Nanoseconds())/1e3, float64(p.lookupN))
	m["xindex.candidates_per_result_row"] = ratio(float64(p.candidates), float64(p.verified))
	m["xindex.addrow_us"] = ratio(float64(p.addTime.Nanoseconds())/1e3, float64(p.added))
	m["xindex.bytes_per_xml_byte"] = ratio(float64(p.sizeBytes), float64(p.xmlBytes))
}

// largestTable returns the table of st with the most rows.
func largestTable(st *core.Store) (string, *catalog.Table) {
	var name string
	var best *catalog.Table
	for _, n := range st.DB.Catalog.TableNames() {
		if t := st.Table(n); best == nil || t.Rows() > best.Rows() {
			name, best = n, t
		}
	}
	return name, best
}

// probeBTree times point lookups on the ID index of each store's
// largest table, the probe of index-loop joins and of WHERE id = ?.
func probeBTree(m map[string]float64, stores ...*core.Store) {
	var total time.Duration
	lookups, height := 0, 0
	for _, st := range stores {
		name, t := largestTable(st)
		rel := st.Schema.Relation(name)
		if t == nil || rel == nil {
			continue
		}
		ix := t.IndexOn(rel.IDColumn())
		if ix == nil {
			continue
		}
		if h := ix.Tree.Height(); h > height {
			height = h
		}
		n := ix.Tree.Len()
		found := 0
		start := time.Now()
		for id := 1; id <= n; id++ {
			found += len(ix.Tree.Lookup(types.NewInt(int64(id))))
		}
		total += time.Since(start)
		lookups += n
		_ = found
	}
	m["index.lookup_ns"] = ratio(float64(total.Nanoseconds()), float64(lookups))
	m["index.height"] = float64(height)
}

// probeStorage times a batch scan of each store's largest table, the
// access path under every full scan of the workloads.
func probeStorage(m map[string]float64, stores ...*core.Store) {
	const batch, scans = 1024, 5
	var rates []float64
	for s := 0; s < scans; s++ {
		var total time.Duration
		rows := 0
		for _, st := range stores {
			_, t := largestTable(st)
			if t == nil {
				continue
			}
			cols := make([][]types.Value, len(t.Schema.Columns))
			for i := range cols {
				cols[i] = make([]types.Value, batch)
			}
			cur := t.Heap.NewCursor()
			start := time.Now()
			for {
				n, err := cur.NextBatch(cols, batch)
				if err != nil || n == 0 {
					break
				}
				rows += n
			}
			total += time.Since(start)
		}
		rates = append(rates, ratio(float64(rows)/1e6, total.Seconds()))
	}
	m["storage.scan_mrows_s"] = median(rates)
}
