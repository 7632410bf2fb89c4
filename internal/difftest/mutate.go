package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/engine/plan"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/mapping"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// RunMutation executes the mutation-history differential axis: each
// iteration derives a random DTD and document set, builds a Hybrid and
// a XORator twin plus a WAL-backed durable XORator twin, then applies a
// seeded random sequence of mutations — SQL INSERT/UPDATE/DELETE,
// document add/remove/replace, and fragment splices — identically to
// all of them. After every op the twins must agree on a sample of the
// iteration's query suite across the DOP-1/DOP-N and index-on/off
// cells; every few ops the durable twin is killed (its handle simply
// abandoned), recovered from its checkpoint and WAL tail, and must be
// byte-identical to the never-durable XORator twin. SQL statements run
// against the durable twin with index scans disabled, so the B+tree and
// forced-scan DML access paths must pick identical victims or the
// byte-for-byte comparison fails.
//
// Iterations whose history is document-ops-only additionally compare
// the mutated stores against fresh stores loaded with just the
// surviving documents, on ID-insensitive queries: whatever a document
// add/remove/replace sequence reaches must be indistinguishable — up to
// synthetic IDs — from never having loaded the removed documents at
// all.
func RunMutation(opts Options) (*Summary, error) {
	opts.setDefaults()
	sum := &Summary{}
	for iter := 0; iter < opts.Iters; iter++ {
		seed := opts.Seed + int64(iter)
		ms, err := newMutState(opts, seed, nil, nil)
		if err != nil {
			return sum, fmt.Errorf("mutation iteration %d (seed %d): %w", iter, seed, err)
		}
		divs, cells, err := ms.run(opts)
		if err != nil {
			return sum, fmt.Errorf("mutation iteration %d (seed %d): %w", iter, seed, err)
		}
		sum.Iters++
		sum.Cases += len(ms.cases)
		sum.Cells += cells
		if len(divs) > 0 {
			for i := range divs {
				divs[i].Iter, divs[i].Seed = iter, seed
			}
			sum.Divergences = append(sum.Divergences, divs...)
			fmt.Fprintf(opts.Log, "difftest: mutation iteration %d (seed %d) diverged: %s\n",
				iter, seed, divs[0].Detail)
			if sum.Artifact == "" {
				min := minimizeMutation(opts, seed, ms, divs[0])
				if err := writeMutationArtifact(opts, min, divs[0]); err != nil {
					fmt.Fprintf(opts.Log, "difftest: writing artifact: %v\n", err)
				} else {
					sum.Artifact = opts.ArtifactPath
				}
			}
			if opts.FailFast {
				break
			}
		}
		if (iter+1)%5 == 0 {
			fmt.Fprintf(opts.Log, "difftest: mutation %d/%d iterations, %d cells, %d divergences\n",
				iter+1, opts.Iters, sum.Cells, len(sum.Divergences))
		}
	}
	return sum, nil
}

// mutState is one mutation iteration: the generated inputs, the three
// twins, and the live-document bookkeeping the op generator draws from.
type mutState struct {
	seed   int64
	dtdSrc string
	root   string
	d      *dtd.DTD
	format *xadt.Format
	docs   []*xmltree.Document
	texts  []string

	// rng drives op selection and op payloads. It is seeded separately
	// from document generation so a minimized run (fewer initial docs)
	// still replays the same op stream.
	rng     *rand.Rand
	docOnly bool

	hy, xo *core.Store
	// dur is the WAL-backed XORator twin; durVFS is its filesystem, kept
	// so the twin can be "killed" and recovered in place mid-history.
	dur    *core.Store
	durVFS storage.VFS

	live     []int64
	liveDocs map[int64]*xmltree.Document
	// maxLive caps the live-document set so a long history cannot grow
	// the tables without bound; LoadRepeat raises it past the default.
	maxLive int
	// nextNeg allocates IDs for SQL INSERTs. Negative IDs can never
	// collide with the shredder's counters (which only count up from 1),
	// so an inserted row neither aliases a document row nor disturbs the
	// ID sequence the next document add will use.
	nextNeg int64
	// fragDirty is set once any SQL mutation or fragment splice has run:
	// from then on the cross-mapping cases that relate XADT fragment
	// content to Hybrid child relations (xadtcount, xadtfindkey) are no
	// longer equivalent — a splice rewrites only the XORator fragment,
	// and row-level DML cannot touch the fragment and the child rows in
	// lockstep. Document-level ops keep full equivalence.
	fragDirty bool

	samp  *docSamples
	cases []Case
	opLog []string
}

// newMutState derives the iteration inputs from seed and builds the
// twins. A non-nil docs overrides document generation (minimization);
// the format decision is drawn before the documents so a minimized run
// keeps the original representation.
func newMutState(opts Options, seed int64, docs []*xmltree.Document, texts []string) (*mutState, error) {
	genRng := rand.New(rand.NewSource(seed))
	ms := &mutState{seed: seed, root: "E0", nextNeg: -1, liveDocs: map[int64]*xmltree.Document{}}
	ms.dtdSrc = genDTD(genRng)
	var err error
	ms.d, err = dtd.Parse(ms.dtdSrc)
	if err != nil {
		return nil, fmt.Errorf("generated DTD does not parse: %w\n%s", err, ms.dtdSrc)
	}
	switch genRng.Intn(3) {
	case 0: // let the stores sample and choose
	case 1:
		f := xadt.Raw
		ms.format = &f
	default:
		f := xadt.Compressed
		ms.format = &f
	}
	if docs == nil {
		docs, texts, err = genDocs(genRng, ms.d, ms.root, opts.Docs)
		if err != nil {
			return nil, err
		}
	}
	ms.docs, ms.texts = docs, texts
	ms.rng = rand.New(rand.NewSource(seed ^ 0x6d757461))
	ms.docOnly = ms.rng.Intn(4) == 0
	if err := ms.build(opts); err != nil {
		return nil, err
	}
	ms.samp = collectSamples(ms.docs)
	caseRng := rand.New(rand.NewSource(seed ^ 0x9ca5e5))
	ms.cases = generateCases(caseRng, ms.hy.Schema, ms.xo.Schema, ms.hy.Simplified, ms.samp, 1)
	return ms, nil
}

func (ms *mutState) build(opts Options) error {
	mkPlain := func(alg core.Algorithm) (*core.Store, error) {
		return core.NewStore(ms.dtdSrc, core.Config{Algorithm: alg, ForceFormat: ms.format})
	}
	var err error
	if ms.hy, err = mkPlain(core.Hybrid); err != nil {
		return fmt.Errorf("hybrid store: %w", err)
	}
	if ms.xo, err = mkPlain(core.XORator); err != nil {
		return fmt.Errorf("xorator store: %w", err)
	}
	ms.durVFS = storage.NewMemVFS()
	ms.dur, err = core.NewStore(ms.dtdSrc, core.Config{Algorithm: core.XORator, ForceFormat: ms.format,
		Engine: engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: ms.durVFS}})
	if err != nil {
		return fmt.Errorf("durable store: %w", err)
	}
	// The initial documents enter through AddDocuments, not Load, so the
	// whole history — including the first documents — is removable.
	// LoadRepeat replicates them, giving DOP cells enough pages to split
	// into more than one morsel.
	initial := ms.docs
	for r := 1; r < opts.LoadRepeat; r++ {
		initial = append(initial, ms.docs...)
	}
	ids, err := ms.addEverywhere(initial)
	if err != nil {
		return err
	}
	for i, id := range ids {
		ms.live = append(ms.live, id)
		ms.liveDocs[id] = initial[i]
	}
	ms.maxLive = 10
	if len(ms.live) > ms.maxLive {
		ms.maxLive = len(ms.live)
	}
	for _, s := range ms.stores() {
		if err := s.CreateDefaultIndexes(); err != nil {
			return err
		}
		if err := s.RunStats(); err != nil {
			return err
		}
	}
	return nil
}

func (ms *mutState) stores() []*core.Store { return []*core.Store{ms.hy, ms.xo, ms.dur} }

// addEverywhere adds the documents to all three twins and requires the
// per-store document ID allocation to agree.
func (ms *mutState) addEverywhere(docs []*xmltree.Document) ([]int64, error) {
	ref, err := ms.hy.AddDocuments(docs)
	if err != nil {
		return nil, fmt.Errorf("hybrid add: %w", err)
	}
	for _, s := range []*core.Store{ms.xo, ms.dur} {
		ids, err := s.AddDocuments(docs)
		if err != nil {
			return nil, err
		}
		if len(ids) != len(ref) {
			return nil, fmt.Errorf("document ID allocation diverged: %v vs %v", ids, ref)
		}
		for i := range ids {
			if ids[i] != ref[i] {
				return nil, fmt.Errorf("document ID allocation diverged: %v vs %v", ids, ref)
			}
		}
	}
	return ref, nil
}

// run applies the op sequence, checking after every op and recovering
// the durable twin every few ops. It stops at the first divergent op:
// state after a divergence is already suspect, so piling on follow-up
// divergences would only bury the interesting one.
func (ms *mutState) run(opts Options) ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	for op := 0; op < opts.Ops; op++ {
		desc, ds, err := ms.applyOp()
		if err != nil {
			return divs, cells, fmt.Errorf("op %d (%s): %w", op, desc, err)
		}
		ms.opLog = append(ms.opLog, desc)
		cells++ // the op itself (count agreement) is a checked cell
		divs = append(divs, ds...)
		if len(divs) > 0 {
			return divs, cells, nil
		}
		// A rotating sample of the query suite runs after every op; the
		// full suite runs at the end of the history.
		for j := 0; j < 3 && j < len(ms.cases); j++ {
			c := ms.cases[(op*3+j)%len(ms.cases)]
			ds, n, err := ms.checkMutCase(opts, c)
			cells += n
			if err != nil {
				return divs, cells, fmt.Errorf("op %d (%s) case %s: %w", op, desc, c.Name, err)
			}
			divs = append(divs, ds...)
		}
		if len(divs) > 0 {
			return divs, cells, nil
		}
		if op%8 == 7 {
			ds, n, err := ms.recoverDurable()
			cells += n
			if err != nil {
				return divs, cells, fmt.Errorf("op %d (%s): %w", op, desc, err)
			}
			divs = append(divs, ds...)
			if len(divs) > 0 {
				return divs, cells, nil
			}
		}
	}
	ds, n, err := ms.recoverDurable()
	cells += n
	if err != nil {
		return divs, cells, err
	}
	divs = append(divs, ds...)
	for _, c := range ms.cases {
		cds, n, err := ms.checkMutCase(opts, c)
		cells += n
		if err != nil {
			return divs, cells, fmt.Errorf("final sweep case %s: %w", c.Name, err)
		}
		divs = append(divs, cds...)
	}
	if ms.docOnly {
		fds, n, err := ms.checkFreshLoad()
		cells += n
		if err != nil {
			return divs, cells, err
		}
		divs = append(divs, fds...)
	}
	return divs, cells, nil
}

// ---- op generation and application ----------------------------------------

const (
	opAdd = iota
	opRemove
	opReplace
	opInsert
	opUpdate
	opDelete
	opSplice
)

func (ms *mutState) applyOp() (string, []Divergence, error) {
	var kind int
	if ms.docOnly {
		kind = []int{opAdd, opAdd, opRemove, opReplace}[ms.rng.Intn(4)]
	} else {
		kind = []int{opAdd, opAdd, opRemove, opReplace, opInsert, opUpdate, opDelete, opSplice}[ms.rng.Intn(8)]
	}
	// Keep the live set in [1, maxLive]: at least one document so the
	// query suite stays non-trivial, and bounded above so a long history
	// cannot grow the tables without bound.
	if kind == opAdd && len(ms.live) >= ms.maxLive {
		kind = opRemove
	}
	if kind == opRemove && len(ms.live) <= 1 {
		kind = opAdd
	}
	switch kind {
	case opAdd:
		desc, err := ms.opAddDoc()
		return desc, nil, err
	case opRemove:
		desc, err := ms.opRemoveDoc()
		return desc, nil, err
	case opReplace:
		desc, err := ms.opReplaceDoc()
		return desc, nil, err
	case opInsert:
		return ms.opSQLInsert()
	case opUpdate:
		return ms.opSQLUpdate()
	case opDelete:
		return ms.opSQLDelete()
	default:
		return ms.opSplice()
	}
}

func (ms *mutState) opAddDoc() (string, error) {
	docs, _, err := genDocs(ms.rng, ms.d, ms.root, 1)
	if err != nil {
		return "add", err
	}
	ids, err := ms.addEverywhere(docs)
	if err != nil {
		return "add", err
	}
	ms.live = append(ms.live, ids[0])
	ms.liveDocs[ids[0]] = docs[0]
	return fmt.Sprintf("add doc %d", ids[0]), nil
}

func (ms *mutState) opRemoveDoc() (string, error) {
	i := ms.rng.Intn(len(ms.live))
	id := ms.live[i]
	desc := fmt.Sprintf("remove doc %d", id)
	for _, s := range ms.stores() {
		if err := s.RemoveDocument(id); err != nil {
			return desc, err
		}
	}
	ms.live = append(ms.live[:i], ms.live[i+1:]...)
	delete(ms.liveDocs, id)
	return desc, nil
}

func (ms *mutState) opReplaceDoc() (string, error) {
	id := ms.live[ms.rng.Intn(len(ms.live))]
	desc := fmt.Sprintf("replace doc %d", id)
	docs, _, err := genDocs(ms.rng, ms.d, ms.root, 1)
	if err != nil {
		return desc, err
	}
	for _, s := range ms.stores() {
		if err := s.ReplaceDocument(id, docs[0]); err != nil {
			return desc, err
		}
	}
	ms.liveDocs[id] = docs[0]
	return desc, nil
}

// execEverywhere runs one SQL statement on all three twins. The durable
// twin executes with index scans disabled, making every statement an
// indexed-vs-scan differential: the later byte-for-byte store comparison
// fails if the two access paths picked different victims.
func (ms *mutState) execEverywhere(stmt string) ([]Divergence, error) {
	nh, err := ms.hy.Exec(stmt)
	if err != nil {
		return nil, fmt.Errorf("hybrid %q: %w", stmt, err)
	}
	nx, err := ms.xo.Exec(stmt)
	if err != nil {
		return nil, fmt.Errorf("xorator %q: %w", stmt, err)
	}
	ms.dur.DB.SetPlannerOptions(plan.Options{DOP: 1, DisableIndexScan: true})
	nd, err := ms.dur.Exec(stmt)
	ms.dur.DB.SetPlannerOptions(plan.Options{DOP: 1})
	if err != nil {
		return nil, fmt.Errorf("durable %q: %w", stmt, err)
	}
	if nh != nx || nx != nd {
		return []Divergence{{Case: Case{Name: "(dml)", Hybrid: stmt, XORator: stmt},
			Axis:   "mutation:dml-count",
			Detail: fmt.Sprintf("%q affected hybrid=%d xorator=%d durable=%d", stmt, nh, nx, nd)}}, nil
	}
	return nil, nil
}

func (ms *mutState) opSQLInsert() (string, []Divergence, error) {
	pairs := sharedRelPairs(ms.hy.Schema, ms.xo.Schema)
	if len(pairs) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	p := pairs[ms.rng.Intn(len(pairs))]
	cols := sharedColumns(p)
	names := make([]string, 0, len(cols))
	idPos := -1
	for _, c := range cols {
		if c.Kind == mapping.KindID {
			idPos = len(names)
		}
		names = append(names, c.Name)
	}
	if idPos < 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	var tuples []string
	for r, nr := 0, 1+ms.rng.Intn(2); r < nr; r++ {
		vals := make([]string, len(cols))
		for i, c := range cols {
			switch {
			case i == idPos:
				vals[i] = fmt.Sprint(ms.nextNeg)
				ms.nextNeg--
			case c.Type == mapping.Int:
				if ms.rng.Intn(4) == 0 {
					vals[i] = "NULL"
				} else {
					vals[i] = fmt.Sprint(ms.rng.Intn(6))
				}
			default:
				if ms.rng.Intn(4) == 0 {
					vals[i] = "NULL"
				} else {
					vals[i] = sqlString(plainWords[ms.rng.Intn(len(plainWords))])
				}
			}
		}
		tuples = append(tuples, "("+strings.Join(vals, ", ")+")")
	}
	stmt := fmt.Sprintf("INSERT INTO %s (%s) VALUES %s",
		p.hy.Name, strings.Join(names, ", "), strings.Join(tuples, ", "))
	ms.fragDirty = true
	divs, err := ms.execEverywhere(stmt)
	return stmt, divs, err
}

// dmlWhere builds a WHERE clause over shared columns, biased toward
// equality on the ID column so the DML index access path actually fires.
func (ms *mutState) dmlWhere(p relPair, cols []mapping.Column) string {
	idName := p.hy.IDColumn()
	max := int(ms.maxLiveID(p.hy.Name))
	if max < 1 {
		max = 1
	}
	switch ms.rng.Intn(4) {
	case 0:
		a := 1 + ms.rng.Intn(max)
		return fmt.Sprintf(" WHERE %s >= %d AND %s <= %d", idName, a, idName, a+ms.rng.Intn(3))
	case 1:
		if strs := colsOfType(cols, mapping.String); len(strs) > 0 {
			c := strs[ms.rng.Intn(len(strs))]
			w := plainWords[ms.rng.Intn(len(plainWords))]
			return fmt.Sprintf(" WHERE %s LIKE %s", c.Name, sqlString("%"+w+"%"))
		}
		fallthrough
	default:
		return fmt.Sprintf(" WHERE %s = %d", idName, 1+ms.rng.Intn(max))
	}
}

// maxLiveID reports the highest stored ID in a relation (0 if empty).
func (ms *mutState) maxLiveID(table string) int64 {
	rel := ms.xo.Schema.Relation(table)
	t := ms.xo.Table(table)
	if rel == nil || t == nil {
		return 0
	}
	idc := relIDIdx(rel)
	if idc < 0 {
		return 0
	}
	var max int64
	_ = t.Heap.Scan(func(_ storage.RID, row []types.Value) error {
		if v := row[idc]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() > max {
			max = v.Int()
		}
		return nil
	})
	return max
}

func relIDIdx(rel *mapping.Relation) int {
	for i, c := range rel.Columns {
		if c.Kind == mapping.KindID {
			return i
		}
	}
	return -1
}

func (ms *mutState) opSQLUpdate() (string, []Divergence, error) {
	pairs := sharedRelPairs(ms.hy.Schema, ms.xo.Schema)
	if len(pairs) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	p := pairs[ms.rng.Intn(len(pairs))]
	cols := sharedColumns(p)
	var settable []mapping.Column
	for _, c := range cols {
		switch c.Kind {
		case mapping.KindValue, mapping.KindAttr, mapping.KindInlined, mapping.KindInlinedAttr:
			settable = append(settable, c)
		}
	}
	if len(settable) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	ms.rng.Shuffle(len(settable), func(i, j int) { settable[i], settable[j] = settable[j], settable[i] })
	k := 1 + ms.rng.Intn(2)
	if k > len(settable) {
		k = len(settable)
	}
	var sets []string
	for _, c := range settable[:k] {
		v := sqlString(plainWords[ms.rng.Intn(len(plainWords))])
		if ms.rng.Intn(5) == 0 {
			v = "NULL"
		}
		sets = append(sets, fmt.Sprintf("%s = %s", c.Name, v))
	}
	stmt := fmt.Sprintf("UPDATE %s SET %s%s", p.hy.Name, strings.Join(sets, ", "), ms.dmlWhere(p, cols))
	ms.fragDirty = true
	divs, err := ms.execEverywhere(stmt)
	return stmt, divs, err
}

func (ms *mutState) opSQLDelete() (string, []Divergence, error) {
	pairs := sharedRelPairs(ms.hy.Schema, ms.xo.Schema)
	if len(pairs) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	p := pairs[ms.rng.Intn(len(pairs))]
	stmt := fmt.Sprintf("DELETE FROM %s%s", p.hy.Name, ms.dmlWhere(p, sharedColumns(p)))
	ms.fragDirty = true
	divs, err := ms.execEverywhere(stmt)
	return stmt, divs, err
}

// opSplice rewrites one row's XADT fragment on the two XORator twins.
// The Hybrid twin keeps its shredded child rows, so splices only run on
// XORator and the fragile cross-mapping cases retire (fragDirty).
func (ms *mutState) opSplice() (string, []Divergence, error) {
	xcols := schemaXadtCols(ms.xo.Schema)
	if len(xcols) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	x := xcols[ms.rng.Intn(len(xcols))]
	rel := ms.xo.Schema.Relation(x.rel.Name)
	t := ms.xo.Table(x.rel.Name)
	idc := relIDIdx(rel)
	var ids []int64
	_ = t.Heap.Scan(func(_ storage.RID, row []types.Value) error {
		if v := row[idc]; !v.IsNull() && v.Kind() == types.KindInt {
			ids = append(ids, v.Int())
		}
		return nil
	})
	if len(ids) == 0 {
		desc, err := ms.opAddDoc()
		return desc, nil, err
	}
	id := ids[ms.rng.Intn(len(ids))]
	var frags []string
	for i, n := 0, ms.rng.Intn(3); i < n; i++ {
		frags = append(frags, fmt.Sprintf("<%s>%s %s</%s>", x.child,
			plainWords[ms.rng.Intn(len(plainWords))], plainWords[ms.rng.Intn(len(plainWords))], x.child))
	}
	desc := fmt.Sprintf("splice %s.%s id=%d frags=%d", x.rel.Name, x.col.Name, id, len(frags))
	ms.fragDirty = true
	for _, s := range []*core.Store{ms.xo, ms.dur} {
		if err := s.SpliceFragment(x.rel.Name, x.col.Name, id, frags); err != nil {
			return desc, nil, err
		}
	}
	return desc, nil, nil
}

// ---- per-op query checks ---------------------------------------------------

// runStoreQuery executes one query under the given planner options,
// restoring the store's default configuration afterwards.
func runStoreQuery(s *core.Store, o plan.Options, sql string) (*engine.Result, error) {
	s.DB.SetPlannerOptions(o)
	defer s.DB.SetPlannerOptions(plan.Options{DOP: 1})
	res, err := s.Query(sql)
	if err != nil {
		return nil, fmt.Errorf("%q: %w", sql, err)
	}
	return res, nil
}

// fragileCross reports whether a cross case relates fragment content to
// Hybrid child relations, the equivalence row-level mutations break.
func fragileCross(name string) bool {
	return strings.Contains(name, "xadtcount") || strings.Contains(name, "xadtfindkey")
}

// parallelOptions are the options of the harness's DOP cells.
func parallelOptions(opts Options) plan.Options {
	return plan.Options{DOP: opts.DOP, MorselPages: 1, ForceParallel: true}
}

// noIndex turns o into a "noindex" cell's options: no fragment index,
// no B+tree scan and no index nested-loop join, so the cell reads only
// the heap and catches an index that drifted from it.
func noIndex(o plan.Options) plan.Options {
	o.DisableXADTIndexes = true
	o.DisableIndexScan = true
	return o
}

// checkMutCase runs one case across the mutation cell set: serial
// reference vs DOP-N, index-on vs index-off (both the XADT fragment
// indexes and the B+tree scans), and — while the
// mapping equivalence holds — the cross-mapping multiset comparison.
func (ms *mutState) checkMutCase(opts Options, c Case) ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	record := func(axis, detail string) {
		divs = append(divs, Divergence{Case: c, Axis: axis, Detail: detail})
	}
	serial := plan.Options{DOP: 1}
	par := parallelOptions(opts)
	noIdx, noIdxPar := noIndex(serial), noIndex(par)
	var hyRef, xoRef *engine.Result
	if c.Hybrid != "" {
		ref, err := runStoreQuery(ms.hy, serial, c.Hybrid)
		if err != nil {
			return divs, cells, fmt.Errorf("hybrid %w", err)
		}
		hyRef = ref
		for _, cell := range []cellSpec{
			{"hybrid:dop", par},
			{"hybrid:noindex", noIdx},
			{"hybrid:noindex+dop", noIdxPar},
		} {
			got, err := runStoreQuery(ms.hy, cell.o, c.Hybrid)
			if err != nil {
				return divs, cells, fmt.Errorf("hybrid %w", err)
			}
			cells++
			if !sameRows(ref.Rows, got.Rows) {
				record(cell.axis, diffRows(ref.Rows, got.Rows))
			}
		}
	}
	if c.XORator != "" {
		ref, err := runStoreQuery(ms.xo, serial, c.XORator)
		if err != nil {
			return divs, cells, fmt.Errorf("xorator %w", err)
		}
		xoRef = ref
		for _, cell := range []cellSpec{
			{"xorator:dop", par},
			{"xorator:noindex", noIdx},
			{"xorator:noindex+dop", noIdxPar},
		} {
			got, err := runStoreQuery(ms.xo, cell.o, c.XORator)
			if err != nil {
				return divs, cells, fmt.Errorf("xorator %w", err)
			}
			cells++
			if !sameRows(ref.Rows, got.Rows) {
				record(cell.axis, diffRows(ref.Rows, got.Rows))
			}
		}
	}
	if c.Cross && hyRef != nil && xoRef != nil && !(ms.fragDirty && fragileCross(c.Name)) {
		cells++
		a, b := sortedCanon(hyRef.Rows), sortedCanon(xoRef.Rows)
		if !equalStrings(a, b) {
			record("mutation:cross-mapping", diffCanon(a, b))
		}
	}
	return divs, cells, nil
}

// recoverDurable kills the durable twin — its handle is simply
// abandoned, exactly what a crash leaves behind — recovers the store
// from the same filesystem, and requires the result to be
// byte-identical to the never-durable XORator twin. Half the time a
// checkpoint lands first, so histories recover across both snapshot
// and log-tail boundaries.
func (ms *mutState) recoverDurable() ([]Divergence, int, error) {
	var divs []Divergence
	cells := 0
	if ms.rng.Intn(2) == 0 {
		if err := ms.dur.Checkpoint(); err != nil {
			return nil, 0, fmt.Errorf("checkpointing durable twin: %w", err)
		}
	}
	rec, err := core.OpenRecovered(core.Config{Algorithm: core.XORator, ForceFormat: ms.format,
		Engine: engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: ms.durVFS}})
	if err != nil {
		return nil, 0, fmt.Errorf("recovering durable twin: %w", err)
	}
	ms.dur = rec
	if err := rec.CreateDefaultIndexes(); err != nil {
		return nil, 0, err
	}
	// Re-analyze both twins: the recovered store carries the checkpoint's
	// statistics (possibly from before any document was loaded) while the
	// uninterrupted twin carries statistics that drifted through the
	// history. The recovered-query cells compare row order exactly, so the
	// planners must see identical statistics — refresh both over the
	// byte-identical heaps.
	if err := rec.RunStats(); err != nil {
		return nil, 0, err
	}
	if err := ms.xo.RunStats(); err != nil {
		return nil, 0, err
	}
	cells++
	if err := CompareStores(rec, ms.xo); err != nil {
		divs = append(divs, Divergence{Case: Case{Name: "(recovered state)"},
			Axis: "mutation:recovered-state", Detail: err.Error()})
		return divs, cells, nil
	}
	// A couple of queries against the freshly recovered store, compared
	// to the uninterrupted twin.
	for j := 0; j < 2 && j < len(ms.cases); j++ {
		c := ms.cases[ms.rng.Intn(len(ms.cases))]
		if c.XORator == "" {
			continue
		}
		ref, err := runStoreQuery(ms.xo, plan.Options{DOP: 1}, c.XORator)
		if err != nil {
			return divs, cells, fmt.Errorf("xorator %w", err)
		}
		got, err := runStoreQuery(rec, plan.Options{DOP: 1}, c.XORator)
		if err != nil {
			return divs, cells, fmt.Errorf("recovered %w", err)
		}
		cells++
		if !sameRows(ref.Rows, got.Rows) {
			divs = append(divs, Divergence{Case: c, Axis: "mutation:recovered-query",
				Detail: diffRows(ref.Rows, got.Rows)})
		}
	}
	return divs, cells, nil
}

// checkFreshLoad compares the mutated stores against fresh stores
// holding only the surviving documents. Synthetic IDs differ (the
// mutated store's counters never rewind), so the comparison runs
// ID-insensitive queries: row counts, value-group counts, and fragment
// counts must all be indistinguishable from never having loaded the
// removed documents.
func (ms *mutState) checkFreshLoad() ([]Divergence, int, error) {
	docs := make([]*xmltree.Document, 0, len(ms.live))
	for _, id := range ms.live {
		docs = append(docs, ms.liveDocs[id])
	}
	mk := func(alg core.Algorithm) (*core.Store, error) {
		s, err := core.NewStore(ms.dtdSrc, core.Config{Algorithm: alg, ForceFormat: ms.format})
		if err != nil {
			return nil, err
		}
		if _, err := s.AddDocuments(docs); err != nil {
			return nil, err
		}
		if err := s.CreateDefaultIndexes(); err != nil {
			return nil, err
		}
		if err := s.RunStats(); err != nil {
			return nil, err
		}
		return s, nil
	}
	fhy, err := mk(core.Hybrid)
	if err != nil {
		return nil, 0, fmt.Errorf("fresh hybrid store: %w", err)
	}
	fxo, err := mk(core.XORator)
	if err != nil {
		return nil, 0, fmt.Errorf("fresh xorator store: %w", err)
	}
	var divs []Divergence
	cells := 0
	check := func(mutated, fresh *core.Store, axis, q string) error {
		a, err := runStoreQuery(mutated, plan.Options{DOP: 1}, q)
		if err != nil {
			return err
		}
		b, err := runStoreQuery(fresh, plan.Options{DOP: 1}, q)
		if err != nil {
			return err
		}
		cells++
		ca, cb := sortedCanon(a.Rows), sortedCanon(b.Rows)
		if !equalStrings(ca, cb) {
			divs = append(divs, Divergence{Case: Case{Name: "freshload", Hybrid: q, XORator: q},
				Axis: axis, Detail: diffCanon(ca, cb)})
		}
		return nil
	}
	for _, p := range sharedRelPairs(ms.hy.Schema, ms.xo.Schema) {
		qs := []string{"SELECT COUNT(*) FROM " + p.hy.Name}
		if strs := colsOfType(sharedColumns(p), mapping.String); len(strs) > 0 {
			c := strs[0]
			qs = append(qs, fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", c.Name, p.hy.Name, c.Name))
		}
		for _, q := range qs {
			if err := check(ms.hy, fhy, "hybrid:fresh-load", q); err != nil {
				return divs, cells, err
			}
			if err := check(ms.xo, fxo, "xorator:fresh-load", q); err != nil {
				return divs, cells, err
			}
		}
	}
	for _, x := range schemaXadtCols(ms.xo.Schema) {
		q := fmt.Sprintf("SELECT COUNT(*) FROM %s, TABLE(unnest(%s, %s)) u",
			x.rel.Name, x.col.Name, sqlString(x.child))
		if err := check(ms.xo, fxo, "xorator:fresh-load", q); err != nil {
			return divs, cells, err
		}
	}
	return divs, cells, nil
}

// ---- minimization and the failure artifact ---------------------------------

// minimizeMutation re-runs the iteration on progressively smaller
// initial document sets. The op stream is seeded independently of the
// documents, so a reduced run replays a similar history; a removal is
// kept only when the same axis still diverges.
func minimizeMutation(opts Options, seed int64, ms *mutState, d Divergence) *mutState {
	best := ms
	docs, texts := ms.docs, ms.texts
	for i := len(docs) - 1; i >= 0 && len(docs) > 1; i-- {
		tryDocs := make([]*xmltree.Document, 0, len(docs)-1)
		tryDocs = append(append(tryDocs, docs[:i]...), docs[i+1:]...)
		tryTexts := make([]string, 0, len(texts)-1)
		tryTexts = append(append(tryTexts, texts[:i]...), texts[i+1:]...)
		sub, err := newMutState(opts, seed, tryDocs, tryTexts)
		if err != nil {
			continue
		}
		divs, _, err := sub.run(opts)
		if err != nil {
			continue
		}
		for _, sd := range divs {
			if sd.Axis == d.Axis {
				docs, texts, best = tryDocs, tryTexts, sub
				break
			}
		}
	}
	return best
}

func writeMutationArtifact(opts Options, ms *mutState, d Divergence) error {
	var sb strings.Builder
	sb.WriteString("# difftest mutation divergence artifact\n")
	fmt.Fprintf(&sb, "# replay: go run ./cmd/repro -exp difftest -mutate -seed %d -iters 1\n", d.Seed)
	fmt.Fprintf(&sb, "seed: %d\niteration: %d\ncase: %s\naxis: %s\ndetail: %s\n",
		d.Seed, d.Iter, d.Case.Name, d.Axis, d.Detail)
	if ms.format != nil {
		fmt.Fprintf(&sb, "xadt format: %v\n", *ms.format)
	}
	fmt.Fprintf(&sb, "ops: %d, dop: %d, doc-only: %v\n", opts.Ops, opts.DOP, ms.docOnly)
	if d.Case.Hybrid != "" || d.Case.XORator != "" {
		fmt.Fprintf(&sb, "\n--- hybrid SQL ---\n%s\n\n--- xorator SQL ---\n%s\n", d.Case.Hybrid, d.Case.XORator)
	}
	sb.WriteString("\n--- mutation history ---\n")
	for i, op := range ms.opLog {
		fmt.Fprintf(&sb, "%3d: %s\n", i, op)
	}
	fmt.Fprintf(&sb, "\n--- DTD ---\n%s", ms.dtdSrc)
	for i, t := range ms.texts {
		fmt.Fprintf(&sb, "\n--- document %d of %d (minimized) ---\n%s\n", i+1, len(ms.texts), t)
	}
	return os.WriteFile(opts.ArtifactPath, []byte(sb.String()), 0o644)
}
