// Parallel (intra-query) execution: a morsel-driven scan, the
// Gather exchange operator that fans a pipeline out across workers, and
// a shared hash-join build.
//
// Design: the planner clones a scan-rooted pipeline once per worker
// (expressions are cloned with expr.Clone so per-instance state is never
// shared) and roots every clone at a MorselScan. At runtime the Gather's
// workers pull page-range morsels from one atomic MorselSource, run
// their pipeline over each morsel, and post the resulting row batch
// tagged with the morsel's sequence number. Gather reassembles batches
// in sequence order, so a parallel plan emits rows in exactly the order
// the serial plan would — parallelism is observable only as speed.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
)

// MorselScan reads one page range of a table at a time. It is the leaf
// of a parallel pipeline: the owning Gather re-targets it with SetRange
// for every morsel its worker claims. A fused predicate (the parallel
// twin of SeqScan.Pred) runs inside the worker, so pushed-down filters
// parallelize across morsels. It decodes page runs column-major into a
// pooled batch, exactly like SeqScan.
type MorselScan struct {
	Table *catalog.Table
	Alias string
	// Cols are the stored columns decoded, as in SeqScan.Cols.
	Cols []int
	Pred expr.Expr // optional, resolved against the scan schema
	// Est is the planner's estimated output cardinality for the whole
	// scan (copied from the SeqScan it replaces); advisory only.
	Est    float64
	schema *expr.RowSchema
	lo, hi int
	cursor *storage.Cursor

	batch   *vec.Batch
	scratch expr.VecScratch
	shim    rowShim
}

// NewMorselScan returns a morsel-ranged scan of the stored columns cols
// (nil: all) of the table under the alias. The range is empty until
// SetRange.
func NewMorselScan(t *catalog.Table, alias string, cols []int) *MorselScan {
	return &MorselScan{Table: t, Alias: alias, Cols: cols, schema: TableSchema(t, alias, cols)}
}

// SetRange targets the scan at pages [lo, hi) for the next Open.
func (s *MorselScan) SetRange(lo, hi int) { s.lo, s.hi = lo, hi }

// Schema implements Operator.
func (s *MorselScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *MorselScan) Open() error {
	s.cursor = s.Table.Heap.NewRangeCursor(s.lo, s.hi, s.Cols)
	s.shim.reset()
	if s.batch == nil {
		s.batch = vec.Get(len(s.schema.Cols))
	}
	return nil
}

// NextBatch implements BatchOperator.
func (s *MorselScan) NextBatch() (*vec.Batch, error) {
	b := s.batch
	n, err := s.cursor.NextBatch(b.Cols, b.Cap())
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	b.NRows, b.Sel = n, nil
	if s.Pred != nil {
		if err := expr.FilterBatch(s.Pred, b, &s.scratch); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Next implements Operator.
func (s *MorselScan) Next() ([]types.Value, error) {
	return s.shim.next(s.NextBatch)
}

// Close implements Operator.
func (s *MorselScan) Close() error {
	s.cursor = nil
	vec.Release(s.batch)
	s.batch = nil
	s.shim.reset()
	return nil
}

// String describes the scan for plan explanations.
func (s *MorselScan) String() string {
	if s.Pred != nil {
		return fmt.Sprintf("MorselScan(%s as %s, filter: %s) [vec]", s.Table.Schema.Table, s.Alias, s.Pred)
	}
	return fmt.Sprintf("MorselScan(%s as %s) [vec]", s.Table.Schema.Table, s.Alias)
}

// Pipeline is one worker's copy of a parallelized plan fragment: the
// cloned operator chain and the MorselScan at its leaf.
type Pipeline struct {
	Root Operator
	Leaf *MorselScan
}

// Resettable is per-execution shared state (e.g. a shared hash-join
// build) that a Gather resets when it is re-opened.
type Resettable interface{ Reset() }

// morselBatch is the fully evaluated output of one morsel: rows when the
// pipeline ran row-at-a-time, pooled column batches when it ran
// vectorized. The batches are owned by whoever holds the morselBatch and
// must be released exactly once.
type morselBatch struct {
	seq     int
	rows    [][]types.Value
	batches []*vec.Batch
	err     error
}

// releaseBatches returns every batch of a morsel to the pool.
func releaseBatches(bs []*vec.Batch) {
	for _, b := range bs {
		vec.Release(b)
	}
}

// drainBatches runs a batch-capable pipeline to completion over its
// current morsel, compacting each produced batch into a pooled copy that
// can cross the worker→Gather channel. On error no batches are returned
// (partial output is released).
func drainBatches(op Operator) ([]*vec.Batch, error) {
	bop := op.(BatchOperator)
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out []*vec.Batch
	fail := func(err error) ([]*vec.Batch, error) {
		op.Close()
		releaseBatches(out)
		return nil, err
	}
	for {
		b, err := bop.NextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		if b.Active() == 0 {
			continue
		}
		nb := vec.Get(len(b.Cols))
		vec.CompactInto(nb, b)
		out = append(out, nb)
	}
	if err := op.Close(); err != nil {
		releaseBatches(out)
		return nil, err
	}
	return out, nil
}

// DisableGatherReorder, when true, makes every Gather serve batches in
// arrival order instead of morsel-sequence order — deliberately breaking
// the ordering contract documented below. It exists only so the
// differential harness (internal/difftest, repro -sabotage) can prove it
// detects a corrupted configuration; never enable it outside tests.
var DisableGatherReorder = false

// Gather is the exchange operator: it runs N worker pipelines over a
// shared MorselSource and merges their output back into one pull-based
// stream, preserving Operator semantics so operators above it compose
// unchanged. Output order is the serial scan order (batches are
// reassembled by morsel sequence), so plans behave identically at every
// degree of parallelism.
type Gather struct {
	Pipes []Pipeline
	// MorselPages overrides the pages-per-morsel unit; 0 uses
	// storage.DefaultMorselPages.
	MorselPages int
	// Shared is per-execution state reused by all workers (hash builds,
	// materialized join inners); it is reset on every Open.
	Shared []Resettable

	schema *expr.RowSchema
	// batched makes the workers drain their pipelines batch-at-a-time and
	// Gather forward whole batches; Open sets it when every pipeline root
	// produces batches.
	batched bool

	src     *storage.MorselSource
	ch      chan morselBatch
	cancel  chan struct{}
	pending map[int]morselBatch
	nextSeq int
	cur     [][]types.Value
	pos     int
	err     error
	drained bool

	curBatches []*vec.Batch
	bpos       int
	shim       rowShim
}

// NewGather builds the exchange over worker pipelines. All pipelines
// must be clones of the same fragment (identical schemas, same scanned
// table).
func NewGather(pipes []Pipeline, morselPages int, shared []Resettable) *Gather {
	if len(pipes) == 0 {
		panic("exec: Gather needs at least one pipeline")
	}
	return &Gather{
		Pipes:       pipes,
		MorselPages: morselPages,
		Shared:      shared,
		schema:      pipes[0].Root.Schema(),
	}
}

// DOP returns the gather's degree of parallelism.
func (g *Gather) DOP() int { return len(g.Pipes) }

// Schema implements Operator.
func (g *Gather) Schema() *expr.RowSchema { return g.schema }

// Open starts the worker pool.
func (g *Gather) Open() error {
	for _, s := range g.Shared {
		s.Reset()
	}
	heap := g.Pipes[0].Leaf.Table.Heap
	g.src = storage.NewMorselSource(heap.DataPages(), g.MorselPages)
	g.ch = make(chan morselBatch, 2*len(g.Pipes))
	g.cancel = make(chan struct{})
	g.pending = make(map[int]morselBatch)
	g.nextSeq, g.cur, g.pos = 0, nil, 0
	g.curBatches, g.bpos = nil, 0
	g.shim.reset()
	g.err = nil
	g.drained = false
	g.batched = Batched(g)

	var wg sync.WaitGroup
	for _, p := range g.Pipes {
		wg.Add(1)
		go g.worker(p, &wg)
	}
	ch := g.ch
	go func() {
		wg.Wait()
		close(ch)
	}()
	return nil
}

// worker claims morsels until the source runs dry, running the pipeline
// over each and posting the batch.
func (g *Gather) worker(p Pipeline, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		m, ok := g.src.Next()
		if !ok {
			return
		}
		p.Leaf.SetRange(m.Lo, m.Hi)
		var (
			rows    [][]types.Value
			batches []*vec.Batch
			err     error
		)
		if g.batched {
			batches, err = drainBatches(p.Root)
		} else {
			rows, err = Drain(p.Root)
		}
		if err != nil {
			// Stop handing out work; in-flight morsels on other workers
			// finish so every claimed sequence number gets a batch.
			g.src.Abort()
		}
		select {
		case g.ch <- morselBatch{seq: m.Seq, rows: rows, batches: batches, err: err}:
		case <-g.cancel:
			releaseBatches(batches)
			return
		}
		if err != nil {
			return
		}
	}
}

// Next implements Operator: it serves rows from the current batch and
// otherwise advances to the next batch in morsel order. A vectorized
// Gather serves rows through the batch→row shim instead.
func (g *Gather) Next() ([]types.Value, error) {
	if g.batched {
		return g.shim.next(g.NextBatch)
	}
	for {
		if g.err != nil {
			return nil, g.err
		}
		if g.pos < len(g.cur) {
			row := g.cur[g.pos]
			g.pos++
			return row, nil
		}
		if b, ok := g.takePending(); ok {
			if b.err != nil {
				g.err = b.err
				return nil, g.err
			}
			g.cur, g.pos = b.rows, 0
			g.nextSeq++
			continue
		}
		if g.drained {
			// Channel closed and the next sequence never arrived: either
			// the scan is complete, or a worker failed on an earlier
			// morsel (its error batch was consumed above), or it exited
			// on cancel. Surface any straggler error; otherwise EOF.
			for _, b := range g.pending {
				if b.err != nil {
					g.err = b.err
					return nil, g.err
				}
			}
			return nil, nil
		}
		b, ok := <-g.ch
		if !ok {
			g.drained = true
			continue
		}
		g.pending[b.seq] = b
	}
}

// NextBatch implements BatchOperator: it hands out the queued batches of
// each morsel in sequence order. The batch returned by the previous call
// is released here, honouring the valid-until-next-call contract.
func (g *Gather) NextBatch() (*vec.Batch, error) {
	if g.bpos > 0 {
		vec.Release(g.curBatches[g.bpos-1])
		g.curBatches[g.bpos-1] = nil
	}
	for {
		if g.err != nil {
			return nil, g.err
		}
		if g.bpos < len(g.curBatches) {
			b := g.curBatches[g.bpos]
			g.bpos++
			return b, nil
		}
		g.curBatches, g.bpos = nil, 0
		if b, ok := g.takePending(); ok {
			if b.err != nil {
				releaseBatches(b.batches)
				g.err = b.err
				return nil, g.err
			}
			g.curBatches = b.batches
			g.nextSeq++
			continue
		}
		if g.drained {
			for _, b := range g.pending {
				if b.err != nil {
					g.err = b.err
					return nil, g.err
				}
			}
			return nil, nil
		}
		b, ok := <-g.ch
		if !ok {
			g.drained = true
			continue
		}
		g.pending[b.seq] = b
	}
}

// takePending removes and returns the next batch to serve: the batch for
// nextSeq normally, or any pending batch when DisableGatherReorder is on.
func (g *Gather) takePending() (morselBatch, bool) {
	if DisableGatherReorder {
		for seq, b := range g.pending {
			delete(g.pending, seq)
			return b, true
		}
		return morselBatch{}, false
	}
	b, ok := g.pending[g.nextSeq]
	if ok {
		delete(g.pending, g.nextSeq)
	}
	return b, ok
}

// Close stops the workers and releases batches. Workers finish their
// in-flight morsel; subsequent sends land in the closed-over channel
// drain below, and no new morsels are claimed. Every pooled batch still
// queued — in the channel, the pending map, or the current morsel — goes
// back to the pool here.
func (g *Gather) Close() error {
	if g.cancel != nil {
		g.src.Abort()
		close(g.cancel)
		for b := range g.ch { // unblock senders until the closer closes ch
			releaseBatches(b.batches)
		}
		g.cancel = nil
	}
	for _, b := range g.pending {
		releaseBatches(b.batches)
	}
	g.pending = nil
	g.cur = nil
	releaseBatches(g.curBatches) // already-released slots are nil
	g.curBatches, g.bpos = nil, 0
	g.shim.reset()
	return nil
}

// String describes the exchange for plan explanations.
func (g *Gather) String() string {
	if Batched(g) {
		return fmt.Sprintf("Gather(dop=%d) [vec]", len(g.Pipes))
	}
	return fmt.Sprintf("Gather(dop=%d)", len(g.Pipes))
}

// HashBuild is the once-per-execution build side of a parallelized hash
// join, shared by every worker's HashProbe. The first Table() call
// drains the build input and assembles the hash table — hashing the
// build keys across BuildDOP goroutines — and later calls return the
// same table, so N probe workers pay for one build.
type HashBuild struct {
	// Input produces the build rows; it may itself contain a Gather.
	Input Operator
	// Key computes the join key over a build row.
	Key expr.Expr
	// BuildDOP bounds the key-hashing workers (1 = serial build).
	BuildDOP int

	mu    sync.Mutex
	built bool
	table map[uint64][][]types.Value
	err   error
}

// Reset discards the built table so the next Table() call rebuilds —
// called by the owning Gather when the plan is re-opened.
func (b *HashBuild) Reset() {
	b.mu.Lock()
	b.built = false
	b.table = nil
	b.err = nil
	b.mu.Unlock()
}

// Table returns the hash table, building it on first call. Safe for
// concurrent use; losers of the race block until the build completes.
func (b *HashBuild) Table() (map[uint64][][]types.Value, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.built {
		b.table, b.err = b.build()
		b.built = true
	}
	return b.table, b.err
}

// parallelBuildThreshold is the minimum build cardinality for which
// fanning the key hashing out is worth the goroutine handoff.
const parallelBuildThreshold = 1024

// build drains the input and hashes the keys, in parallel when the
// build side is large enough. Insertion order into the table matches the
// serial HashJoin build exactly, so probe match order is identical.
func (b *HashBuild) build() (map[uint64][][]types.Value, error) {
	rows, err := Drain(b.Input)
	if err != nil {
		return nil, err
	}
	hashes := make([]uint64, len(rows))
	keep := make([]bool, len(rows))
	dop := b.BuildDOP
	if dop > len(rows)/parallelBuildThreshold {
		dop = len(rows) / parallelBuildThreshold
	}
	if dop < 1 {
		dop = 1
	}
	if dop == 1 {
		if err := hashKeys(b.Key, rows, hashes, keep); err != nil {
			return nil, err
		}
	} else {
		errs := make([]error, dop)
		var wg sync.WaitGroup
		chunk := (len(rows) + dop - 1) / dop
		for w := 0; w < dop; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(rows) {
				hi = len(rows)
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				errs[w] = hashKeys(expr.Clone(b.Key), rows[lo:hi], hashes[lo:hi], keep[lo:hi])
			}(w, lo, hi)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
	}
	table := make(map[uint64][][]types.Value, len(rows))
	for i, row := range rows {
		if keep[i] {
			table[hashes[i]] = append(table[hashes[i]], row)
		}
	}
	return table, nil
}

// hashKeys evaluates key over each row, recording the hash and whether
// the row participates (NULL keys never join).
func hashKeys(key expr.Expr, rows [][]types.Value, hashes []uint64, keep []bool) error {
	for i, row := range rows {
		k, err := key.Eval(row)
		if err != nil {
			return err
		}
		if k.IsNull() {
			continue
		}
		hashes[i] = types.Hash(k)
		keep[i] = true
	}
	return nil
}

// HashProbe is the per-worker probe side of a parallelized hash join:
// it streams its (cloned) probe input against the shared HashBuild. Its
// semantics mirror HashJoin exactly — including the collision re-check
// of the key equality on the joined row.
type HashProbe struct {
	Build             *HashBuild
	Right             Operator
	LeftKey, RightKey expr.Expr
	// LeftWidth is the column count of the build schema; probe keys are
	// resolved against the concatenated (build ++ probe) schema.
	LeftWidth int

	schema   *expr.RowSchema
	table    map[uint64][][]types.Value
	probeRow []types.Value
	padded   []types.Value // probe-key scratch, see padRow
	matches  [][]types.Value
	mpos     int
}

// NewHashProbe builds the probe operator over a shared build.
func NewHashProbe(build *HashBuild, right Operator, leftKey, rightKey expr.Expr) *HashProbe {
	return &HashProbe{
		Build: build, Right: right, LeftKey: leftKey, RightKey: rightKey,
		LeftWidth: len(build.Input.Schema().Cols),
		schema:    expr.Concat(build.Input.Schema(), right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashProbe) Schema() *expr.RowSchema { return j.schema }

// Open fetches the shared table (building it if this worker is first)
// and opens the probe input.
func (j *HashProbe) Open() error {
	table, err := j.Build.Table()
	if err != nil {
		return err
	}
	j.table = table
	j.probeRow = nil
	j.matches = nil
	j.mpos = 0
	return j.Right.Open()
}

// Next implements Operator.
func (j *HashProbe) Next() ([]types.Value, error) {
	for {
		for j.mpos < len(j.matches) {
			left := j.matches[j.mpos]
			j.mpos++
			out := concatRows(left, j.probeRow)
			// Re-check key equality to guard against hash collisions.
			lk, err := j.LeftKey.Eval(out)
			if err != nil {
				return nil, err
			}
			rk, err := j.RightKey.Eval(out)
			if err != nil {
				return nil, err
			}
			if types.Equal(lk, rk) {
				return out, nil
			}
		}
		row, err := j.Right.Next()
		if err != nil || row == nil {
			return nil, err
		}
		j.probeRow = row
		k, err := j.RightKey.Eval(padRow(&j.padded, j.LeftWidth, row))
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			j.matches = nil
			j.mpos = 0
			continue
		}
		j.matches = j.table[types.Hash(k)]
		j.mpos = 0
	}
}

// Close implements Operator.
func (j *HashProbe) Close() error {
	j.table = nil
	j.matches = nil
	return j.Right.Close()
}

// String describes the probe for plan explanations.
func (j *HashProbe) String() string {
	return fmt.Sprintf("HashProbe(%s = %s)", j.LeftKey, j.RightKey)
}
