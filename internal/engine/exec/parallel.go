// Parallel (intra-query) execution: the Gather exchange operator that
// fans a pipeline out across workers, and a shared hash-join build.
//
// Design: the planner clones a scan-rooted pipeline once per worker
// (expressions are cloned with expr.Clone so per-instance state is never
// shared) out of the serial operators, rooted at a SeqScan that reads
// one morsel at a time. At runtime the Gather's
// workers pull page-range morsels from one atomic MorselSource, run
// their pipeline over each morsel, and post the resulting row batch
// tagged with the morsel's sequence number. Gather reassembles batches
// in sequence order, so a parallel plan emits rows in exactly the order
// the serial plan would — parallelism is observable only as speed.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// Pipeline is one worker's copy of a parallelized plan fragment: the
// cloned operator chain and the heap scan at its leaf.
type Pipeline struct {
	Root Operator
	Leaf *SeqScan
}

// Resettable is per-execution shared state (e.g. a shared hash-join
// build) that a Gather resets when it is re-opened.
type Resettable interface{ Reset() }

// morselBatch is the fully evaluated output of one morsel.
type morselBatch struct {
	seq  int
	rows [][]types.Value
	err  error
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

	src     *storage.MorselSource
	ch      chan morselBatch
	cancel  chan struct{}
	pending map[int]morselBatch
	nextSeq int
	cur     [][]types.Value
	pos     int
	err     error
	drained bool
}

// NewGather builds the exchange over worker pipelines. All pipelines
// must be clones of the same fragment (identical schemas, same scanned
// heap, no snapshot Txn: a morsel cannot merge a snapshot's versions).
// Every leaf reads an empty range until its worker claims a morsel.
func NewGather(pipes []Pipeline, morselPages int, shared []Resettable) *Gather {
	if len(pipes) == 0 {
		panic("exec: Gather needs at least one pipeline")
	}
	for _, p := range pipes {
		p.Leaf.SetRange(0, 0)
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
	g.err = nil
	g.drained = false

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
		rows, err := Drain(p.Root)
		if err != nil {
			// Stop handing out work; in-flight morsels on other workers
			// finish so every claimed sequence number gets a batch.
			g.src.Abort()
		}
		select {
		case g.ch <- morselBatch{seq: m.Seq, rows: rows, err: err}:
		case <-g.cancel:
			return
		}
		if err != nil {
			return
		}
	}
}

// Next implements Operator: it serves rows from the current batch and
// otherwise advances to the next batch in morsel order.
func (g *Gather) Next() ([]types.Value, error) {
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

// Close stops the workers. Workers finish their in-flight morsel;
// subsequent sends land in the channel drain below, and no new morsels
// are claimed.
func (g *Gather) Close() error {
	if g.cancel != nil {
		g.src.Abort()
		close(g.cancel)
		for range g.ch { // unblock senders until the closer closes ch
		}
		g.cancel = nil
	}
	g.pending = nil
	g.cur = nil
	return nil
}

// String describes the exchange for plan explanations.
func (g *Gather) String() string { return fmt.Sprintf("Gather(dop=%d)", len(g.Pipes)) }

// HashBuild is the once-per-execution build side of a parallelized hash
// join, shared by every worker's HashJoin clone (see HashJoin.Shared).
// The first Table() call drains the build input and assembles the hash
// table — hashing the build keys across BuildDOP goroutines — and later
// calls return the same table, so N probe workers pay for one build.
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

// build drains the input and hashes it into the table.
func (b *HashBuild) build() (map[uint64][][]types.Value, error) {
	rows, err := Drain(b.Input)
	if err != nil {
		return nil, err
	}
	return hashTable(b.Key, rows, b.BuildDOP)
}

// hashTable buckets rows by the hash of key, keeping row order within a
// bucket; rows with a NULL key never join and are left out. With dop > 1
// and a build side large enough, the keys are evaluated and hashed across
// up to dop goroutines first; the table comes out the same either way, so
// probe match order does not depend on dop.
func hashTable(key expr.Expr, rows [][]types.Value, dop int) (map[uint64][][]types.Value, error) {
	table := make(map[uint64][][]types.Value, len(rows))
	dop = min(dop, len(rows)/parallelBuildThreshold)
	if dop <= 1 {
		for _, row := range rows {
			k, err := key.Eval(row)
			if err != nil {
				return nil, err
			}
			if k.IsNull() {
				continue
			}
			h := types.Hash(k)
			table[h] = append(table[h], row)
		}
		return table, nil
	}
	hashes := make([]uint64, len(rows))
	keep := make([]bool, len(rows))
	errs := make([]error, dop)
	var wg sync.WaitGroup
	chunk := (len(rows) + dop - 1) / dop
	for w := 0; w < dop; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(rows))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = hashKeys(expr.Clone(key), rows[lo:hi], hashes[lo:hi], keep[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
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
