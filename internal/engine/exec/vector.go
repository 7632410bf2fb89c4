// Batch-at-a-time execution support: the BatchOperator contract, the
// Batched rule that decides which operators produce batches, the
// batch→row adapter shim that keeps every batch producer usable from the
// row-at-a-time Operator interface, and the inline FNV-1a hash kernel
// that hashes whole key columns per batch.
//
// No plan pass or option turns batches on: each streaming operator asks
// Batched about its child when it opens. Row-only operators — joins,
// sorts, TableFuncApply, the spill paths — consume batch producers
// through the shim, so there is one operator tree per plan.
package exec

import (
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
)

// BatchOperator is an Operator that can also produce whole row batches.
// For one Open, a consumer uses either Next or NextBatch, never both.
// The returned batch is owned by the producer and valid only until the
// next NextBatch or Close call; a nil batch means end of stream. A
// returned batch may have no active rows.
type BatchOperator interface {
	Operator
	NextBatch() (*vec.Batch, error)
}

// rowShim adapts a batch producer to row-at-a-time Next: it gathers one
// active row per call from the producer's current batch, advancing to
// the next batch as needed. Each returned row is freshly allocated and
// caller-owned, matching row-engine semantics.
type rowShim struct {
	b   *vec.Batch
	pos int
}

func (s *rowShim) reset() { s.b, s.pos = nil, 0 }

func (s *rowShim) next(src func() (*vec.Batch, error)) ([]types.Value, error) {
	for {
		if s.b != nil && s.pos < s.b.Active() {
			row := s.b.Row(s.pos, nil)
			s.pos++
			return row, nil
		}
		b, err := src()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.b = nil
			return nil, nil
		}
		s.b, s.pos = b, 0
	}
}

// hashKeyCols computes hashRow over pre-evaluated key columns for every
// active row of the batch, writing the combined hash for physical row i
// into hashes[i]. It is bit-identical to hashRow over the gathered key.
func hashKeyCols(keyCols [][]types.Value, b *vec.Batch, hashes []uint64) {
	if b.Sel == nil {
		for i := 0; i < b.NRows; i++ {
			var h uint64 = 1469598103934665603
			for _, kc := range keyCols {
				h ^= types.Hash(kc[i])
				h *= 1099511628211
			}
			hashes[i] = h
		}
		return
	}
	for _, i := range b.Sel {
		var h uint64 = 1469598103934665603
		for _, kc := range keyCols {
			h ^= types.Hash(kc[i])
			h *= 1099511628211
		}
		hashes[i] = h
	}
}

// Batched reports whether op produces batches, from the operator tree
// alone: heap scans (SeqScan without a snapshot View, MorselScan) and
// ValuesScan always do; Filter, Project and Limit do iff their child
// does; Gather does iff every worker pipeline does. Everything else
// produces rows. HashAggregate produces rows but consumes batches when
// it has no spill context and Batched(child) holds.
func Batched(op Operator) bool {
	switch n := op.(type) {
	case *SeqScan:
		return n.View == nil
	case *MorselScan, *ValuesScan:
		return true
	case *Filter:
		return Batched(n.Child)
	case *Project:
		return Batched(n.Child)
	case *Limit:
		return Batched(n.Child)
	case *Gather:
		for _, p := range n.Pipes {
			if !Batched(p.Root) {
				return false
			}
		}
		return true
	}
	return false
}

// batchChild returns child as a batch producer when Batched says it is
// one, and nil otherwise.
func batchChild(child Operator) BatchOperator {
	if Batched(child) {
		return child.(BatchOperator)
	}
	return nil
}
