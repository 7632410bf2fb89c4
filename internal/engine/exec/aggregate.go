package exec

import (
	"fmt"

	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// AggKind enumerates the aggregate functions of the executor.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

// AggSpec describes one aggregate output of a HashAggregate.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression; nil means COUNT(*).
	Arg expr.Expr
	// Distinct restricts the aggregate to distinct argument values.
	Distinct bool
	// Name is the output column name.
	Name string
}

// HashAggregate groups its input by the group expressions and computes
// the aggregate specs per group. Its output schema is the group columns
// followed by the aggregate columns. With no group expressions it
// produces exactly one row (the implicit single group), even on empty
// input.
//
// Groups are emitted in first-appearance order. With a QueryCtx, group
// state is tracked against the memory budget; on overflow, group
// creation freezes — rows matching an existing in-memory group keep
// absorbing, rows introducing new keys are hash-partitioned to spill
// runs and aggregated per partition afterwards (see spillagg.go). Every
// group therefore lives entirely in memory or entirely in one partition
// chain, which keeps DISTINCT aggregates exact, and first-seen sequence
// tags restore the exact in-memory emission order.
type HashAggregate struct {
	Child      Operator
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec
	// Ctx enables spilling under its memory budget; nil keeps the
	// unbounded in-memory path.
	Ctx *QueryCtx

	schema *expr.RowSchema

	out     [][]types.Value
	pos     int
	tracked int64
	merge   *runMerger
	runs    []*runFile
}

type aggState struct {
	groupKey []types.Value
	count    int64
	sum      int64
	min, max types.Value
	seen     map[uint64][]types.Value // distinct tracking
	present  bool                     // any input row reached this state
}

// NewHashAggregate builds an aggregation operator.
func NewHashAggregate(child Operator, groupBy []expr.Expr, groupNames []string, aggs []AggSpec) *HashAggregate {
	cols := make([]expr.ColInfo, 0, len(groupBy)+len(aggs))
	for _, n := range groupNames {
		cols = append(cols, expr.ColInfo{Name: n})
	}
	for _, a := range aggs {
		cols = append(cols, expr.ColInfo{Name: a.Name})
	}
	return &HashAggregate{
		Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs,
		schema: expr.NewRowSchema(cols...),
	}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *expr.RowSchema { return h.schema }

// Open consumes the input and materializes the aggregated groups,
// spilling new-key rows to partitions when group state overflows the
// budget.
func (h *HashAggregate) Open() (err error) {
	h.discard()
	defer func() {
		if err != nil {
			h.discard()
		}
	}()
	if err := h.Child.Open(); err != nil {
		return err
	}
	defer h.Child.Close()

	groups := map[uint64][]*groupAgg{}
	var order []*groupAgg
	var groupTracked int64
	var spillTo *partitionSet // non-nil once group creation froze
	var seq int64
	for {
		row, err := h.Child.Next()
		if err != nil {
			if spillTo != nil {
				spillTo.abort()
			}
			h.Ctx.release(groupTracked)
			return err
		}
		if row == nil {
			break
		}
		s := seq
		seq++
		key := make([]types.Value, len(h.GroupBy))
		for i, g := range h.GroupBy {
			v, err := g.Eval(row)
			if err != nil {
				if spillTo != nil {
					spillTo.abort()
				}
				h.Ctx.release(groupTracked)
				return err
			}
			key[i] = v
		}
		hk := hashRow(key)
		var ga *groupAgg
		for _, cand := range groups[hk] {
			if rowsEqual(cand.key, key) {
				ga = cand
				break
			}
		}
		if ga == nil {
			if spillTo != nil {
				// Group creation is frozen: spill the raw row, tagged
				// with its sequence, to the key's partition.
				frame := append([]types.Value{types.NewInt(s)}, row...)
				if err := spillTo.write(partFor(hk, 0), frame); err != nil {
					spillTo.abort()
					h.Ctx.release(groupTracked)
					return err
				}
				continue
			}
			ga = newGroupAgg(key, len(h.Aggs))
			ga.firstSeen = s
			groups[hk] = append(groups[hk], ga)
			order = append(order, ga)
			sz := groupBytes(key, len(h.Aggs))
			groupTracked += sz
			if !h.Ctx.grow(sz) {
				spillTo = newPartitionSet(h.Ctx, "agg")
			}
		}
		added, err := ga.update(h.Aggs, row)
		if err != nil {
			if spillTo != nil {
				spillTo.abort()
			}
			h.Ctx.release(groupTracked)
			return err
		}
		if added != 0 {
			groupTracked += added
			h.Ctx.grow(added)
		}
	}
	if len(h.GroupBy) == 0 && len(order) == 0 {
		// Implicit single group over empty input.
		order = append(order, newGroupAgg(nil, len(h.Aggs)))
	}

	if spillTo == nil {
		h.out = make([][]types.Value, 0, len(order))
		for _, ga := range order {
			h.out = append(h.out, ga.result(h.Aggs))
		}
		h.pos = 0
		h.tracked = groupTracked
		return nil
	}

	// Spill mode: stream the in-memory groups' results to a head run
	// (their firstSeen tags all precede every spilled row's sequence),
	// aggregate each partition into its own ascending result run, and
	// merge everything back by first appearance.
	parts, err := spillTo.finish()
	if err != nil {
		h.Ctx.release(groupTracked)
		return err
	}
	return h.finishSpill(order, parts, groupTracked)
}

// String describes the aggregate for plan explanations.
func (h *HashAggregate) String() string {
	return fmt.Sprintf("HashAggregate(%d groups keys, %d aggs)", len(h.GroupBy), len(h.Aggs))
}

type groupAgg struct {
	key       []types.Value
	firstSeen int64
	states    []aggState
}

// groupBytes is the tracked cost of one group's key and aggregate
// states.
func groupBytes(key []types.Value, naggs int) int64 {
	return rowBytes(key) + 64 + 48*int64(naggs)
}

func newGroupAgg(key []types.Value, naggs int) *groupAgg {
	ga := &groupAgg{key: key, states: make([]aggState, naggs)}
	for i := range ga.states {
		ga.states[i].min = types.Null
		ga.states[i].max = types.Null
	}
	return ga
}

// update folds one row into the group. It returns the tracked bytes the
// group grew by (distinct-value sets are the only unbounded state).
func (ga *groupAgg) update(aggs []AggSpec, row []types.Value) (int64, error) {
	var added int64
	for i, spec := range aggs {
		var v types.Value
		hasArg := spec.Arg != nil
		if hasArg {
			var err error
			v, err = spec.Arg.Eval(row)
			if err != nil {
				return added, err
			}
		}
		d, err := ga.states[i].updateOne(spec, v, hasArg)
		added += d
		if err != nil {
			return added, err
		}
	}
	return added, nil
}

// updateOne folds one argument value into a single aggregate state. v
// is meaningful only when hasArg is true (COUNT(*) has no argument). It
// returns the tracked bytes the state grew by.
func (st *aggState) updateOne(spec AggSpec, v types.Value, hasArg bool) (int64, error) {
	if hasArg && v.IsNull() {
		return 0, nil // aggregates skip NULLs
	}
	var added int64
	if spec.Distinct {
		if st.seen == nil {
			st.seen = map[uint64][]types.Value{}
		}
		hv := types.Hash(v)
		for _, prev := range st.seen[hv] {
			if types.Equal(prev, v) {
				return added, nil
			}
		}
		st.seen[hv] = append(st.seen[hv], v)
		added += 32 + int64(v.Size())
	}
	st.present = true
	switch spec.Kind {
	case AggCount:
		st.count++
	case AggSum:
		if v.Kind() != types.KindInt {
			return added, fmt.Errorf("exec: SUM over non-integer %v", v.Kind())
		}
		st.sum += v.Int()
	case AggMin:
		if st.min.IsNull() || types.Compare(v, st.min) < 0 {
			st.min = v
		}
	case AggMax:
		if st.max.IsNull() || types.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	return added, nil
}

func (ga *groupAgg) result(aggs []AggSpec) []types.Value {
	out := make([]types.Value, 0, len(ga.key)+len(aggs))
	out = append(out, ga.key...)
	for i, spec := range aggs {
		st := &ga.states[i]
		switch spec.Kind {
		case AggCount:
			out = append(out, types.NewInt(st.count))
		case AggSum:
			if !st.present {
				out = append(out, types.Null)
			} else {
				out = append(out, types.NewInt(st.sum))
			}
		case AggMin:
			out = append(out, st.min)
		case AggMax:
			out = append(out, st.max)
		}
	}
	return out
}

// Next implements Operator.
func (h *HashAggregate) Next() ([]types.Value, error) {
	if h.merge != nil {
		row, err := h.merge.next()
		if err != nil || row == nil {
			return nil, err
		}
		return row[1:], nil // strip the firstSeen tag
	}
	if h.pos >= len(h.out) {
		return nil, nil
	}
	row := h.out[h.pos]
	h.pos++
	return row, nil
}

// discard drops materialized output, spill runs, and tracked memory.
func (h *HashAggregate) discard() {
	h.out = nil
	h.pos = 0
	if h.merge != nil {
		h.merge.close()
		h.merge = nil
	}
	for _, r := range h.runs {
		r.remove()
	}
	h.runs = nil
	h.Ctx.release(h.tracked)
	h.tracked = 0
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.discard()
	h.Ctx.notePeak()
	return nil
}
