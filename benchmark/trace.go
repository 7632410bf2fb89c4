package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the engine are a later change). Parent
// is an index into the trace, or rootSpan. Spans of one operation (one
// query, one client op, one ingest round) share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

const (
	rootSpan = -1
	// orphanSpan marks a span whose recorder could not know its caller:
	// the VFS wrapper sees a Write or a Sync, not the commit that issued
	// it. finish adopts orphans by containment.
	orphanSpan = -2
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method still times, none records.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int, opID int64) int {
	if t == nil {
		return rootSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: opID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn, inside a span when tracing, and returns how long it took.
func (t *tracer) timed(name string, parent int, opID int64, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, opID)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// orphan records a finished span whose parent finish will work out.
func (t *tracer) orphan(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		Parent: orphanSpan,
	})
	t.mu.Unlock()
}

// finish gives every orphan the span that contains it and ends first.
// Commits and checkpoints are serialized by the engine, so of the spans
// open while a file operation runs, the one that issued it is the one
// that ends soonest: everyone else is still waiting for their turn.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents, orphans []int
	for i, s := range t.spans {
		if s.Parent == orphanSpan {
			orphans = append(orphans, i)
		} else {
			parents = append(parents, i)
		}
	}
	byStart := func(ids []int) {
		sort.SliceStable(ids, func(a, b int) bool { return t.spans[ids[a]].Start < t.spans[ids[b]].Start })
	}
	byStart(parents)
	byStart(orphans)
	var open []int
	next := 0
	for _, o := range orphans {
		cur := t.spans[o]
		for next < len(parents) && t.spans[parents[next]].Start <= cur.Start {
			open = append(open, parents[next])
			next++
		}
		live := open[:0]
		best := rootSpan
		for _, p := range open {
			ps := t.spans[p]
			if ps.End < cur.Start {
				continue
			}
			live = append(live, p)
			if ps.End < cur.End {
				continue
			}
			if best == rootSpan || ps.End < t.spans[best].End ||
				(ps.End == t.spans[best].End && ps.Start >= t.spans[best].Start) {
				best = p
			}
		}
		open = live
		t.spans[o].Parent = best
		t.spans[o].OpID = 0
		if best != rootSpan {
			t.spans[o].OpID = t.spans[best].OpID
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Call after finish.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
