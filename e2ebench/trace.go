package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its call into that layer's public functions. Spans of one operation share
// Op; Parent links a span to the span that caused it (-1 for the
// operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out
// once, after measuring ends.
type tracer struct {
	epoch time.Time

	mu sync.Mutex
	// spans is every span begun so far, indexed by ID. guarded by mu
	spans []span
	// op is the operation being traced, or -1 between traced operations.
	// guarded by mu
	op int
	// scope is the span under which spans begun from inside the program
	// (the fetcher wrapper, called from the relying party's workers) are
	// recorded. guarded by mu
	scope int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, scope: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startOp begins operation op and returns its root span.
func (t *tracer) startOp(op int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = op
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: op, Name: name, Start: start})
	t.scope = id
	return id
}

// stopOp ends the operation's root span; spans begun from inside the
// program after this are not recorded.
func (t *tracer) stopOp(root int) {
	t.end(root)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op, t.scope = -1, -1
}

// begin starts a span under parent in the current operation and makes it
// the scope for spans begun from inside the program. It returns -1, and
// records nothing, when no operation is being traced.
func (t *tracer) begin(parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.op < 0 {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: start})
	t.scope = id
	return id
}

// beginScoped starts a span under the current scope without changing it:
// the fetcher wrapper's spans are leaves opened concurrently by the relying
// party's workers.
func (t *tracer) beginScoped(name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.op < 0 || t.scope < 0 {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.scope, Op: t.op, Name: name, Start: start})
	return id
}

// end finishes span id (a no-op for -1) and restores its parent as scope.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = stop
	if t.scope == id {
		t.scope = t.spans[id].Parent
	}
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLength returns the total length covered by ivs after clipping each
// to [lo, hi]: overlapping intervals (concurrent fetches, say) count once.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// childCover returns how much of parent's interval its children cover.
func childCover(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return unionLength(ivs, parent.Start, parent.End)
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - childCover(parent, children)
}

// opTrace is one traced operation's spans, indexed for the per-layer
// breakdown.
type opTrace struct {
	root     span
	children map[int][]span // parent ID → child spans
}

// groupOps splits spans by operation. Spans still open (End == 0) are
// dropped; every span of a finished operation is closed.
func groupOps(spans []span) map[int]*opTrace {
	ops := make(map[int]*opTrace)
	for _, s := range spans {
		if s.Parent == -1 {
			ops[s.Op] = &opTrace{root: s, children: make(map[int][]span)}
		}
	}
	for _, s := range spans {
		ot := ops[s.Op]
		if s.Parent == -1 || ot == nil || s.End == 0 {
			continue
		}
		ot.children[s.Parent] = append(ot.children[s.Parent], s)
	}
	return ops
}

// coverage is the share of the operation's wall time that its layer spans
// account for.
func (o *opTrace) coverage() float64 {
	if o.root.dur() <= 0 {
		return 0
	}
	return float64(childCover(o.root, o.children[o.root.ID])) / float64(o.root.dur())
}

// layer returns the operation's first direct child span with the given
// name, if any.
func (o *opTrace) layer(name string) (span, bool) {
	for _, s := range o.children[o.root.ID] {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}
