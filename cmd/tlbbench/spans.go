package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans of
// one request (a campaign iteration, a sweep, a served job) share Trace.
// The layer is the part of Name before the first dot; "bench" spans are
// the benchmark's own roots, so their self time is the time no layer
// accounts for.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; its zero value (from a nil tracer) is inert.
type spanRef struct {
	t  *tracer
	id int64
}

// begin opens a span under parent (0 for a root) and returns its handle.
func (t *tracer) begin(trace, name string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return spanRef{t: t, id: id}
}

// end closes the span.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := time.Since(r.t.t0).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = now
	r.t.mu.Unlock()
}

// record adds a parentless span whose interval was measured elsewhere, in
// a hook on another goroutine; adopt attaches it later.
func (t *tracer) record(trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// adopt rewrites trace IDs through rename, then gives every parentless
// non-root span the innermost span of its trace that encloses it: spans
// recorded on server goroutines could not know their request's spans when
// they started.
func (t *tracer) adopt(rename map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[string][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if n, ok := rename[s.Trace]; ok {
			s.Trace = n
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 || s.layer() == "bench" {
			continue
		}
		best := -1
		for _, ci := range byTrace[s.Trace] {
			if c := t.spans[ci]; ci != i && encloses(c, *s) && (best < 0 || encloses(t.spans[best], c)) {
				best = ci
			}
		}
		if best >= 0 {
			s.Parent = t.spans[best].ID
		}
	}
}

// encloses reports whether a's interval contains b's; of two spans with the
// same interval the earlier-recorded one encloses the other, so adoption
// never forms a cycle.
func encloses(a, b span) bool {
	if a.Start > b.Start || b.End > a.End {
		return false
	}
	return a.Start < b.Start || b.End < a.End || a.ID < b.ID
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children of one parent may
// overlap (they run concurrently), so the covered part is the length of
// the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string
	Calls int
	Self  time.Duration
}

// layerTable sums self time and counts calls per layer, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		l := s.layer()
		r := rows[l]
		if r == nil {
			r = &layerRow{Layer: l}
			rows[l] = r
		}
		r.Calls++
		r.Self += time.Duration(self[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// splitSpans separates the spans of the traced requests (trace IDs iter-N
// and job-N) from those of the layer measurements that follow them.
func splitSpans(spans []span) (requests, ladder []span) {
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, "iter-") || strings.HasPrefix(s.Trace, "job-") {
			requests = append(requests, s)
		} else {
			ladder = append(ladder, s)
		}
	}
	return requests, ladder
}

// printLayerTable writes the per-layer self times; "bench" is the time no
// layer accounts for.
func printLayerTable(w io.Writer, spans []span) {
	rows := layerTable(spans)
	var total time.Duration
	for _, r := range rows {
		total += r.Self
	}
	fmt.Fprintf(w, "%-12s %8s %12s %7s\n", "layer", "calls", "self_ms", "share")
	for _, r := range rows {
		name := r.Layer
		if name == "bench" {
			name = "unattributed"
		}
		fmt.Fprintf(w, "%-12s %8d %12.3f %6.1f%%\n", name, r.Calls,
			float64(r.Self)/1e6, 100*ratio(float64(r.Self), float64(total)))
	}
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
