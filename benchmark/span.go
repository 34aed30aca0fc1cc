package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test is not instrumented).
type span struct {
	Name   string // "<layer>.<call>", e.g. "system.Run"
	ID     string // workload/rep/cell, shared by the spans of one operation
	Start  int64  // ns since the tracer's epoch
	End    int64
	Parent int32 // index of the span that caused this one, -1 for a root
	Tid    int32 // worker or client that made the call
}

// layer is the module a span is charged to: the name up to the first dot.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans in memory; they are written once, at exit. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// noSpan is the parent of a root span and what a nil tracer hands out.
const noSpan = int32(-1)

// newTracer preallocates room for n spans so that recording one is an
// append into spare capacity.
func newTracer(n int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, n)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent, tid int32) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Start: now, End: now, Parent: parent, Tid: tid})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tree returns the spans from root up to the next root-level span: the
// root and everything recorded under it, when roots do not interleave.
// The second result is the index of the first span, for selfTimes.
func (t *tracer) tree(root int32) ([]span, int) {
	spans := t.since(int(root))
	for i := 1; i < len(spans); i++ {
		if spans[i].Parent == noSpan {
			return spans[:i], int(root)
		}
	}
	return spans, int(root)
}

// between returns the spans recorded from mark from up to mark to.
func (t *tracer) between(from, to int) []span {
	return t.since(from)[:to-from]
}

// mark returns how many spans exist, so a caller can later look only at
// the ones recorded after this point.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded from mark on. Parent
// indices still refer to the full list.
func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children may nest, sit side by
// side, or overlap one another (parallel workers under one parent): the
// covered part is the union of the child intervals, clipped to the
// parent. base is the index of spans[0] in the tracer's list, so that
// Parent indices resolve; a parent outside the slice is ignored.
func selfTimes(spans []span, base int) []int64 {
	type iv struct{ a, b int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		p := int(s.Parent) - base
		if s.Parent < 0 || p < 0 || p >= len(spans) {
			continue
		}
		a, b := s.Start, s.End
		if a < spans[p].Start {
			a = spans[p].Start
		}
		if b > spans[p].End {
			b = spans[p].End
		}
		if b > a {
			kids[p] = append(kids[p], iv{a, b})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			if v.a > hi {
				hi = v.a
			}
			covered += v.b - hi
			hi = v.b
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfBy sums self time per key of the span: its name, or its layer.
func selfBy(spans []span, base int, key func(*span) string) map[string]int64 {
	self := selfTimes(spans, base)
	out := map[string]int64{}
	for i := range spans {
		out[key(&spans[i])] += self[i]
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span, base int) map[string]int64 {
	return selfBy(spans, base, func(s *span) string { return s.Name })
}

// writeChrome writes the spans as Chrome trace-event JSON in the object
// form trace.WriteChrome uses, so both open side by side in Perfetto.
// Timestamps are microseconds of host time since the tracer's epoch.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	bw := bufio.NewWriter(w)
	spans := t.since(0)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"generator\":\"tusim-benchmark\",\"spans\":%d},\"traceEvents\":[", len(spans))
	fmt.Fprintf(bw, `{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":%q}}`, process)
	for i, s := range spans {
		fmt.Fprintf(bw, `,{"ph":"X","name":%q,"cat":%q,"pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%q,"span":%d,"parent":%d}}`,
			s.Name, s.layer(), s.Tid, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, i, s.Parent)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
