package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// spanAt builds a closed span by hand.
func spanAt(name string, parent int32, start, end int64) span {
	return span{Name: name, Parent: parent, Start: start, End: end}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		spanAt("bench.rep", noSpan, 0, 100),     // 0: children cover 10..40 and 50..90
		spanAt("system.New", 0, 10, 40),         // 1: child covers 20..30
		spanAt("memsys.New", 1, 20, 30),         // 2: leaf, nested two deep
		spanAt("system.Run", 0, 50, 90),         // 3: sibling of 1, no children
		spanAt("bench.other", noSpan, 100, 130), // 4: a second root
	}
	want := []int64{100 - 30 - 40, 30 - 10, 10, 40, 30}
	got := selfTimes(spans, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var sum int64
	for _, v := range got[:4] {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times under one root sum to %d, want the root's 100", sum)
	}
	byLayer := selfBy(spans, 0, (*span).layer)
	if byLayer["system"] != 60 || byLayer["memsys"] != 10 || byLayer["bench"] != 60 {
		t.Errorf("selfBy layer = %v", byLayer)
	}
}

func TestSelfTimeOverlappingAndClippedChildren(t *testing.T) {
	spans := []span{
		spanAt("harness.Prefetch", noSpan, 0, 100),
		spanAt("harness.cell", 0, 10, 60),  // two workers in parallel:
		spanAt("harness.cell", 0, 30, 80),  // union is 10..80
		spanAt("harness.cell", 0, 90, 120), // runs past the parent: clipped to 90..100
		spanAt("harness.cell", 0, 40, 50),  // inside the union already
	}
	got := selfTimes(spans, 0)
	if want := int64(100 - 70 - 10); got[0] != want {
		t.Errorf("parent self time = %d, want %d", got[0], want)
	}
	if got[1] != 50 || got[3] != 30 {
		t.Errorf("children self times = %v", got[1:])
	}
}

func TestSelfTimeOnASliceOfTheTrace(t *testing.T) {
	tr := newTracer(8)
	tr.add(spanAt("bench.rep", noSpan, 0, 10))
	tr.add(spanAt("bench.rep", noSpan, 10, 50))
	tr.add(spanAt("system.Run", 1, 20, 45))
	tr.add(spanAt("bench.rep", noSpan, 50, 60))
	spans, base := tr.tree(1)
	if len(spans) != 2 || base != 1 {
		t.Fatalf("tree(1) = %d spans from %d, want 2 from 1", len(spans), base)
	}
	self := selfByName(spans, base)
	if self["bench.rep"] != 15 || self["system.Run"] != 25 {
		t.Errorf("self times of the second repetition = %v", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("system.Run", "x", noSpan, 0)
	tr.end(sp)
	tr.add(span{})
	if sp != noSpan || tr.mark() != 0 || tr.since(0) != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestWriteChromeIsLoadableJSON(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin("bench.rep", "st_burst/1", noSpan, 0)
	kid := tr.begin("system.Run", `st_burst/1/502.gcc1/"TUS"/114`, root, 0)
	tr.end(kid)
	tr.end(root)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     string `json:"id"`
				Parent int    `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want metadata + 2 spans", len(doc.TraceEvents))
	}
	run := doc.TraceEvents[2]
	if run.Ph != "X" || run.Name != "system.Run" || run.Cat != "system" || run.Args.Parent != 0 || run.Dur < 0 {
		t.Errorf("system.Run event = %+v", run)
	}
}
