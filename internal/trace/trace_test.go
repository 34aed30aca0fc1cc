package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no stable name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind name = %q", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(SBEnqueue, 0, 1, 2, 3, 4) // must not panic
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Errorf("nil tracer reports non-zero state")
	}
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil tracer Events() = %v, want nil", evs)
	}
}

func TestRingRecordsInOrder(t *testing.T) {
	tr := New(8)
	for i := uint64(0); i < 5; i++ {
		tr.Emit(SBEnqueue, 1, i, i*64, i, 0)
	}
	evs := tr.Events()
	if len(evs) != 5 || tr.Len() != 5 {
		t.Fatalf("Len = %d, events = %d, want 5", tr.Len(), len(evs))
	}
	for i, e := range evs {
		if e.Cycle != uint64(i) || e.Seq != uint64(i) || e.Kind != SBEnqueue || e.Core != 1 {
			t.Errorf("event %d = %+v", i, e)
		}
	}
}

func TestRingWrapsAndCountsDrops(t *testing.T) {
	tr := New(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(SBCommit, 0, i, 0, i, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, want := range []uint64{6, 7, 8, 9} {
		if evs[i].Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first after wrap)", i, evs[i].Cycle, want)
		}
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	tr := New(4)
	for i := uint64(0); i < 6; i++ {
		tr.Emit(SBDrain, 0, i, 0, i, 0)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.ring) != 4 {
		t.Fatalf("after Reset: Len=%d Dropped=%d Cap=%d", tr.Len(), tr.Dropped(), len(tr.ring))
	}
	tr.Emit(SBDrain, 0, 42, 0, 0, 0)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Cycle != 42 {
		t.Fatalf("post-Reset events = %v", evs)
	}
}

// TestEmitDisabledZeroAlloc pins the package contract: Emit on a nil
// tracer allocates nothing, so the instrumented drain hot path is free
// when tracing is off.
func TestEmitDisabledZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(SBDrain, 0, 1, 64, 2, 3)
	}); n != 0 {
		t.Errorf("nil tracer Emit allocates %.1f bytes/op, want 0", n)
	}
}

// TestEmitEnabledZeroAlloc: even when on, recording into the
// preallocated ring never grows the heap.
func TestEmitEnabledZeroAlloc(t *testing.T) {
	tr := New(64)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(SBDrain, 0, 1, 64, 2, 3)
	}); n != 0 {
		t.Errorf("enabled tracer Emit allocates %.1f bytes/op, want 0", n)
	}
}

// chromeFile mirrors the Chrome trace-event JSON object form.
type chromeFile struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]any   `json:"otherData"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

func exportChrome(t *testing.T, tr *Tracer) (chromeFile, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return f, buf.Bytes()
}

func spansNamed(f chromeFile, name string) []map[string]any {
	var out []map[string]any
	for _, e := range f.TraceEvents {
		if e["ph"] == "X" && e["name"] == name {
			out = append(out, e)
		}
	}
	return out
}

func TestWriteChromeSpanReconstruction(t *testing.T) {
	tr := New(64)
	// One full SB residency: enqueue at 10, drain at 35.
	tr.Emit(SBEnqueue, 2, 10, 0x1000, 7, 1)
	tr.Emit(SBCommit, 2, 20, 0x1000, 7, 0)
	tr.Emit(SBDrain, 2, 35, 0x1000, 7, 15)
	// One unauthorized WOQ residency on line 0x2000: admit at 40,
	// release at 90.
	tr.Emit(UnauthWrite, 2, 40, 0x2000, 0, 3)
	tr.Emit(WOQRelease, 2, 90, 0x2000, 0, 50)

	f, _ := exportChrome(t, tr)
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	sb := spansNamed(f, "sb_resident")
	if len(sb) != 1 {
		t.Fatalf("sb_resident spans = %d, want 1", len(sb))
	}
	if ts, dur := sb[0]["ts"].(float64), sb[0]["dur"].(float64); ts != 10 || dur != 25 {
		t.Errorf("sb_resident ts=%v dur=%v, want 10/25", ts, dur)
	}
	if sb[0]["pid"].(float64) != 2 || sb[0]["tid"] != "SB" {
		t.Errorf("sb_resident placed on pid=%v tid=%v", sb[0]["pid"], sb[0]["tid"])
	}

	woq := spansNamed(f, "unauthorized")
	if len(woq) != 1 {
		t.Fatalf("unauthorized spans = %d, want 1", len(woq))
	}
	if ts, dur := woq[0]["ts"].(float64), woq[0]["dur"].(float64); ts != 40 || dur != 50 {
		t.Errorf("unauthorized ts=%v dur=%v, want 40/50", ts, dur)
	}

	// sb_commit and woq_release surface as instants.
	var instants []string
	for _, e := range f.TraceEvents {
		if e["ph"] == "i" {
			instants = append(instants, e["name"].(string))
		}
	}
	for _, want := range []string{"sb_commit", "woq_release"} {
		found := false
		for _, n := range instants {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("instant %q missing (got %v)", want, instants)
		}
	}
}

func TestWriteChromeMultiEndAndLeftovers(t *testing.T) {
	tr := New(64)
	// CSB-style WCB residency: coalesce ends at a direct visible group
	// write, not at a TUS admit.
	tr.Emit(WCBCoalesce, 0, 5, 0x3000, 1, 0)
	tr.Emit(StoreVisibleEv, 0, 25, 0x3000, 0, 0)
	// A begin with no end: must export closed at the last cycle and
	// tagged open.
	tr.Emit(SBEnqueue, 0, 30, 0x4000, 9, 1)
	// An end with no begin (ring truncation): must be skipped, not
	// crash or emit a negative span.
	tr.Emit(SBDrain, 0, 40, 0x5000, 55, 2)

	f, raw := exportChrome(t, tr)
	wcb := spansNamed(f, "wcb_resident")
	if len(wcb) != 1 {
		t.Fatalf("wcb_resident spans = %d, want 1", len(wcb))
	}
	if dur := wcb[0]["dur"].(float64); dur != 20 {
		t.Errorf("wcb_resident dur = %v, want 20", dur)
	}
	sb := spansNamed(f, "sb_resident")
	if len(sb) != 1 {
		t.Fatalf("sb_resident spans = %d, want 1 (the leftover)", len(sb))
	}
	args := sb[0]["args"].(map[string]any)
	if args["open"] != true {
		t.Errorf("leftover span not tagged open: %v", sb[0])
	}
	if ts, dur := sb[0]["ts"].(float64), sb[0]["dur"].(float64); ts != 30 || dur != 10 {
		t.Errorf("leftover closed at ts=%v dur=%v, want 30/10 (last cycle 40)", ts, dur)
	}
	if !bytes.Contains(raw, []byte(`"generator":"tusim"`)) {
		t.Errorf("otherData generator stamp missing")
	}
}

func TestWriteChromeDuplicateBeginIgnored(t *testing.T) {
	tr := New(64)
	tr.Emit(MSHRAlloc, 1, 10, 0x1000, 0, 1)
	tr.Emit(MSHRAlloc, 1, 15, 0x1000, 0, 2) // same line: dup begin
	tr.Emit(MSHRFree, 1, 50, 0x1000, 0, 40)
	f, _ := exportChrome(t, tr)
	miss := spansNamed(f, "miss")
	if len(miss) != 1 {
		t.Fatalf("miss spans = %d, want 1 (dup begin ignored)", len(miss))
	}
	if ts := miss[0]["ts"].(float64); ts != 10 {
		t.Errorf("miss span starts at %v, want the first begin (10)", ts)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(128)
		for i := uint64(0); i < 30; i++ {
			core := int32(i % 3)
			tr.Emit(SBEnqueue, core, i*10, 0x1000+i*64, i, 0)
			tr.Emit(SBDrain, core, i*10+5, 0x1000+i*64, i, 5)
			tr.Emit(MSHRAlloc, core, i*10+1, 0x8000+i*64, 0, 1)
		}
		return tr
	}
	_, a := exportChrome(t, build())
	_, b := exportChrome(t, build())
	if !bytes.Equal(a, b) {
		t.Fatalf("identical streams exported different bytes")
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	f, _ := exportChrome(t, New(4))
	if len(f.TraceEvents) != 0 {
		t.Fatalf("empty tracer exported %d events", len(f.TraceEvents))
	}
}
