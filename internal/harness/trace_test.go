package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tusim/internal/config"
	"tusim/internal/trace"
	"tusim/internal/workload"
)

// TestTraceIdentityFig8 pins the ISSUE's observability invariant: a full
// Fig. 8 run with store-lifecycle tracing enabled is byte-identical to
// one with tracing disabled. The committed golden snapshot was generated
// untraced, so comparing a traced run against it proves tracing never
// perturbs timing, stats, or figure assembly.
func TestTraceIdentityFig8(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig8.golden.json"))
	if err != nil {
		t.Fatalf("missing fig8 golden snapshot: %v", err)
	}

	r := goldenRunner()
	r.OnTrace = func(string, *trace.Tracer) {} // tracers attached, streams discarded
	rows, err := built[Fig8Rows](r, fig8Spec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("fig8 with tracing enabled differs from the untraced golden snapshot: tracing is supposed to be observational only (got %d bytes, want %d)", len(got), len(want))
	}
}

// TestTraceChromeRoundTrip drives one cell through the harness with
// tracing on and asserts the exported file is valid Chrome trace JSON
// with the complete store lifecycle: SB residency spans, WCB coalescing,
// unauthorized WOQ residency, MSHR misses, and the permission protocol
// instants. This is the same path `tusim -trace -trace-out` uses.
func TestTraceChromeRoundTrip(t *testing.T) {
	b, ok := workload.ByName("502.gcc5")
	if !ok {
		t.Fatal("benchmark 502.gcc5 missing")
	}
	r := NewQuickRunner()
	r.Workers = 1
	var mu sync.Mutex
	tracers := map[string]*trace.Tracer{}
	r.OnTrace = func(key string, tr *trace.Tracer) {
		mu.Lock()
		tracers[key] = tr
		mu.Unlock()
	}
	if _, err := r.Run(b, config.TUS, 114); err != nil {
		t.Fatal(err)
	}
	tr := tracers["502.gcc5/TUS/114"]
	if tr == nil {
		t.Fatalf("OnTrace never delivered the cell's tracer (got keys %v)", tracers)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("-trace-out output is not valid Chrome trace JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}

	spans := map[string]int{}
	instants := map[string]int{}
	for _, e := range f.TraceEvents {
		name, _ := e["name"].(string)
		switch e["ph"] {
		case "X":
			spans[name]++
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("span %v lacks a numeric ts", e)
			}
			if dur := e["dur"].(float64); dur < 0 {
				t.Fatalf("span %v has negative duration", e)
			}
		case "i":
			instants[name]++
		}
	}
	// The complete TUS lifecycle must be present: SB residency, WCB
	// coalescing, unauthorized WOQ residency, and MSHR misses as spans;
	// commit and permission traffic as instants.
	for _, want := range []string{"sb_resident", "wcb_resident", "unauthorized", "miss"} {
		if spans[want] == 0 {
			t.Errorf("lifecycle span %q missing from trace (spans: %v)", want, spans)
		}
	}
	for _, want := range []string{"sb_commit", "perm_request", "perm_grant", "woq_release", "store_visible"} {
		if instants[want] == 0 {
			t.Errorf("protocol instant %q missing from trace (instants: %v)", want, instants)
		}
	}
}

// TestTraceCacheHitDeliversNoTrace documents the Runner contract: cells
// served from the persistent cache never simulated in this process, so
// OnTrace must not fire for them.
func TestTraceCacheHitDeliversNoTrace(t *testing.T) {
	b, ok := workload.ByName("523.xalancbmk")
	if !ok {
		t.Fatal("benchmark 523.xalancbmk missing")
	}
	dir := t.TempDir()
	warm := NewQuickRunner()
	warm.Ops = 2000
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm.Cache = cache
	if _, err := warm.Run(b, config.Baseline, 32); err != nil {
		t.Fatal(err)
	}

	r := NewQuickRunner()
	r.Ops = 2000
	r.Cache = cache
	fired := 0
	r.OnTrace = func(string, *trace.Tracer) { fired++ }
	if _, err := r.Run(b, config.Baseline, 32); err != nil {
		t.Fatal(err)
	}
	if got := r.cellsFromC.Load(); got != 1 {
		t.Fatalf("expected a cache hit, got %d", got)
	}
	if fired != 0 {
		t.Fatalf("OnTrace fired %d times for a cache-served cell, want 0", fired)
	}
}
