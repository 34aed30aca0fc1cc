package workload

import (
	"testing"

	"tusim/internal/isa"
)

func TestSuiteString(t *testing.T) {
	cases := map[Suite]string{SPEC: "SPEC", TF: "TF", Parsec: "Parsec", Suite(9): "Suite(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("Suite(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestValid(t *testing.T) {
	var zero Benchmark
	if zero.Valid() {
		t.Fatal("zero-value Benchmark reports Valid")
	}
	for _, b := range All() {
		if !b.Valid() {
			t.Fatalf("%s: registry benchmark reports invalid", b.Name)
		}
	}
	if b, ok := ByName("no-such-bench"); ok || b.Valid() {
		t.Fatalf("ByName miss returned ok=%v valid=%v", ok, b.Valid())
	}
}

// TestStreamsMatchGenerate pins the Streams wrapper: one stream per
// thread, each draining exactly the generated trace in order.
func TestStreamsMatchGenerate(t *testing.T) {
	b, _ := ByName("dedup")
	traces := b.Generate(3, 120)
	streams := b.Streams(3, 120)
	if len(streams) != b.Threads || len(traces) != b.Threads {
		t.Fatalf("got %d streams / %d traces for %d threads", len(streams), len(traces), b.Threads)
	}
	for ti, s := range streams {
		for i := 0; ; i++ {
			op, ok := s.Next()
			if !ok {
				if i != len(traces[ti]) {
					t.Fatalf("thread %d: stream ended at %d ops, trace has %d", ti, i, len(traces[ti]))
				}
				break
			}
			if op != traces[ti][i] {
				t.Fatalf("thread %d op %d: stream %+v, trace %+v", ti, i, op, traces[ti][i])
			}
		}
	}
}

// TestBurstTrains covers the train-length parameter: explicit lengths
// pass through, unset clamps to one, and a multi-train burst still
// yields exactly the requested op count.
func TestBurstTrains(t *testing.T) {
	if n := (burstParams{}).trains(); n != 1 {
		t.Fatalf("zero trainLen -> %d trains, want 1", n)
	}
	if n := (burstParams{trainLen: 3}).trains(); n != 3 {
		t.Fatalf("trainLen 3 -> %d trains", n)
	}
	gen := genBurst(burstParams{
		burstLines: 16, storesPerLn: 2, computeGap: 40, loadsPerGap: 4,
		regionReuse: 2, trainLen: 3, computePerLine: 2,
	}, 1<<20)
	tr := gen(7, 3000, 1)
	if len(tr) != 1 || len(tr[0]) != 3000 {
		t.Fatalf("trained burst: %d traces, %d ops", len(tr), len(tr[0]))
	}
	var stores int
	for _, op := range tr[0] {
		if op.Kind == isa.Store {
			stores++
		}
	}
	if stores == 0 {
		t.Fatal("trained burst emitted no stores")
	}
}
