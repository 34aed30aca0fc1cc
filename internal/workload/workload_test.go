package workload

import (
	"testing"

	"tusim/internal/isa"
)

func TestAllTracesValidate(t *testing.T) {
	for _, b := range All() {
		traces := b.Generate(1, 2000)
		if len(traces) != b.Threads {
			t.Fatalf("%s: %d traces, want %d", b.Name, len(traces), b.Threads)
		}
		for ti, tr := range traces {
			if len(tr) != 2000 {
				t.Errorf("%s[%d]: %d ops, want 2000", b.Name, ti, len(tr))
			}
			if err := isa.Validate(tr); err != nil {
				t.Errorf("%s[%d]: %v", b.Name, ti, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, b := range All() {
		a := b.Generate(42, 500)
		c := b.Generate(42, 500)
		for ti := range a {
			for i := range a[ti] {
				if a[ti][i] != c[ti][i] {
					t.Fatalf("%s: trace not deterministic at thread %d op %d", b.Name, ti, i)
				}
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	b, ok := ByName("502.gcc1")
	if !ok {
		t.Fatal("502.gcc1 missing")
	}
	// Compare past the (seed-independent) warm-up prologue.
	a := b.Generate(1, 60000)[0][40000:]
	c := b.Generate(2, 60000)[0][40000:]
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestThreadsDiffer(t *testing.T) {
	b, ok := ByName("dedup")
	if !ok {
		t.Fatal("dedup missing")
	}
	traces := b.Generate(1, 500)
	same := true
	for i := range traces[0] {
		if traces[0][i] != traces[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("threads produced identical traces")
	}
}

func TestStoreBurstFingerprint(t *testing.T) {
	// gcc5's fingerprint: store phases that sweep long runs of
	// consecutive cache lines (coalescible, page-contiguous), separated
	// by compute gaps. Skip the warm-up prologue.
	b, _ := ByName("502.gcc5")
	tr := b.Generate(1, 120000)[0]
	tr = tr[len(tr)/2:]
	stores := 0
	lineRun := 0
	maxLineRun := 0
	var lastLine uint64 = ^uint64(0)
	for _, op := range tr {
		if op.Kind != isa.Store {
			continue
		}
		stores++
		switch op.Addr &^ 63 {
		case lastLine:
		case lastLine + 64:
			lineRun++
			if lineRun > maxLineRun {
				maxLineRun = lineRun
			}
		default:
			lineRun = 0
		}
		lastLine = op.Addr &^ 63
	}
	if stores < len(tr)/10 {
		t.Errorf("gcc5 store density too low: %d/%d", stores, len(tr))
	}
	if maxLineRun < 64 {
		t.Errorf("gcc5 longest consecutive-line sweep = %d, want >= 64", maxLineRun)
	}
}

func TestMemoryBoundFingerprint(t *testing.T) {
	// mcf's store-handling-relevant fingerprint: independent long-latency
	// loads (MLP) mixed with cold stores over an LLC-exceeding footprint.
	b, _ := ByName("505.mcf")
	tr := b.Generate(1, 5000)[0]
	loads, stores := 0, 0
	lines := map[uint64]bool{}
	for _, op := range tr {
		switch op.Kind {
		case isa.Load:
			loads++
		case isa.Store:
			stores++
		}
		if op.Kind.IsMem() {
			lines[op.Addr&^63] = true
		}
	}
	if loads < 300 || stores < 300 {
		t.Errorf("mcf mix loads=%d stores=%d; want a memory-bound mix", loads, stores)
	}
	// Cold footprint: most lines unique.
	if len(lines) < 500 {
		t.Errorf("mcf touched only %d unique lines", len(lines))
	}
}

func TestComputeBoundFingerprint(t *testing.T) {
	b, _ := ByName("503.bw2")
	tr := b.Generate(1, 5000)[0]
	stores, alus := 0, 0
	for _, op := range tr {
		switch {
		case op.Kind == isa.Store:
			stores++
		case op.Kind.IsALU():
			alus++
		}
	}
	if stores > 5000/20 {
		t.Errorf("bw2 has %d stores in 5000 ops; should be store-light", stores)
	}
	if alus < 5000/2 {
		t.Errorf("bw2 has only %d ALU ops; should be compute-bound", alus)
	}
}

func TestSharedRegionUsedByParsec(t *testing.T) {
	b, _ := ByName("canneal")
	traces := b.Generate(1, 3000)
	shared := 0
	for _, tr := range traces {
		for _, op := range tr {
			if op.Kind.IsMem() && op.Addr >= sharedBase && op.Addr < sharedBase+(1<<28) {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("canneal never touches the shared region")
	}
}

func TestFencesPresent(t *testing.T) {
	b, _ := ByName("fluidanimate")
	tr := b.Generate(1, 20000)[0]
	fences := 0
	for _, op := range tr {
		if op.Kind == isa.Fence {
			fences++
		}
	}
	if fences == 0 {
		t.Fatal("fluidanimate should contain fences")
	}
}

func TestRegistryFilters(t *testing.T) {
	if len(All()) < 20 {
		t.Fatalf("registry has %d benchmarks, want >= 20", len(All()))
	}
	for _, b := range BySuite(Parsec) {
		if b.Threads != 16 {
			t.Errorf("%s: Parsec proxy with %d threads", b.Name, b.Threads)
		}
	}
	for _, b := range SingleThreaded() {
		if b.Threads != 1 {
			t.Errorf("%s in SingleThreaded with %d threads", b.Name, b.Threads)
		}
	}
	for _, b := range SBBound() {
		if !b.SBBound || b.Threads != 1 {
			t.Errorf("%s misfiled in SBBound()", b.Name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent benchmark")
	}
	if len(SBBound()) < 8 {
		t.Errorf("only %d SB-bound single-threaded proxies", len(SBBound()))
	}
}
