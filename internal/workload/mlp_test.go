package workload

import (
	"testing"

	"tusim/internal/isa"
)

func TestMLPFingerprint(t *testing.T) {
	gen := genMLP(1<<20, 1<<20, 2, 3, 10)
	tr := gen(1, 3000, 1)[0]
	loads, stores := 0, 0
	depLoads := 0
	for _, op := range tr {
		switch op.Kind {
		case isa.Load:
			loads++
			if op.Dep1 != 0 {
				depLoads++
			}
		case isa.Store:
			stores++
		}
	}
	if depLoads != 0 {
		t.Errorf("MLP loads must be independent; %d carry deps", depLoads)
	}
	// Ratio 2:3 between loads and stores per iteration.
	if loads == 0 || stores == 0 {
		t.Fatal("empty mix")
	}
	ratio := float64(stores) / float64(loads)
	if ratio < 1.2 || ratio > 1.8 {
		t.Errorf("store/load ratio = %.2f, want ~1.5", ratio)
	}
}

func TestMLPConsecutiveRuns(t *testing.T) {
	gen := genMLPRuns(1<<20, 1<<20, 1, 4, 8, true)
	tr := gen(1, 2000, 1)[0]
	// Every store run of 4 must cover 4 consecutive lines.
	runs := 0
	var lines []uint64
	flush := func() {
		if len(lines) == 4 {
			ok := true
			for i := 1; i < 4; i++ {
				if lines[i] != lines[0]+uint64(i)*64 {
					ok = false
				}
			}
			if ok {
				runs++
			}
		}
		lines = lines[:0]
	}
	for _, op := range tr {
		if op.Kind == isa.Store {
			lines = append(lines, op.Addr&^63)
			if len(lines) == 4 {
				flush()
			}
		} else if len(lines) > 0 {
			flush()
		}
	}
	if runs < 20 {
		t.Errorf("only %d consecutive 4-line store runs found", runs)
	}
}

func TestMLPSharedRegionTargeted(t *testing.T) {
	gen := genMLPShared(1<<20, 1<<20, 2, 2, 8, false, 20, 256)
	traces := gen(1, 3000, 2)
	shared := 0
	for _, tr := range traces {
		for _, op := range tr {
			if op.Kind.IsMem() && op.Addr >= sharedBase && op.Addr < sharedBase+256*64 {
				shared++
			}
		}
	}
	if shared < 100 {
		t.Errorf("shared accesses = %d, want a meaningful fraction at 20%%", shared)
	}
}

func TestWarmPrologueTouchesFootprint(t *testing.T) {
	p := burstParams{burstLines: 8, storesPerLn: 2, computeGap: 50, loadsPerGap: 4, regionReuse: 1, warm: true}
	gen := genBurst(p, 64*256) // 256-line footprint
	tr := gen(1, 3000, 1)[0]
	touched := map[uint64]bool{}
	for i := 0; i < 256 && i < len(tr); i++ {
		op := tr[i]
		if op.Kind == isa.Store {
			touched[op.Addr&^63] = true
		} else {
			break
		}
	}
	if len(touched) < 256 {
		t.Errorf("prologue touched %d/256 footprint lines", len(touched))
	}
}
