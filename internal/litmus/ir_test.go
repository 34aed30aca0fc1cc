package litmus

import (
	"testing"

	"tusim/internal/isa"
)

// TestProgramExport: every suite test must export to the checkable IR,
// with filler ops stripped, ranks assigned in scan order, and outcome
// slots matching RunOne's layout.
func TestProgramExport(t *testing.T) {
	for _, lt := range Tests() {
		p, err := lt.Program()
		if err != nil {
			t.Fatalf("%s: %v", lt.Name, err)
		}
		wantObs := 0
		for _, th := range lt.Threads {
			wantObs += len(th.ObsSeqs)
		}
		if p.NumObs != wantObs {
			t.Errorf("%s: NumObs = %d, want %d", lt.Name, p.NumObs, wantObs)
		}
		if len(p.FinalReads) != len(lt.FinalReads) {
			t.Errorf("%s: %d final reads, want %d", lt.Name, len(p.FinalReads), len(lt.FinalReads))
		}
		for c, ops := range p.Threads {
			for i, op := range ops {
				if op.Kind != isa.Store && op.Kind != isa.Load && op.Kind != isa.Fence {
					t.Errorf("%s: thread %d op %d: non-IR kind %v survived export", lt.Name, c, i, op.Kind)
				}
			}
		}
	}
}

// TestProgramRanks: the IR's store ranks must replicate RunOne's
// program-scan rank assignment (CoWW has two stores to one address).
func TestProgramRanks(t *testing.T) {
	for _, lt := range Tests() {
		if lt.Name != "CoWW" {
			continue
		}
		p, err := lt.Program()
		if err != nil {
			t.Fatal(err)
		}
		var ranks []uint64
		for _, op := range p.Threads[0] {
			if op.Kind == isa.Store {
				ranks = append(ranks, op.Val)
			}
		}
		if len(ranks) != 2 || ranks[0] != 1 || ranks[1] != 2 {
			t.Fatalf("CoWW store ranks = %v, want [1 2]", ranks)
		}
	}
}

// TestProgramRejectsSubWordAccess: the IR models 8-byte locations; a
// narrower access must be rejected, not silently mis-modeled.
func TestProgramRejectsSubWordAccess(t *testing.T) {
	bad := Test{
		Name: "bad",
		Threads: []Thread{
			{Ops: []isa.MicroOp{{Kind: isa.Store, Addr: X, Size: 4}}},
		},
	}
	if _, err := bad.Program(); err == nil {
		t.Fatal("4-byte store exported without error")
	}
}
