package memsys_test

import (
	"testing"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/system"
)

// TestAuditorCatchesInFlightBitDrift cross-wires one line's miss link
// to another line's miss, from a line with no miss and from a line with
// its own, and requires the auditor to report mshr-line-agreement; the
// restored links audit clean.
func TestAuditorCatchesInFlightBitDrift(t *testing.T) {
	const line = 0x10000
	// Both cores read the same lines, so each ends holding them S.
	streams := make([]isa.Stream, 2)
	for c := range streams {
		var ops []isa.MicroOp
		for i := uint64(0); i < 8; i++ {
			ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: line + i*64, Size: 8})
		}
		streams[c] = isa.NewSliceStream(ops)
	}
	sys, err := system.New(config.Default().WithCores(2), streams)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	p, a := sys.Privs[0], audit.New(sys)
	idle, busy, other := p.Lookup(line), p.Lookup(line+64), p.Lookup(line+128)
	if idle == nil || idle.State != memsys.StateS || idle.InFlight() || p.MSHRPending(line) {
		t.Fatal("setup: want a shared line with no miss in flight")
	}
	p.KeepWritable(line + 64) // upgrades, left in flight
	p.KeepWritable(line + 128)
	if !busy.InFlight() || !other.InFlight() || !p.MSHRPending(line+128) {
		t.Fatal("setup: want both upgrades in flight")
	}
	if pe := a.Audit(sys.Q.Now()); pe != nil {
		t.Fatalf("setup: the machine in sync gave %v", pe)
	}
	for _, pl := range []*memsys.PLine{idle, busy} {
		restore := memsys.CrossWire(pl, other)
		pe := a.Audit(sys.Q.Now())
		if pe == nil || pe.Invariant != "mshr-line-agreement" || pe.Core != 0 || pe.Line != pl.Line {
			t.Fatalf("%#x linked to %#x's miss gave %v", pl.Line, other.Line, pe)
		}
		restore()
		if pe := a.Audit(sys.Q.Now()); pe != nil {
			t.Fatalf("%#x: the restored link gave %v", pl.Line, pe)
		}
	}
}
