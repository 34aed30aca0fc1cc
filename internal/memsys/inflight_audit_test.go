package memsys_test

import (
	"testing"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/system"
)

// TestAuditorCatchesInFlightBitDrift desynchronises one line's
// in-flight bit from the MSHR table, each way round, and requires the
// auditor to report mshr-inflight-bit; the machine in sync audits clean.
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
	pl := p.Lookup(line)
	if pl == nil || pl.State != memsys.StateS || pl.InFlight() || p.MSHRPending(line) {
		t.Fatal("setup: want a shared line with no miss in flight")
	}
	drifts := func(when string) {
		t.Helper()
		pl.SetInFlight(!pl.InFlight())
		pe := a.Audit(sys.Q.Now())
		if pe == nil || pe.Invariant != "mshr-inflight-bit" || pe.Core != 0 || pe.Line != line {
			t.Fatalf("%s: a flipped bit gave %v", when, pe)
		}
		pl.SetInFlight(!pl.InFlight())
		if pe := a.Audit(sys.Q.Now()); pe != nil {
			t.Fatalf("%s: the restored bit gave %v", when, pe)
		}
	}
	drifts("no miss in flight")
	p.KeepWritable(line) // an upgrade, left in flight
	if !pl.InFlight() || !p.MSHRPending(line) {
		t.Fatal("setup: want the upgrade in flight")
	}
	drifts("upgrade in flight")
}
