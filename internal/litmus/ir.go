package litmus

import (
	"fmt"

	"tusim/internal/isa"
)

// ProgOp is one instruction of the checkable IR: a memory-model-visible
// operation with the bookkeeping the oracle needs and nothing else
// (filler ALU ops, which exist only to shape simulator timing, are
// stripped).
type ProgOp struct {
	// Kind is isa.Store, isa.Load, or isa.Fence.
	Kind isa.Kind
	// Addr is the 8-byte-aligned location (Store/Load).
	Addr uint64
	// Val is the store's rank: the k-th store to Addr in program-scan
	// order writes k, matching the rank classification RunOne applies
	// to the simulator's observed values.
	Val uint64
	// Obs is the outcome-vector slot this load's value lands in, or -1
	// for loads whose value the test does not record.
	Obs int
}

// Program is a litmus test in checkable IR form: per-thread operation
// lists over ranked store values, plus the final-memory observations.
// Outcome vectors are len(NumObs)+len(FinalReads) ranks, laid out
// exactly like RunOne's: recorded loads in thread-major ObsSeqs order,
// then FinalReads.
type Program struct {
	Name    string
	Threads [][]ProgOp
	// NumObs is the number of recorded-load slots.
	NumObs int
	// FinalReads lists addresses observed after termination.
	FinalReads []uint64
}

// Program exports the test in checkable IR form. It fails on tests the
// oracle cannot model exactly: memory ops that are not 8 aligned bytes
// (the IR models locations at 8-byte granularity, which every litmus
// pattern in the suite uses).
func (t Test) Program() (Program, error) {
	p := Program{Name: t.Name, FinalReads: append([]uint64(nil), t.FinalReads...)}

	// Outcome slots in RunOne's order: threads in order, each thread's
	// ObsSeqs in order.
	type loadKey struct{ thread, loadIdx int }
	obsSlot := map[loadKey]int{}
	for c, th := range t.Threads {
		for _, oi := range th.ObsSeqs {
			obsSlot[loadKey{c, oi}] = p.NumObs
			p.NumObs++
		}
	}

	addrCount := map[uint64]int{}
	for c, th := range t.Threads {
		var ops []ProgOp
		li := 0
		for i, op := range th.Ops {
			switch op.Kind {
			case isa.Store, isa.Load:
				if op.Size != 8 || op.Addr%8 != 0 {
					return Program{}, fmt.Errorf("litmus %s: thread %d op %d (%s) is not an aligned 8-byte access",
						t.Name, c, i, op)
				}
			}
			switch op.Kind {
			case isa.Store:
				addrCount[op.Addr]++
				ops = append(ops, ProgOp{Kind: isa.Store, Addr: op.Addr, Val: uint64(addrCount[op.Addr])})
			case isa.Load:
				obs := -1
				if s, ok := obsSlot[loadKey{c, li}]; ok {
					obs = s
				}
				ops = append(ops, ProgOp{Kind: isa.Load, Addr: op.Addr, Obs: obs})
				li++
			case isa.Fence:
				ops = append(ops, ProgOp{Kind: isa.Fence})
			}
		}
		p.Threads = append(p.Threads, ops)
	}
	for _, addr := range p.FinalReads {
		if addr%8 != 0 {
			return Program{}, fmt.Errorf("litmus %s: final read %#x is not 8-byte aligned", t.Name, addr)
		}
	}
	return p, nil
}
