// Package litmus is the repo's suite of classic memory-consistency
// litmus tests and the means to run them on the simulated machine:
//
//   - Tests returns the suite, each test a tiny multi-core program;
//   - Test.Program exports a test as checkable IR (ir.go);
//   - RunOne runs a test once on a configured machine and returns its
//     outcome vector.
//
// The package says nothing about which outcomes are legal. That is the
// one question internal/modelcheck answers: its operational x86-TSO
// oracle enumerates each program's allowed outcome set, and the
// explorer, the chaos matrix and bundle replay all ask it. The comments
// on each test record why TSO allows or forbids its interesting
// outcome:
//
//   - SB  (store buffering):   r1=0 ^ r2=0 is ALLOWED under TSO
//   - MP  (message passing):   r1=1 ^ r2=0 is FORBIDDEN
//   - LB  (load buffering):    r1=1 ^ r2=1 is FORBIDDEN (no LSR)
//   - SBF (SB + fences):       r1=0 ^ r2=0 is FORBIDDEN
//   - CoWW/CoRR (coherence):   per-location order must hold, for both
//     the write-write and read-read directions
//   - IRIW (independent reads): readers may not disagree on the order
//     of two independent writes (store atomicity)
//   - n6 (store forwarding):   r1=1 ^ r2=0 ^ x=1 is ALLOWED — the
//     forwarding outcome SC and forwarding-free TSO both forbid
//   - RWC (fenced):            r1=1 ^ r2=0 ^ r3=0 is FORBIDDEN
//   - ATOM (atomic group):     a coalesced A,B,A group publishes
//     atomically — no observer may see the second A write before B
//
// RunOne varies interleavings by per-core start skew; fault injection
// and scripted decision sources (Opts) perturb them further.
package litmus

import (
	"fmt"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/system"
	"tusim/internal/tso"
)

// X and Y are the shared variables used by the litmus tests (distinct
// cache lines in the cross-thread shared region).
const (
	X = uint64(1)<<33 + 0*64
	Y = uint64(1)<<33 + 1*64
)

// Thread is one core's program: a sequence of micro-ops where loads
// record observations.
type Thread struct {
	Ops []isa.MicroOp
	// ObsSeqs lists the op indices (by order of appearance among
	// loads) whose values are recorded as r1, r2, ... for this thread.
	ObsSeqs []int
}

// Test is one litmus configuration.
type Test struct {
	Name    string
	Threads []Thread
	// FinalReads lists addresses whose *final* coherent memory value is
	// appended (rank-classified like load observations) to the outcome
	// vector after all recorded loads. The n6 test needs this: its
	// discriminating outcome constrains the final value of x.
	FinalReads []uint64
}

// delay returns n filler ALU ops (a serial chain, n cycles).
func delay(n int) []isa.MicroOp {
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		ops[i] = isa.MicroOp{Kind: isa.IntAdd, Dep1: 1}
	}
	if n > 0 {
		ops[0].Dep1 = 0
	}
	return ops
}

func st(addr uint64) isa.MicroOp { return isa.MicroOp{Kind: isa.Store, Addr: addr, Size: 8} }
func ld(addr uint64) isa.MicroOp { return isa.MicroOp{Kind: isa.Load, Addr: addr, Size: 8} }

// Tests returns the litmus suite.
func Tests() []Test {
	return []Test{
		{
			// SB: T0: x=1; r1=y   T1: y=1; r2=x
			// TSO allows r1=r2=0 (both loads bypass the buffered store).
			Name: "SB",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), ld(Y)}, ObsSeqs: []int{0}},
				{Ops: []isa.MicroOp{st(Y), ld(X)}, ObsSeqs: []int{0}},
			},
		},
		{
			// SB+mfence: the fences forbid r1=r2=0.
			Name: "SB+fences",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), {Kind: isa.Fence}, ld(Y)}, ObsSeqs: []int{0}},
				{Ops: []isa.MicroOp{st(Y), {Kind: isa.Fence}, ld(X)}, ObsSeqs: []int{0}},
			},
		},
		{
			// MP: T0: x=1; y=1   T1: r1=y; r2=x
			// TSO forbids r1=1 ^ r2=0 (stores must become visible in order).
			Name: "MP",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), st(Y)}},
				{Ops: append(append([]isa.MicroOp{ld(Y)}, delay(8)...), ld(X)), ObsSeqs: []int{0, 1}},
			},
		},
		{
			// MP with the two stores coalescing into one atomic group
			// (x and y adjacent lines, plus a cycle back to x): the
			// group publishes atomically, so ordering still holds.
			Name: "MP+cycle",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), st(Y), {Kind: isa.Store, Addr: X + 8, Size: 8}}},
				{Ops: append(append([]isa.MicroOp{ld(Y)}, delay(8)...), ld(X)), ObsSeqs: []int{0, 1}},
			},
		},
		{
			// ATOM: the atomic group {X, Y} (via the cycle X,Y,X+8) may
			// never be observed half-published in either direction:
			// seeing the second X write (X+8) implies seeing Y, and
			// seeing Y implies seeing the first X write.
			Name: "ATOM",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), st(Y), {Kind: isa.Store, Addr: X + 8, Size: 8}}},
				{Ops: []isa.MicroOp{{Kind: isa.Load, Addr: X + 8, Size: 8}, ld(Y), ld(X)}, ObsSeqs: []int{0, 1, 2}},
			},
		},
		{
			// CoWW + CoRW: same-location writes by one core must be
			// observed in order by another core polling the location.
			// Observation encodes which write was seen: 0 (init),
			// 1 (first write) or 2 (second). Going backwards is forbidden.
			Name: "CoWW",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), {Kind: isa.Store, Addr: X, Size: 8}}},
				{Ops: append(append([]isa.MicroOp{ld(X)}, delay(8)...), ld(X)), ObsSeqs: []int{0, 1}},
			},
		},
		{
			// CoRR: same-location reads by one core must not observe a
			// write and then un-observe it (per-location coherence, the
			// read-read half of the CoWW pair).
			Name: "CoRR",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X)}},
				{Ops: append(append([]isa.MicroOp{ld(X)}, delay(8)...), ld(X)), ObsSeqs: []int{0, 1}},
			},
		},
		{
			// LB: T0: r1=x; y=1   T1: r2=y; x=1
			// TSO keeps loads before their later stores: r1=1 ^ r2=1
			// would need both loads to read the other thread's later
			// store — forbidden.
			Name: "LB",
			Threads: []Thread{
				{Ops: []isa.MicroOp{ld(X), st(Y)}, ObsSeqs: []int{0}},
				{Ops: []isa.MicroOp{ld(Y), st(X)}, ObsSeqs: []int{0}},
			},
		},
		{
			// IRIW: two writers, two readers. TSO's store atomicity
			// forbids the readers disagreeing on the store order:
			// r1=1,r2=0 says x=1 happened before y=1; r3=1,r4=0 says the
			// opposite.
			Name: "IRIW",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X)}},
				{Ops: []isa.MicroOp{st(Y)}},
				{Ops: append(append([]isa.MicroOp{ld(X)}, delay(8)...), ld(Y)), ObsSeqs: []int{0, 1}},
				{Ops: append(append([]isa.MicroOp{ld(Y)}, delay(8)...), ld(X)), ObsSeqs: []int{0, 1}},
			},
		},
		{
			// n6 (Owens/Sarkar/Sewell): T0: x=1; r1=x; r2=y
			//                           T1: y=1; x=2
			// The discriminating outcome r1=1 ^ r2=0 ^ final x=1 is
			// ALLOWED under x86-TSO (store forwarding lets T0 read its
			// own buffered x=1 while both its drain and T1's stores float
			// around it) but forbidden without forwarding. Over
			// (r1, r2, final x): r1 always sees at least T0's own x=1
			// (mandatory forwarding), and r1=2 requires T0's own store
			// already drained and overwritten (forcing final x=2 and,
			// transitively, r2=1).
			Name: "n6",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X), ld(X), ld(Y)}, ObsSeqs: []int{0, 1}},
				{Ops: []isa.MicroOp{st(Y), st(X)}},
			},
			FinalReads: []uint64{X},
		},
		{
			// RWC (read-to-write causality, fenced): T0: x=1
			//   T1: r1=x; r2=y   T2: y=1; mfence; r3=x
			// r1=1 ^ r2=0 places x=1 before y=1 in the store order; the
			// fence forces T2's read after its own y=1, so r3=0 would
			// place y=1 before x=1 — forbidden. (Without the fence TSO
			// allows it: T2 may read x while y=1 sits in its buffer.)
			Name: "RWC",
			Threads: []Thread{
				{Ops: []isa.MicroOp{st(X)}},
				{Ops: append(append([]isa.MicroOp{ld(X)}, delay(8)...), ld(Y)), ObsSeqs: []int{0, 1}},
				{Ops: []isa.MicroOp{st(Y), {Kind: isa.Fence}, ld(X)}, ObsSeqs: []int{0}},
			},
		},
	}
}

// Opts tunes a litmus run beyond the plain configuration.
type Opts struct {
	// Faults, when non-nil, installs seeded fault injection.
	Faults *faults.Plan
	// Source, when non-nil alongside Faults, overrides the injector's
	// decision source (the model checker's scripted-schedule hook).
	Source faults.DecisionSource
	// AuditEvery, when nonzero, attaches the invariant auditor at the
	// given cadence (cycles).
	AuditEvery uint64
}

// ByName looks a suite test up; ok=false when unknown.
func ByName(name string) (Test, bool) {
	for _, t := range Tests() {
		if t.Name == name {
			return t, true
		}
	}
	return Test{}, false
}

// RunOne executes the test once with per-thread start skews and
// classifies each observed load value: 0 = initial memory, k = the
// k-th store (in program order) to that address anywhere in the test.
// The TSO checker is always attached; o adds fault injection and the
// invariant auditor. A returned error may be a *system.CrashReport.
func RunOne(test Test, m config.Mechanism, skew int, o Opts) ([]uint64, error) {
	cores := len(test.Threads)
	cfg := config.Default().WithMechanism(m).WithCores(cores)
	cfg.StreamPrefetcher = false

	type obsKey struct{ core, loadIdx int }
	streams := make([]isa.Stream, cores)
	obsOrder := make([]obsKey, 0, 4)
	loadSeqOf := make([]map[int]int, cores)
	valueRank := map[[8]byte]uint64{}
	addrCount := map[uint64]int{}
	for c, th := range test.Threads {
		pre := delay(1 + skew*(7+6*c)%97)
		ops := append(append([]isa.MicroOp{}, pre...), th.Ops...)
		loadSeqOf[c] = map[int]int{}
		li := 0
		for i, op := range th.Ops {
			seq := len(pre) + i
			switch op.Kind {
			case isa.Load:
				loadSeqOf[c][li] = seq
				li++
			case isa.Store:
				addrCount[op.Addr]++
				valueRank[cpu.StoreValue(c, uint64(seq))] = uint64(addrCount[op.Addr])
			}
		}
		for _, oi := range th.ObsSeqs {
			obsOrder = append(obsOrder, obsKey{c, oi})
		}
		streams[c] = isa.NewSliceStream(ops)
	}

	sys, err := system.New(cfg, streams)
	if err != nil {
		return nil, err
	}
	ck := tso.NewChecker(cores)
	sys.SetObserver(ck)
	if o.Faults != nil {
		src := o.Source
		if src == nil {
			src = faults.NewPRNGSource(o.Faults.Seed)
		}
		if err := sys.InstallFaults(faults.NewInjectorWithSource(*o.Faults, src)); err != nil {
			return nil, err
		}
	}
	if o.AuditEvery != 0 {
		audit.Install(sys, o.AuditEvery)
	}

	// Capture load values keyed by (core, seq), preserving the
	// checker's observer hook.
	loadVals := map[[2]uint64][8]byte{}
	for i := range sys.Cores {
		i := i
		prev := sys.Cores[i].OnLoadValue
		sys.Cores[i].OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) {
			if prev != nil {
				prev(core, seq, addr, size, v)
			}
			loadVals[[2]uint64{uint64(i), seq}] = v
		}
	}

	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("litmus %s/%v skew %d: %w", test.Name, m, skew, err)
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		return nil, fmt.Errorf("litmus %s/%v skew %d: %w", test.Name, m, skew, err)
	}

	out := make([]uint64, 0, len(obsOrder)+len(test.FinalReads))
	for _, k := range obsOrder {
		seq := loadSeqOf[k.core][k.loadIdx]
		v, ok := loadVals[[2]uint64{uint64(k.core), uint64(seq)}]
		if !ok {
			return nil, fmt.Errorf("litmus %s: observation load never bound", test.Name)
		}
		out = append(out, valueRank[v]) // zero value -> rank 0 (initial)
	}
	for _, addr := range test.FinalReads {
		var v [8]byte
		for i := range v {
			v[i] = sys.ReadCoherent(addr + uint64(i))
		}
		out = append(out, valueRank[v])
	}
	return out, nil
}
