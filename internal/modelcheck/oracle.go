// Package modelcheck turns the repo's sampled TSO validation (litmus
// skew sweeps, chaos fuzzing) into a decidable check for small
// programs. It has three layers:
//
//  1. A reference *oracle*: the operational x86-TSO machine (per-thread
//     FIFO store buffer + shared memory, with store forwarding) of
//     Owens/Sarkar/Sewell, explored exhaustively by DFS with memoized
//     state hashing. For a litmus program it computes the *complete*
//     set of TSO-allowed final outcomes.
//  2. A controlled-schedule *explorer* that drives the real
//     cycle-accurate simulator through its nondeterminism choice points
//     — per-core start skews and the fault injector's decision stream
//     (latencies, NACKs, stalls, WCB flushes, probe orders) — by
//     iterative deepening over scripted decision prefixes, recording
//     each terminal outcome.
//  3. A *comparator* that diffs the two: any simulator outcome outside
//     the oracle's allowed set is unsoundness (a real protocol bug,
//     reported with a minimal replayable schedule); allowed outcomes no
//     schedule produced are reported as coverage, not failure.
//
// The oracle is the repo's only statement of which litmus outcomes TSO
// allows: Oracle computes a program's set once, and the explorer, the
// chaos matrix (internal/harness) and repro-bundle replay all ask it.
//
// Everything here is deterministic: two identical invocations produce
// identical exploration transcripts, so a reported violation is
// reproducible by construction.
package modelcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tusim/internal/isa"
	"tusim/internal/litmus"
)

// Limits bounds an oracle enumeration.
type Limits struct {
	// MaxStates caps distinct states visited (0 = DefaultMaxStates).
	MaxStates int
}

// DefaultMaxStates is ample for every litmus-scale program; the suite's
// largest (IRIW) visits a few thousand states.
const DefaultMaxStates = 1 << 20

// Outcome is one final observation vector: recorded-load ranks in
// RunOne's slot order, then final-memory ranks for Program.FinalReads.
type Outcome []uint64

// Key is the canonical map key for an outcome: fmt.Sprint's form of
// the vector, built without fmt. The explorer's census and the oracle's
// allowed set both key by it, so they cross-index directly.
func Key(o []uint64) string {
	b := make([]byte, 0, 32)
	b = append(b, '[')
	for i, v := range o {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return string(append(b, ']'))
}

// OracleResult is the oracle's verdict on one program.
type OracleResult struct {
	Program litmus.Program
	// Outcomes is the complete TSO-allowed outcome set (complete only
	// when Complete is true).
	Outcomes map[string]Outcome
	// States counts distinct machine states visited.
	States int
	// Transcript lists every state's canonical encoding in first-visit
	// order; identical invocations must produce identical transcripts.
	Transcript []string
	// Complete is false when MaxStates stopped the enumeration early.
	Complete bool
}

// Allowed reports whether the outcome is in the oracle's set.
func (r *OracleResult) Allowed(o []uint64) bool {
	_, ok := r.Outcomes[Key(o)]
	return ok
}

// SortedKeys returns the outcome keys in lexicographic order (for
// deterministic reporting).
func (r *OracleResult) SortedKeys() []string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sbEntry is one buffered store: an 8-byte location and the rank it
// writes.
type sbEntry struct{ addr, val uint64 }

// mcState is one state of the operational TSO machine.
type mcState struct {
	pcs []int
	sbs [][]sbEntry
	mem map[uint64]uint64
	obs Outcome
}

func newState(p litmus.Program) *mcState {
	return &mcState{
		pcs: make([]int, len(p.Threads)),
		sbs: make([][]sbEntry, len(p.Threads)),
		mem: map[uint64]uint64{},
		obs: make(Outcome, p.NumObs),
	}
}

func (s *mcState) clone() *mcState {
	c := &mcState{
		pcs: append([]int(nil), s.pcs...),
		sbs: make([][]sbEntry, len(s.sbs)),
		mem: make(map[uint64]uint64, len(s.mem)),
		obs: append(Outcome(nil), s.obs...),
	}
	for i, sb := range s.sbs {
		c.sbs[i] = append([]sbEntry(nil), sb...)
	}
	for k, v := range s.mem {
		c.mem[k] = v
	}
	return c
}

// encode produces the canonical deterministic state encoding: threads
// in index order (pc, then FIFO store-buffer contents oldest-first),
// memory as addr-sorted pairs, then the observation vector. Map
// iteration order never leaks into the encoding, which is what makes
// exploration transcripts identical across runs.
func (s *mcState) encode() string {
	var b strings.Builder
	for t := range s.pcs {
		fmt.Fprintf(&b, "t%d@%d[", t, s.pcs[t])
		for _, e := range s.sbs[t] {
			fmt.Fprintf(&b, "%x:%d,", e.addr, e.val)
		}
		b.WriteString("]")
	}
	addrs := make([]uint64, 0, len(s.mem))
	for a := range s.mem {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	b.WriteString("m{")
	for _, a := range addrs {
		fmt.Fprintf(&b, "%x:%d,", a, s.mem[a])
	}
	b.WriteString("}o")
	fmt.Fprint(&b, []uint64(s.obs))
	return b.String()
}

// forward returns the value a load of addr reads: the youngest matching
// store in the thread's own buffer (mandatory store-to-load
// forwarding), else shared memory (unwritten locations read rank 0).
func (s *mcState) forward(t int, addr uint64) uint64 {
	sb := s.sbs[t]
	for i := len(sb) - 1; i >= 0; i-- {
		if sb[i].addr == addr {
			return sb[i].val
		}
	}
	return s.mem[addr]
}

// move is one enabled transition: thread t either executes its next
// instruction (drain=false) or drains its oldest buffered store.
type move struct {
	t     int
	drain bool
}

// moves lists the enabled transitions in canonical order: instruction
// steps by thread index, then drain steps by thread index. A fence is
// enabled only once the issuing thread's buffer is empty.
func (s *mcState) moves(p litmus.Program) []move {
	var ms []move
	for t := range s.pcs {
		if s.pcs[t] >= len(p.Threads[t]) {
			continue
		}
		op := p.Threads[t][s.pcs[t]]
		if op.Kind == isa.Fence && len(s.sbs[t]) > 0 {
			continue
		}
		ms = append(ms, move{t: t})
	}
	for t := range s.sbs {
		if len(s.sbs[t]) > 0 {
			ms = append(ms, move{t: t, drain: true})
		}
	}
	return ms
}

// apply mutates the state by one transition, returning the step record.
func (s *mcState) apply(p litmus.Program, m move) Step {
	if m.drain {
		e := s.sbs[m.t][0]
		s.sbs[m.t] = s.sbs[m.t][1:]
		s.mem[e.addr] = e.val
		return Step{Kind: StepDrain, Thread: m.t, Addr: e.addr, Val: e.val, Obs: -1}
	}
	op := p.Threads[m.t][s.pcs[m.t]]
	s.pcs[m.t]++
	switch op.Kind {
	case isa.Store:
		s.sbs[m.t] = append(s.sbs[m.t], sbEntry{addr: op.Addr, val: op.Val})
		return Step{Kind: StepStore, Thread: m.t, Addr: op.Addr, Val: op.Val, Obs: -1}
	case isa.Load:
		v := s.forward(m.t, op.Addr)
		if op.Obs >= 0 {
			s.obs[op.Obs] = v
		}
		return Step{Kind: StepLoad, Thread: m.t, Addr: op.Addr, Val: v, Obs: op.Obs}
	default: // fence
		return Step{Kind: StepFence, Thread: m.t, Obs: -1}
	}
}

// outcome reads the terminal observation vector (loads + final memory).
func (s *mcState) outcome(p litmus.Program) Outcome {
	out := append(Outcome(nil), s.obs...)
	for _, a := range p.FinalReads {
		out = append(out, s.mem[a])
	}
	return out
}

// Enumerate computes the complete TSO-allowed outcome set of a program
// by exhaustive DFS over the operational machine, memoizing visited
// states. Returns Complete=false (never an error) when MaxStates stops
// it early — callers decide whether a bounded result is acceptable.
func Enumerate(p litmus.Program, lim Limits) *OracleResult {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	res := &OracleResult{
		Program:  p,
		Outcomes: map[string]Outcome{},
		Complete: true,
	}
	seen := map[string]bool{}

	var dfs func(s *mcState)
	dfs = func(s *mcState) {
		key := s.encode()
		if seen[key] {
			return
		}
		if len(seen) >= maxStates {
			res.Complete = false
			return
		}
		seen[key] = true
		res.Transcript = append(res.Transcript, key)

		ms := s.moves(p)
		if len(ms) == 0 {
			o := s.outcome(p)
			res.Outcomes[Key(o)] = o
			return
		}
		for _, m := range ms {
			next := s.clone()
			next.apply(p, m)
			dfs(next)
		}
	}
	dfs(newState(p))
	res.States = len(seen)
	return res
}

// Oracle is the one way to ask which outcomes of a litmus test x86-TSO
// allows: it exports the test as IR and enumerates it, failing when the
// program is not exportable or the state budget stops the enumeration
// short of the complete set. The explorer, Check, the chaos matrix and
// bundle replay all judge outcomes by its Allowed.
func Oracle(test litmus.Test, lim Limits) (*OracleResult, error) {
	p, err := test.Program()
	if err != nil {
		return nil, err
	}
	oracle := Enumerate(p, lim)
	if !oracle.Complete {
		return nil, fmt.Errorf("modelcheck: oracle state budget exceeded on %s (%d states); raise Limits.MaxStates",
			test.Name, oracle.States)
	}
	return oracle, nil
}

// Step kinds for enumerated traces.
const (
	// StepStore: a store executes into the issuing thread's buffer.
	StepStore = byte('S')
	// StepLoad: a load binds Val (forwarded or from memory).
	StepLoad = byte('L')
	// StepFence: a fence retires (buffer already empty).
	StepFence = byte('F')
	// StepDrain: the thread's oldest buffered store reaches memory.
	StepDrain = byte('D')
)

// Step is one transition of an enumerated trace.
type Step struct {
	Kind   byte
	Thread int
	Addr   uint64
	Val    uint64
	// Obs is the outcome slot a recorded load fills, else -1.
	Obs int
}

func (s Step) String() string {
	switch s.Kind {
	case StepFence:
		return fmt.Sprintf("t%d:fence", s.Thread)
	case StepDrain:
		return fmt.Sprintf("t%d:drain %#x=%d", s.Thread, s.Addr, s.Val)
	case StepLoad:
		return fmt.Sprintf("t%d:ld %#x->%d", s.Thread, s.Addr, s.Val)
	}
	return fmt.Sprintf("t%d:st %#x=%d", s.Thread, s.Addr, s.Val)
}

// Trace is one complete interleaving of the operational machine, from
// the initial state to a terminal (all-drained) state.
type Trace []Step

// Traces enumerates complete traces of the program by DFS (no
// memoization — paths, not states), up to max traces. The second
// result reports whether the enumeration was exhaustive. Traces feed
// the tso.Checker cross-validation: every one is TSO-allowed by
// construction.
func Traces(p litmus.Program, max int) ([]Trace, bool) {
	var out []Trace
	complete := true
	var cur Trace

	var dfs func(s *mcState)
	dfs = func(s *mcState) {
		if len(out) >= max {
			complete = false
			return
		}
		ms := s.moves(p)
		if len(ms) == 0 {
			out = append(out, append(Trace(nil), cur...))
			return
		}
		for _, m := range ms {
			next := s.clone()
			step := next.apply(p, m)
			cur = append(cur, step)
			dfs(next)
			cur = cur[:len(cur)-1]
		}
	}
	dfs(newState(p))
	return out, complete
}
