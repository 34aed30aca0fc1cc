package memsys

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
)

// The differential state-identity rig: one memory system runs on the
// open-addressed/pooled fast containers and the time-wheel scheduler,
// its twin runs with config.Reference set (built-in maps, always-fresh
// allocation, the binary heap alone), and the same seeded traffic —
// loads, stores, ownership bounces, unauthorized-store lifecycles,
// chaos-injector streams — is pumped through both. At every drain point the full observable state (cache
// lines, MSHRs, write-back buffer, directory, stats, and the ordered
// reply log) must be byte-identical. Reference pools never recycle
// memory, so a missing field reset in the fast path's struct reuse
// diverges here immediately, and so does any wheel pop that leaves the
// heap's (cycle, seq) order.

// diffSide is one of the two systems under comparison plus the
// observable-output log the rig compares.
type diffSide struct {
	r       *rig
	handler []*diffHandler
	log     []string
}

// diffHandler is a deterministic authorization unit: probes alternate
// delay/relinquish by line hash, and fills publish the line (the
// shortest legal unauthorized lifecycle). Its decisions depend only on
// the call sequence, so two behaviorally identical systems see
// identical streams — and a divergence shows up as a state diff.
type diffHandler struct {
	p     *Private
	side  *diffSide
	core  int
	calls uint64
}

func (h *diffHandler) HandleProbe(line uint64) ProbeAction {
	h.calls++
	h.side.log = append(h.side.log, fmt.Sprintf("probe c%d %#x", h.core, line))
	if (line>>6+h.calls)%3 == 0 {
		return ActionRelinquish
	}
	return ActionDelay
}

func (h *diffHandler) HandleFill(line uint64) {
	h.side.log = append(h.side.log, fmt.Sprintf("fill c%d %#x", h.core, line))
	h.p.MakeVisible(line)
}

func (h *diffHandler) HandleRelinquish(line uint64) {
	h.side.log = append(h.side.log, fmt.Sprintf("relinq c%d %#x", h.core, line))
}

// newDiffSide builds one comparison side; ref is its config.Reference.
func newDiffSide(cores int, ref bool, plan faults.Plan) *diffSide {
	cfg := config.Default().WithCores(cores)
	cfg.Reference = ref
	side := &diffSide{r: buildRig(cfg)}
	for i, p := range side.r.ps {
		h := &diffHandler{p: p, side: side, core: i}
		p.SetHandler(h)
		side.handler = append(side.handler, h)
		core := i
		p.LoadReply = func(seq, data uint64) {
			side.log = append(side.log, fmt.Sprintf("load c%d seq=%d data=%#x", core, seq, data))
		}
	}
	if plan.Enabled() {
		in := faults.NewInjector(plan)
		side.r.dir.SetFaults(in)
		for _, p := range side.r.ps {
			p.SetFaults(in)
		}
	}
	return side
}

// snapshot renders every piece of observable machine state. Audits
// iterate in sorted key order, so the rendering is representation-
// independent by construction.
func (s *diffSide) snapshot(pool []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d\n", s.r.q.Now())
	for i, p := range s.r.ps {
		fmt.Fprintf(&b, "core %d lines:\n", i)
		p.AuditLines(func(pl *PLine) {
			fmt.Fprintf(&b, "  %#x st=%v l1=%v l2=%v d1=%v d2=%v nv=%v rdy=%v um=%#x l1d=%x l2d=%x\n",
				pl.Line, pl.State, pl.InL1, pl.InL2, pl.L1Dirty, pl.L2Dirty,
				pl.NotVisible, pl.Ready, pl.UMask, pl.L1Data, pl.L2Data)
		})
		fmt.Fprintf(&b, "core %d mshrs:\n", i)
		p.AuditMSHRs(func(line, born uint64, wantM, prefetch bool) {
			fmt.Fprintf(&b, "  %#x born=%d m=%v pf=%v\n", line, born, wantM, prefetch)
		})
		fmt.Fprintf(&b, "core %d wb:", i)
		for _, ln := range pool {
			if p.WBPending(ln) {
				fmt.Fprintf(&b, " %#x", ln)
			}
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "core %d stats:\n%s", i, p.st.String())
	}
	b.WriteString("directory:\n")
	s.r.dir.AuditEntries(func(line uint64, owner int, sharers uint64, busy bool, busySince uint64) {
		fmt.Fprintf(&b, "  %#x own=%d sh=%#x busy=%v since=%d\n", line, owner, sharers, busy, busySince)
	})
	fmt.Fprintf(&b, "dir stats:\n%s", s.st())
	fmt.Fprintf(&b, "log(%d):\n", len(s.log))
	for _, l := range s.log {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

func (s *diffSide) st() string { return s.r.st.String() }

// step applies one seeded random operation to a side. Both sides are
// driven with identical op streams (the rng is owned by the caller).
func (s *diffSide) step(op, core int, line uint64, off, sz uint64, seq uint64) {
	p := s.r.ps[core]
	switch op {
	case 0, 1, 2: // seq-based load
		ok := p.LoadSeq(line+off, uint8(sz), seq)
		s.log = append(s.log, fmt.Sprintf("loadseq c%d %#x ok=%v", core, line+off, ok))
	case 3: // ownership acquisition (bounces between cores)
		ok := p.RequestWritable(line, false, true, nil)
		s.log = append(s.log, fmt.Sprintf("rfo c%d %#x ok=%v", core, line, ok))
	case 4, 5: // visible store (hits only when writable and visible)
		if pl := p.Lookup(line); pl != nil && pl.NotVisible {
			// Mixing the visible-store path into an unauthorized line is
			// an API violation, not a workload; skip deterministically.
			s.log = append(s.log, fmt.Sprintf("store c%d %#x skip-nv", core, line+off))
			return
		}
		buf := []byte{byte(seq), byte(seq >> 8), 3, 4, 5, 6, 7, 8}
		ok := p.StoreVisible(line+off, buf[:sz])
		s.log = append(s.log, fmt.Sprintf("store c%d %#x ok=%v", core, line+off, ok))
	case 6: // unauthorized store: write first, ask for permission later
		if pl := p.Lookup(line); pl != nil && pl.NotVisible && pl.Ready {
			// Already filled and awaiting publication; writing more bytes
			// now would race MakeVisible. Skip deterministically.
			s.log = append(s.log, fmt.Sprintf("ustore c%d %#x skip-rdy", core, line+off))
			return
		}
		buf := []byte{byte(seq), 0xBB, 0xCC, 0xDD, 1, 2, 3, 4}
		if p.StoreUnauthorizedLine(lineStore(line+off, buf[:sz])) {
			started := p.RequestWritable(line, false, true, nil)
			s.log = append(s.log, fmt.Sprintf("ustore c%d %#x req=%v", core, line+off, started))
		} else {
			s.log = append(s.log, fmt.Sprintf("ustore c%d %#x ok=false", core, line+off))
		}
	case 7: // read prefetch
		ok := p.PrefetchRead(line)
		s.log = append(s.log, fmt.Sprintf("pf c%d %#x ok=%v", core, line, ok))
	}
}

func runDifferential(t *testing.T, seed int64, cores int, plan faults.Plan) {
	t.Helper()
	fast := newDiffSide(cores, false, plan)
	ref := newDiffSide(cores, true, plan)
	rng := rand.New(rand.NewSource(seed))

	// A line pool with deliberate set pressure: more lines per L1 set
	// than its associativity, so evictions, write-backs, and line-table
	// gc churn constantly.
	var pool []uint64
	for i := 0; i < 256; i++ {
		pool = append(pool, uint64(rng.Intn(64))<<12|uint64(rng.Intn(8))<<6)
	}

	var seq uint64
	for step := 0; step < 60; step++ {
		for op := 0; op < 40; op++ {
			o := rng.Intn(8)
			core := rng.Intn(cores)
			line := pool[rng.Intn(len(pool))]
			off := uint64(rng.Intn(56))
			sz := uint64(1 + rng.Intn(8))
			seq++
			fast.step(o, core, line, off, sz, seq)
			ref.step(o, core, line, off, sz, seq)
			// Let a random amount of machinery run between ops so the
			// comparison also covers mid-transaction states.
			adv := uint64(rng.Intn(64))
			fast.r.q.Drain(fast.r.q.Now() + adv)
			ref.r.q.Drain(ref.r.q.Now() + adv)
		}
		// Drain point: run both machines to quiescence and demand
		// byte-identical state.
		fast.r.q.Drain(fast.r.q.Now() + 1_000_000)
		ref.r.q.Drain(ref.r.q.Now() + 1_000_000)
		fs, rs := fast.snapshot(pool), ref.snapshot(pool)
		if fs != rs {
			t.Fatalf("seed %d drain point %d: fast and reference state diverge\n%s",
				seed, step, firstDiff(fs, rs))
		}
	}
}

// firstDiff renders the first differing line of two snapshots.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  lhs: %s\n  rhs: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: lhs %d lines, rhs %d lines", len(al), len(bl))
}

// TestDifferentialStateIdentity drives seeded random traffic through a
// fast and a reference memory system and asserts identical state at
// every drain point.
func TestDifferentialStateIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 2, faults.Plan{})
		})
	}
}

// TestDifferentialStateIdentityChaos repeats the comparison with a
// chaos-injector stream active on both sides: NACKs, busy stalls, MSHR
// pressure, and latency jitter push both machines through the retry
// and backoff paths and reschedule events at adversarial offsets
// (including the wheel-horizon boundary), and the states must still
// match exactly.
func TestDifferentialStateIdentityChaos(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := faults.Schedule(seed)
			runDifferential(t, int64(seed), 2, plan)
		})
	}
}

// TestDifferentialFourCores widens the comparison to a 4-core machine,
// where directory waiting queues and multi-sharer invalidations carry
// more of the traffic.
func TestDifferentialFourCores(t *testing.T) {
	runDifferential(t, 99, 4, faults.Plan{})
}
