package faults

import "testing"

// refStream is an independent re-implementation of the historical
// injector PRNG (seed mixing + splitmix64 step), written out with its
// own constants so a refactor of the production code cannot silently
// change both sides at once.
type refStream struct{ s uint64 }

func newRefStream(seed uint64) *refStream {
	r := &refStream{s: seed ^ 0xC0FFEE}
	r.s = r.step(r.s)
	return r
}

func (r *refStream) step(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *refStream) next() uint64 {
	r.s = r.step(r.s)
	return r.s
}

// TestSeededPathBitIdentical proves the DecisionSource refactor did not
// move the production decision stream: an injector built by NewInjector
// must make exactly the decisions the historical splitmix64 code made,
// draw for draw — the property that keeps old repro bundles and the
// figure benchmarks cycle-identical.
func TestSeededPathBitIdentical(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, 1 << 63} {
		plan := Schedule(seed)
		in := NewInjector(plan)
		ref := newRefStream(plan.Seed)

		refHit := func(pct int) bool {
			if pct <= 0 {
				return false
			}
			return ref.next()%100 < uint64(pct)
		}
		refAmount := func(max uint64) uint64 {
			if max <= 1 {
				return 1
			}
			return 1 + ref.next()%max
		}

		for i := 0; i < 5_000; i++ {
			wantReq := uint64(0)
			if refHit(plan.ReqExtraPct) {
				wantReq = refAmount(plan.ReqExtraMax)
			}
			if got := in.ReqExtra(); got != wantReq {
				t.Fatalf("seed %d step %d: ReqExtra = %d, historical stream says %d", seed, i, got, wantReq)
			}
			if got, want := in.SpuriousNack(), refHit(plan.NackPct); got != want {
				t.Fatalf("seed %d step %d: SpuriousNack = %v, historical stream says %v", seed, i, got, want)
			}
			wantBusy := uint64(0)
			if refHit(plan.BusyStallPct) {
				wantBusy = refAmount(plan.BusyStallMax)
			}
			if got := in.BusyStall(); got != wantBusy {
				t.Fatalf("seed %d step %d: BusyStall = %d, historical stream says %d", seed, i, got, wantBusy)
			}
			wantProbe := uint64(0)
			if refHit(plan.ProbeExtraPct) {
				wantProbe = refAmount(plan.ProbeExtraMax)
			}
			if got := in.ProbeExtra(); got != wantProbe {
				t.Fatalf("seed %d step %d: ProbeExtra = %d, historical stream says %d", seed, i, got, wantProbe)
			}
			if got, want := in.MSHRPressure(), refHit(plan.MSHRPressurePct); got != want {
				t.Fatalf("seed %d step %d: MSHRPressure = %v, historical stream says %v", seed, i, got, want)
			}
			if got, want := in.WCBFlush(), refHit(plan.WCBFlushPct); got != want {
				t.Fatalf("seed %d step %d: WCBFlush = %v, historical stream says %v", seed, i, got, want)
			}
			if plan.ShuffleProbes {
				perm := []int{0, 1, 2, 3}
				in.ShuffleTargets(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				want := []int{0, 1, 2, 3}
				for k := len(want) - 1; k > 0; k-- {
					j := int(ref.next() % uint64(k+1))
					if j != k {
						want[k], want[j] = want[j], want[k]
					}
				}
				for k := range perm {
					if perm[k] != want[k] {
						t.Fatalf("seed %d step %d: shuffle %v, historical stream says %v", seed, i, perm, want)
					}
				}
			}
		}
	}
}

// TestScriptReplayReproducesPRNGRun: recording a PRNG-driven injector's
// decisions and replaying them through a ScriptSource must reproduce
// the exact same injector behaviour — the foundation of schedule
// capture + replay.
func TestScriptReplayReproducesPRNGRun(t *testing.T) {
	plan := Schedule(7)
	plan.ShuffleProbes = true

	// Record: wrap the PRNG source so every consumed choice is kept.
	rec := &recordingSource{inner: NewPRNGSource(plan.Seed)}
	a := NewInjectorWithSource(plan, rec)
	type step struct {
		req, busy, probe uint64
		nack, mshr, wcb  bool
		perm             [5]int
	}
	var want []step
	for i := 0; i < 500; i++ {
		var s step
		s.req = a.ReqExtra()
		s.nack = a.SpuriousNack()
		s.busy = a.BusyStall()
		s.probe = a.ProbeExtra()
		s.mshr = a.MSHRPressure()
		s.wcb = a.WCBFlush()
		s.perm = [5]int{0, 1, 2, 3, 4}
		a.ShuffleTargets(5, func(x, y int) { s.perm[x], s.perm[y] = s.perm[y], s.perm[x] })
		want = append(want, s)
	}

	src := NewScriptSource(rec.trace)
	b := NewInjectorWithSource(plan, src)
	for i, w := range want {
		var g step
		g.req = b.ReqExtra()
		g.nack = b.SpuriousNack()
		g.busy = b.BusyStall()
		g.probe = b.ProbeExtra()
		g.mshr = b.MSHRPressure()
		g.wcb = b.WCBFlush()
		g.perm = [5]int{0, 1, 2, 3, 4}
		b.ShuffleTargets(5, func(x, y int) { g.perm[x], g.perm[y] = g.perm[y], g.perm[x] })
		if g != w {
			t.Fatalf("step %d: replay %+v != recorded %+v", i, g, w)
		}
	}
	if src.Diverged() {
		t.Fatal("replay of its own recording diverged")
	}
	if a.Injected != b.Injected {
		t.Fatalf("injection counts diverged: recorded %d, replayed %d", a.Injected, b.Injected)
	}
	if len(src.Trace()) != len(rec.trace) {
		t.Fatalf("replay consumed %d decisions, recording had %d", len(src.Trace()), len(rec.trace))
	}
}

// recordingSource captures the decisions an inner source makes, in the
// Decision encoding ScriptSource replays.
type recordingSource struct {
	inner DecisionSource
	trace []Decision
}

func (r *recordingSource) Hit(pct int) bool {
	v := r.inner.Hit(pct)
	val := uint64(0)
	if v {
		val = 1
	}
	r.trace = append(r.trace, Decision{Kind: DecisionHit, Arg: uint64(pct), Val: val})
	return v
}

func (r *recordingSource) Amount(max uint64) uint64 {
	v := r.inner.Amount(max)
	r.trace = append(r.trace, Decision{Kind: DecisionAmount, Arg: max, Val: v})
	return v
}

func (r *recordingSource) Index(n int) int {
	v := r.inner.Index(n)
	r.trace = append(r.trace, Decision{Kind: DecisionIndex, Arg: uint64(n), Val: uint64(v)})
	return v
}

// TestScriptSourceDefaultsQuiet: past the script's end every choice
// point answers the zero-perturbation default, so an empty script is
// exactly the fault-free schedule.
func TestScriptSourceDefaultsQuiet(t *testing.T) {
	plan := Schedule(3)
	plan.ShuffleProbes = true
	in := NewInjectorWithSource(plan, NewScriptSource(nil))
	for i := 0; i < 100; i++ {
		if in.ReqExtra() != 0 || in.SpuriousNack() || in.BusyStall() != 0 ||
			in.ProbeExtra() != 0 || in.MSHRPressure() || in.WCBFlush() {
			t.Fatalf("step %d: empty script perturbed the run", i)
		}
		perm := []int{0, 1, 2}
		in.ShuffleTargets(3, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if perm[0] != 0 || perm[1] != 1 || perm[2] != 2 {
			t.Fatalf("step %d: empty script permuted probe order: %v", i, perm)
		}
	}
	if in.Injected != 0 {
		t.Fatalf("empty script counted %d injections", in.Injected)
	}
}

// TestScriptSourceDivergence: a script whose choice points no longer
// match the run falls back to defaults and reports divergence rather
// than misapplying decisions.
func TestScriptSourceDivergence(t *testing.T) {
	src := NewScriptSource([]Decision{
		{Kind: DecisionHit, Arg: 50, Val: 1},
		{Kind: DecisionAmount, Arg: 8, Val: 8},
	})
	if !src.Hit(50) {
		t.Fatal("scripted hit not replayed")
	}
	// The run asks a different kind than scripted: divergence.
	if src.Hit(50) {
		t.Fatal("diverged script should answer the quiet default")
	}
	if !src.Diverged() {
		t.Fatal("divergence not reported")
	}
	if got := src.Amount(8); got != 1 {
		t.Fatalf("post-divergence Amount = %d, want default 1", got)
	}
}

// TestDecisionAlternatives: the enumeration domains the explorer relies
// on — exact for Hit/Index, bracketed extremes for Amount.
func TestDecisionAlternatives(t *testing.T) {
	if got := (Decision{Kind: DecisionHit, Arg: 50}).Alternatives(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Hit alternatives = %v", got)
	}
	if got := (Decision{Kind: DecisionAmount, Arg: 9}).Alternatives(); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("Amount alternatives = %v", got)
	}
	if got := (Decision{Kind: DecisionIndex, Arg: 3}).Alternatives(); len(got) != 3 || got[2] != 2 {
		t.Fatalf("Index alternatives = %v", got)
	}
}
