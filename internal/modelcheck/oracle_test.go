package modelcheck

import (
	"reflect"
	"testing"

	"tusim/internal/litmus"
)

func prog(t *testing.T, name string) litmus.Program {
	t.Helper()
	for _, lt := range litmus.Tests() {
		if lt.Name == name {
			p, err := lt.Program()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatalf("no litmus test %q", name)
	return litmus.Program{}
}

func enumerate(t *testing.T, name string) *OracleResult {
	t.Helper()
	res := Enumerate(prog(t, name), Limits{})
	if !res.Complete {
		t.Fatalf("%s: oracle enumeration hit the state budget", name)
	}
	return res
}

// outcomeSet builds the oracle-style key set from explicit vectors.
func outcomeSet(outs ...[]uint64) map[string]bool {
	m := map[string]bool{}
	for _, o := range outs {
		m[Key(o)] = true
	}
	return m
}

func assertExactly(t *testing.T, name string, res *OracleResult, want map[string]bool) {
	t.Helper()
	for k := range res.Outcomes {
		if !want[k] {
			t.Errorf("%s: oracle allows %s, hand table forbids it", name, k)
		}
	}
	for k := range want {
		if _, ok := res.Outcomes[k]; !ok {
			t.Errorf("%s: hand table allows %s, oracle never produced it", name, k)
		}
	}
}

// TestOracleSB: all four outcomes allowed — including the r1=r2=0
// store-buffering relaxation SC forbids.
func TestOracleSB(t *testing.T) {
	assertExactly(t, "SB", enumerate(t, "SB"), outcomeSet(
		[]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 0}, []uint64{1, 1},
	))
}

// TestOracleSBFences: the fences kill exactly the relaxed outcome.
func TestOracleSBFences(t *testing.T) {
	assertExactly(t, "SB+fences", enumerate(t, "SB+fences"), outcomeSet(
		[]uint64{0, 1}, []uint64{1, 0}, []uint64{1, 1},
	))
}

// TestOracleMP: r1=1 ^ r2=0 (seeing y without the older x) forbidden.
func TestOracleMP(t *testing.T) {
	assertExactly(t, "MP", enumerate(t, "MP"), outcomeSet(
		[]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 1},
	))
}

// TestOracleLB: loads do not reorder with later stores: r1=1 ^ r2=1
// forbidden.
func TestOracleLB(t *testing.T) {
	assertExactly(t, "LB", enumerate(t, "LB"), outcomeSet(
		[]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 0},
	))
}

// TestOracleIRIW: store atomicity — of the 16 combinations only the
// one where the readers disagree on the write order is forbidden.
func TestOracleIRIW(t *testing.T) {
	var want [][]uint64
	for a := uint64(0); a < 2; a++ {
		for b := uint64(0); b < 2; b++ {
			for c := uint64(0); c < 2; c++ {
				for d := uint64(0); d < 2; d++ {
					if a == 1 && b == 0 && c == 1 && d == 0 {
						continue
					}
					want = append(want, []uint64{a, b, c, d})
				}
			}
		}
	}
	assertExactly(t, "IRIW", enumerate(t, "IRIW"), outcomeSet(want...))
}

// TestOracleN6: the store-forwarding test. (r1, r2, final x):
//   - r1 >= 1 always (a thread must forward its own buffered store);
//   - r1=2 forces the thread's own x=1 to have drained and been
//     overwritten, which forces final x=2 and r2=1;
//   - the paper-relevant witness (1,0,1) IS allowed — an oracle without
//     forwarding would miss it.
func TestOracleN6(t *testing.T) {
	res := enumerate(t, "n6")
	assertExactly(t, "n6", res, outcomeSet(
		[]uint64{1, 0, 1}, []uint64{1, 0, 2}, []uint64{1, 1, 1},
		[]uint64{1, 1, 2}, []uint64{2, 1, 2},
	))
	if !res.Allowed([]uint64{1, 0, 1}) {
		t.Error("n6: forwarding witness (1,0,1) missing — store forwarding broken in the oracle")
	}
}

// TestOracleDeterministicTranscript: two identical invocations must
// visit identical states in identical order — the property that makes
// every reported violation reproducible (and the reason state encoding
// never iterates a Go map).
func TestOracleDeterministicTranscript(t *testing.T) {
	for _, name := range []string{"SB", "MP", "IRIW", "n6", "CoWW"} {
		a := enumerate(t, name)
		b := enumerate(t, name)
		if a.States != b.States {
			t.Fatalf("%s: state counts differ: %d vs %d", name, a.States, b.States)
		}
		if !reflect.DeepEqual(a.Transcript, b.Transcript) {
			for i := range a.Transcript {
				if a.Transcript[i] != b.Transcript[i] {
					t.Fatalf("%s: transcripts diverge at state %d:\n  a: %s\n  b: %s",
						name, i, a.Transcript[i], b.Transcript[i])
				}
			}
			t.Fatalf("%s: transcript lengths differ: %d vs %d", name, len(a.Transcript), len(b.Transcript))
		}
		if !reflect.DeepEqual(a.SortedKeys(), b.SortedKeys()) {
			t.Fatalf("%s: outcome sets differ between identical invocations", name)
		}
	}
}

// TestOracleBounded: an absurdly small state budget must stop the
// enumeration and say so, not pretend completeness.
func TestOracleBounded(t *testing.T) {
	res := Enumerate(prog(t, "IRIW"), Limits{MaxStates: 3})
	if res.Complete {
		t.Fatal("3-state budget reported a complete enumeration of IRIW")
	}
	if res.States > 3 {
		t.Fatalf("budget 3 but visited %d states", res.States)
	}
}

// TestTracesMatchOutcomes: path enumeration and state enumeration are
// two views of the same machine — the set of outcomes reached by
// complete traces must equal the memoized DFS's outcome set.
func TestTracesMatchOutcomes(t *testing.T) {
	for _, name := range []string{"SB", "MP", "LB", "n6"} {
		p := prog(t, name)
		res := enumerate(t, name)
		traces, complete := Traces(p, 1<<20)
		if !complete {
			t.Fatalf("%s: trace enumeration truncated", name)
		}
		got := map[string]bool{}
		for _, tr := range traces {
			got[Key(traceOutcome(p, tr))] = true
		}
		for k := range res.Outcomes {
			if !got[k] {
				t.Errorf("%s: outcome %s reachable per states but no trace produced it", name, k)
			}
		}
		for k := range got {
			if _, ok := res.Outcomes[k]; !ok {
				t.Errorf("%s: trace produced outcome %s the state enumeration lacks", name, k)
			}
		}
	}
}

// traceOutcome replays a trace's architectural effects to its outcome.
func traceOutcome(p litmus.Program, tr Trace) Outcome {
	mem := map[uint64]uint64{}
	obs := make(Outcome, p.NumObs)
	for _, s := range tr {
		switch s.Kind {
		case StepDrain:
			mem[s.Addr] = s.Val
		case StepLoad:
			if s.Obs >= 0 {
				obs[s.Obs] = s.Val
			}
		}
	}
	for _, a := range p.FinalReads {
		obs = append(obs, mem[a])
	}
	return obs
}
