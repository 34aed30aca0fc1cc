package system

import (
	"strings"
	"testing"

	"tusim/internal/faults"
)

// chaosPlan is a fault plan that actually perturbs the run (Enabled).
func chaosPlan() faults.Plan {
	return faults.Plan{Seed: 7, NackPct: 10, ReqExtraPct: 5, ReqExtraMax: 50}
}

// TestCrashClassification pins the transient/deterministic split the
// supervisor's retry policy is built on: only chaos-induced watchdog
// trips may retry; every reproducible failure quarantines.
func TestCrashClassification(t *testing.T) {
	cases := []struct {
		name      string
		report    CrashReport
		transient bool
	}{
		{"watchdog under chaos", CrashReport{Kind: CrashWatchdog, FaultPlan: chaosPlan()}, true},
		{"watchdog fault-free", CrashReport{Kind: CrashWatchdog}, false},
		{"invariant under chaos", CrashReport{Kind: CrashInvariant, FaultPlan: chaosPlan()}, false},
		{"invariant fault-free", CrashReport{Kind: CrashInvariant}, false},
		{"audit under chaos", CrashReport{Kind: CrashAudit, FaultPlan: chaosPlan()}, false},
		{"max-cycles", CrashReport{Kind: CrashMaxCycles}, false},
		{"panic", CrashReport{Kind: CrashPanic}, false},
		{"panic under chaos", CrashReport{Kind: CrashPanic, FaultPlan: chaosPlan()}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.report.Transient(); got != tc.transient {
				t.Fatalf("Transient() = %v, want %v", got, tc.transient)
			}
			want := "deterministic"
			if tc.transient {
				want = "transient"
			}
			if got := tc.report.Classification(); got != want {
				t.Fatalf("Classification() = %q, want %q", got, want)
			}
		})
	}
}

// TestPanicReport: the supervision layer's panic conversion carries the
// payload and stack and classifies deterministic.
func TestPanicReport(t *testing.T) {
	r := PanicReport("index out of range [114] with length 64", []byte("goroutine 1 [running]:\nmain.go:1"))
	if r.Kind != CrashPanic {
		t.Fatalf("kind = %q", r.Kind)
	}
	if !strings.Contains(r.Message, "index out of range") {
		t.Fatalf("message lost payload: %q", r.Message)
	}
	if !strings.Contains(r.Stack, "goroutine 1") {
		t.Fatalf("stack lost: %q", r.Stack)
	}
	if r.Transient() {
		t.Fatal("panics must classify deterministic")
	}
	if r.Error() == "" {
		t.Fatal("panic report must still be a printable error")
	}
}
