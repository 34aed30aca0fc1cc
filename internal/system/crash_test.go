package system

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/memsys"
)

// stallTrace is a single cold-miss load: commits stall for the full
// miss latency, which dwarfs a tiny watchdog window.
func stallTrace() []isa.Stream {
	ops := []isa.MicroOp{{Kind: isa.Load, Addr: 1 << 30, Size: 8}}
	return []isa.Stream{isa.NewSliceStream(ops)}
}

func TestWatchdogCrashReport(t *testing.T) {
	cfg := config.Default()
	cfg.WatchdogWindow = 3
	sys, err := New(cfg, stallTrace())
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run()
	if err == nil {
		t.Fatal("run with a 3-cycle watchdog completed without tripping")
	}
	var cr *CrashReport
	if !errors.As(err, &cr) {
		t.Fatalf("error is not a *CrashReport: %v", err)
	}
	if cr.Kind != CrashWatchdog {
		t.Fatalf("kind = %q, want %q", cr.Kind, CrashWatchdog)
	}
	if cr.Cores != 1 || len(cr.PerCore) != 1 {
		t.Fatalf("per-core snapshots: cores=%d len=%d", cr.Cores, len(cr.PerCore))
	}
	if cr.PerCore[0].Committed != 0 {
		t.Fatalf("snapshot committed = %d, want 0 (nothing could commit)", cr.PerCore[0].Committed)
	}
	// The report must serialize (it is embedded in repro bundles).
	if _, jerr := json.Marshal(cr); jerr != nil {
		t.Fatalf("report does not serialize: %v", jerr)
	}

	// The run loop's idle-cycle skip stops at the watchdog's cycle: the
	// report matches the reference machine's, which ticks every cycle,
	// also for a window long enough that the fast machine skips into it.
	for _, window := range []uint64{3, 100} {
		cfg := config.Default()
		cfg.WatchdogWindow = window
		sys, fast, ref := crashOnBoth(t, cfg, stallTrace)
		if fast.Kind != CrashWatchdog || fast.Cycle != ref.Cycle || fast.Message != ref.Message {
			t.Errorf("window %d: fast machine %s at cycle %d (%q), reference %s at %d (%q)",
				window, fast.Kind, fast.Cycle, fast.Message, ref.Kind, ref.Cycle, ref.Message)
		}
		if window == 100 && sys.skipped == 0 {
			t.Errorf("window %d: the fast machine skipped no cycle", window)
		}
	}
}

// crashOnBoth runs the streams mk builds on the fast machine and on the
// reference machine, both configured as cfg, and returns the fast
// machine with both runs' crash reports.
func crashOnBoth(t *testing.T, cfg *config.Config, mk func() []isa.Stream) (*System, *CrashReport, *CrashReport) {
	t.Helper()
	var sys *System
	var crs [2]*CrashReport
	for i, ref := range []bool{false, true} {
		c := *cfg
		c.Reference = ref
		s, err := New(&c, mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); !errors.As(err, &crs[i]) {
			t.Fatalf("reference=%v: Run = %v, want a *CrashReport", ref, err)
		}
		if !ref {
			sys = s
		}
	}
	return sys, crs[0], crs[1]
}

// TestWatchdogCrashReportShowsTSOB: under SSB the SB is empty by design,
// so a watchdog report has to show the queue that is actually stuck —
// the TSOB's depth, its head line and whether that line's permission
// request is in flight.
func TestWatchdogCrashReportShowsTSOB(t *testing.T) {
	const stores = 6
	var ops []isa.MicroOp
	for i := uint64(0); i < stores; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: 1<<30 + i*4096, Size: 8})
	}
	cfg := config.Default().WithMechanism(config.SSB)
	cfg.WatchdogWindow = 60 // the stores commit at once; their cold misses take longer
	sys, err := New(cfg, []isa.Stream{isa.NewSliceStream(ops)})
	if err != nil {
		t.Fatal(err)
	}
	var cr *CrashReport
	if err := sys.Run(); !errors.As(err, &cr) || cr.Kind != CrashWatchdog {
		t.Fatalf("Run = %v, want a watchdog crash while the TSOB drains", err)
	}
	snap := cr.PerCore[0]
	if snap.Committed != stores || snap.SBLen != 0 {
		t.Fatalf("committed %d, SB %d: want every store committed and out of the SB", snap.Committed, snap.SBLen)
	}
	if snap.TSOB == nil || snap.TSOB.Len != stores || snap.TSOB.HeadLine != 1<<30 || !snap.TSOB.HeadPending {
		t.Fatalf("TSOB snapshot = %+v, want %d stores behind head line %#x with its request in flight", snap.TSOB, stores, uint64(1<<30))
	}
	js, err := json.Marshal(cr)
	if err != nil || !strings.Contains(string(js), `"tsob":{"len":6,`) {
		t.Fatalf("report JSON lacks the TSOB: %s (%v)", js, err)
	}
	// Other mechanisms' reports do not grow a field.
	sys, err = New(func() *config.Config { c := config.Default(); c.WatchdogWindow = 3; return c }(), stallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); !errors.As(err, &cr) {
		t.Fatalf("baseline run = %v, want a crash report", err)
	}
	if js, _ := json.Marshal(cr); strings.Contains(string(js), "tsob") {
		t.Fatalf("baseline report mentions a TSOB: %s", js)
	}
}

// TestWatchdogCrashReportListsTransactions: two cores read one line
// under a plan that stalls every directory transaction on a busy bit and
// NACKs some requests, so the line never fills and the watchdog trips.
// The report must name who waits on what: the stalled transaction on the
// line with its requester and the other core queued behind it, and each
// core's MSHR with its pending load.
func TestWatchdogCrashReportListsTransactions(t *testing.T) {
	const line = 1 << 30
	cfg := config.Default().WithCores(2)
	cfg.WatchdogWindow = 400
	load := []isa.MicroOp{{Kind: isa.Load, Addr: line, Size: 8}}
	sys, err := New(cfg, []isa.Stream{isa.NewSliceStream(load), isa.NewSliceStream(load)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallFaults(faults.NewInjector(faults.Plan{Seed: 3, BusyStallPct: 100, BusyStallMax: 100, NackPct: 5})); err != nil {
		t.Fatal(err)
	}
	var cr *CrashReport
	if err := sys.Run(); !errors.As(err, &cr) || cr.Kind != CrashWatchdog {
		t.Fatalf("Run = %v, want a watchdog crash", err)
	}
	var stalled *memsys.TxnInfo
	for i, tx := range cr.Directory {
		if tx.Line == line && tx.Stage == "injected stall" {
			stalled = &cr.Directory[i]
		}
	}
	if stalled == nil || stalled.WantM || len(stalled.Queued) != 1 || stalled.Queued[0] == stalled.Core {
		t.Fatalf("directory = %+v, want the line's read stalled with the other core queued behind it", cr.Directory)
	}
	for _, snap := range cr.PerCore {
		if len(snap.MSHRs) != 1 || snap.MSHRs[0].Line != line || snap.MSHRs[0].Loads != 1 || snap.MSHRs[0].Writers != nil {
			t.Fatalf("core %d MSHRs = %+v, want one miss on %#x with its load waiting", snap.Core, snap.MSHRs, uint64(line))
		}
	}
	js, err := json.Marshal(cr)
	if err != nil || !strings.Contains(string(js), `"directory":[{"line":1073741824,`) || !strings.Contains(string(js), `"loads":1`) {
		t.Fatalf("report JSON lacks the transactions or waiters: %s (%v)", js, err)
	}
}

func TestMaxCyclesCrashReport(t *testing.T) {
	cfg := config.Default()
	cfg.MaxCycles = 20
	cfg.WatchdogWindow = 1 << 40 // keep the watchdog out of the way
	sys, err := New(cfg, stallTrace())
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run()
	var cr *CrashReport
	if !errors.As(err, &cr) {
		t.Fatalf("error is not a *CrashReport: %v", err)
	}
	if cr.Kind != CrashMaxCycles {
		t.Fatalf("kind = %q, want %q", cr.Kind, CrashMaxCycles)
	}

	// The fast machine skips the idle miss wait up to MaxCycles and no
	// further: same cycle and message as the reference machine.
	sys, fast, ref := crashOnBoth(t, cfg, stallTrace)
	if fast.Kind != CrashMaxCycles || fast.Cycle != cfg.MaxCycles || fast.Cycle != ref.Cycle || fast.Message != ref.Message {
		t.Errorf("fast machine %s at cycle %d (%q), reference %s at %d (%q), want cycle %d",
			fast.Kind, fast.Cycle, fast.Message, ref.Kind, ref.Cycle, ref.Message, cfg.MaxCycles)
	}
	if sys.skipped == 0 {
		t.Error("the fast machine skipped no cycle of the miss wait")
	}
}

// TestWatchdogDefaultWindow: a normal run must never trip the default
// watchdog (regression guard for the window plumbing). Run also
// tolerates a zeroed window (hand-built configs) by falling back to
// the default.
func TestWatchdogDefaultWindow(t *testing.T) {
	cfg := config.Default()
	if cfg.WatchdogWindow != config.DefaultWatchdogWindow {
		t.Fatalf("default config WatchdogWindow = %d, want %d", cfg.WatchdogWindow, config.DefaultWatchdogWindow)
	}
	cfg.WatchdogWindow = 0 // exercise the Run-side fallback
	sys, err := New(cfg, stallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("single-load run crashed: %v", err)
	}
}
