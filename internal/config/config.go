// Package config holds every simulation parameter. Defaults reproduce
// Table I of the paper; experiments override individual fields.
package config

import (
	"fmt"
	"strings"
	"time"
)

// Mechanism selects the store-handling policy under evaluation.
type Mechanism int

const (
	// Baseline drains committed stores in order and blocks on misses;
	// it issues a write-permission prefetch when a store commits.
	Baseline Mechanism = iota
	// TUS is the paper's contribution: temporarily unauthorized stores
	// with WCB coalescing and a write ordering queue.
	TUS
	// SSB is the idealized Scalable Store Buffer (1K-entry TSOB,
	// store-wait-free, per-store L2 write-through).
	SSB
	// CSB is the Coalescing Store Buffer (WCB coalescing, but write
	// permission is required before writing to L1D).
	CSB
	// SPB is Store Prefetch Burst (baseline + 4KB page write-permission
	// prefetch on store-burst detection).
	SPB
)

// String returns the mechanism's paper name.
func (m Mechanism) String() string {
	switch m {
	case Baseline:
		return "base"
	case TUS:
		return "TUS"
	case SSB:
		return "SSB"
	case CSB:
		return "CSB"
	case SPB:
		return "SPB"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// Mechanisms lists every policy in the order the paper plots them.
var Mechanisms = []Mechanism{Baseline, SSB, CSB, SPB, TUS}

// ParseMechanism maps a (case-insensitive) mechanism name back to its
// value; the CLI tools and crash-repro bundles use it.
func ParseMechanism(name string) (Mechanism, error) {
	switch strings.ToLower(name) {
	case "base", "baseline":
		return Baseline, nil
	case "tus":
		return TUS, nil
	case "ssb":
		return SSB, nil
	case "csb":
		return CSB, nil
	case "spb":
		return SPB, nil
	}
	return Baseline, fmt.Errorf("config: unknown mechanism %q", name)
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// Latency is the load-to-use (L1) or round-trip (L2/L3) latency in
	// cycles, as in Table I.
	Latency uint64
	MSHRs   int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Config is the full machine description (Table I) plus mechanism knobs.
type Config struct {
	Cores int

	// Front end / back end widths (instructions per cycle).
	FetchWidth    int
	DecodeWidth   int
	RenameWidth   int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	ROBEntries int
	LQEntries  int
	SBEntries  int

	// Functional units: 1 Int ALU + 3 Int/FP/SIMD ALUs.
	SimpleALUs  int
	ComplexALUs int

	// Instruction latencies (Fog tables, Table I).
	IntAddLat, IntMulLat, IntDivLat uint64
	FPAddLat, FPMulLat, FPDivLat    uint64

	L1D, L2, L3 CacheConfig
	DRAMLatency uint64
	// DRAMMaxInFlight bounds concurrent DRAM accesses (simple bandwidth
	// model; not in Table I but required for burst behaviour).
	DRAMMaxInFlight int
	// NetLatency is the one-way core<->directory message latency used
	// for invalidations and data forwards in the 16-core runs.
	NetLatency uint64

	// StreamPrefetcher enables the L1D stride prefetcher (baseline has it).
	StreamPrefetcher bool
	// StreamPrefetchDegree is how many lines ahead the stream prefetcher runs.
	StreamPrefetchDegree int
	// PrefetchAtCommit requests write permission when a store commits
	// (Sec. V: +15% over default gem5; all configs in the paper have it).
	PrefetchAtCommit bool

	Mechanism Mechanism

	// TUS / CSB parameters (Sec. IV and DSE in Sec. VI).
	WOQEntries int
	WCBCount   int
	// MaxAtomicGroup caps the number of cache lines per atomic group
	// (DSE chose 16).
	MaxAtomicGroup int
	// LexBits is the number of low line-address bits defining the
	// global lexicographical order (paper: 16, matching directory index).
	LexBits int
	// TUSCoalesce can be disabled for the ablation study.
	TUSCoalesce bool

	// SSB parameters.
	TSOBEntries int

	// SPB parameters.
	SPBBurstThreshold int
	SPBPageBytes      int

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// WatchdogWindow is how many cycles the machine may go without a
	// single committed micro-op before the deadlock/livelock watchdog
	// trips (system.Run then returns a CrashReport). Zero selects
	// DefaultWatchdogWindow.
	WatchdogWindow uint64

	// CellTimeout is the harness supervisor's fixed per-cell hang guard:
	// a cell still running after it is quarantined. It is never derived
	// from observed runtimes. Purely a harness-robustness knob: it cannot
	// change any simulation result, so the result cache excludes it from
	// cell identity. Zero selects DefaultCellTimeout.
	CellTimeout time.Duration

	// Reference runs this machine on the reference twins of its fast
	// structures: per-line state (private cache lines, MSHRs, writeback
	// buffer, directory entries, WOQ) in built-in maps with always-fresh
	// allocation instead of the open-addressed/pooled containers, and
	// the event queue on the binary heap alone instead of the time
	// wheel. Any observable difference between the two modes is a bug;
	// the differential rigs run one machine in each and compare state
	// at every drain point. Default() sets it false; building with
	// -tags tus_ref flips that default so the whole suite replays on
	// the reference side. Unlike CellTimeout it is part of a cell's
	// cache identity.
	Reference bool
}

// MaxStoreRing is the largest SBEntries or TSOBEntries: the store ring
// (cpu.StoreBuffer) links its slots with 16-bit indices, so a larger
// ring would alias slots instead of failing.
const MaxStoreRing = 1 << 15

// DefaultWatchdogWindow is the no-commit-progress bound used when
// Config.WatchdogWindow is zero.
const DefaultWatchdogWindow = 2_000_000

// DefaultCellTimeout is the per-cell hang guard used when
// Config.CellTimeout is zero. Generous on purpose: a full-scale single
// cell is minutes at worst, so only a hung cell reaches it.
const DefaultCellTimeout = 10 * time.Minute

// Default returns the Table I configuration with a 114-entry SB and the
// baseline mechanism on a single core.
func Default() *Config {
	return &Config{
		Cores: 1,

		FetchWidth:    8,
		DecodeWidth:   6,
		RenameWidth:   6,
		DispatchWidth: 12,
		IssueWidth:    12,
		CommitWidth:   8,

		ROBEntries: 512,
		LQEntries:  192,
		SBEntries:  114,

		SimpleALUs:  1,
		ComplexALUs: 3,

		IntAddLat: 1, IntMulLat: 4, IntDivLat: 12,
		FPAddLat: 5, FPMulLat: 5, FPDivLat: 12,

		L1D: CacheConfig{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64, Latency: 5, MSHRs: 64},
		L2:  CacheConfig{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, Latency: 16, MSHRs: 64},
		L3:  CacheConfig{SizeBytes: 64 << 20, Ways: 16, LineBytes: 64, Latency: 34, MSHRs: 64},

		DRAMLatency:     160,
		DRAMMaxInFlight: 32,
		NetLatency:      20,

		StreamPrefetcher:     true,
		StreamPrefetchDegree: 4,
		PrefetchAtCommit:     true,

		Mechanism: Baseline,

		WOQEntries:     64,
		WCBCount:       2,
		MaxAtomicGroup: 16,
		LexBits:        16,
		TUSCoalesce:    true,

		TSOBEntries: 1024,

		SPBBurstThreshold: 6,
		SPBPageBytes:      4 << 10,

		MaxCycles:      1 << 34,
		WatchdogWindow: DefaultWatchdogWindow,
		CellTimeout:    DefaultCellTimeout,

		Reference: defaultReference,
	}
}

// Clone returns a deep copy (Config contains no reference types).
func (c *Config) Clone() *Config {
	cp := *c
	return &cp
}

// WithSB returns a copy with the given SB size.
func (c *Config) WithSB(entries int) *Config {
	cp := c.Clone()
	cp.SBEntries = entries
	return cp
}

// WithMechanism returns a copy using the given store mechanism.
func (c *Config) WithMechanism(m Mechanism) *Config {
	cp := c.Clone()
	cp.Mechanism = m
	return cp
}

// WithCores returns a copy with the given core count. Memory channels
// scale with socket size: the DRAM concurrency bound grows by half the
// single-core value per additional core (a 16-core part has several
// memory channels, not one).
func (c *Config) WithCores(n int) *Config {
	cp := c.Clone()
	cp.Cores = n
	if n > 1 {
		cp.DRAMMaxInFlight = c.DRAMMaxInFlight * n
	}
	return cp
}

// ForwardLatency is the SB store-to-load forwarding latency, which
// shrinks with SB size (Sec. V, per Fog: 5 cycles for 114 entries, 4
// for 64, 3 below).
func (c *Config) ForwardLatency() uint64 {
	switch {
	case c.SBEntries >= 114:
		return 5
	case c.SBEntries >= 64:
		return 4
	default:
		return 3
	}
}

// Validate reports configuration errors that would make the machine
// unbuildable.
func (c *Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("config: Cores = %d, need >= 1", c.Cores)
	}
	if c.CellTimeout < 0 {
		return fmt.Errorf("config: CellTimeout = %v, need >= 0", c.CellTimeout)
	}
	if c.SBEntries < 1 || c.SBEntries > MaxStoreRing {
		return fmt.Errorf("config: SBEntries = %d, need 1..%d", c.SBEntries, MaxStoreRing)
	}
	if c.ROBEntries < c.CommitWidth {
		return fmt.Errorf("config: ROB (%d) smaller than commit width (%d)", c.ROBEntries, c.CommitWidth)
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if cc.c.LineBytes != 64 {
			// memsys addresses lines with a fixed >> 6 / &^ 63.
			return fmt.Errorf("config: %s LineBytes = %d, need 64", cc.name, cc.c.LineBytes)
		}
		if cc.c.Ways < 1 || cc.c.SizeBytes < 1 || cc.c.SizeBytes%(cc.c.LineBytes*cc.c.Ways) != 0 {
			return fmt.Errorf("config: %s geometry %d/%dw/%dB does not divide into sets", cc.name, cc.c.SizeBytes, cc.c.Ways, cc.c.LineBytes)
		}
	}
	if c.Mechanism == TUS || c.Mechanism == CSB {
		if c.WCBCount < 1 {
			return fmt.Errorf("config: %v needs WCBCount >= 1, got %d", c.Mechanism, c.WCBCount)
		}
		if c.MaxAtomicGroup < 1 {
			// Sec. III-B also caps group lines *per L1D set* at the
			// associativity; that is enforced at runtime since it
			// depends on which sets the group maps to.
			return fmt.Errorf("config: MaxAtomicGroup must be >= 1")
		}
	}
	if c.Mechanism == TUS && c.WOQEntries < 1 {
		return fmt.Errorf("config: TUS needs WOQEntries >= 1")
	}
	if c.Mechanism == SSB && (c.TSOBEntries < 1 || c.TSOBEntries > MaxStoreRing) {
		return fmt.Errorf("config: SSB needs TSOBEntries in 1..%d, got %d", MaxStoreRing, c.TSOBEntries)
	}
	return nil
}
