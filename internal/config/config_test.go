package config

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestTableI asserts the defaults match the paper's Table I exactly.
func TestTableI(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"FetchWidth", c.FetchWidth, 8},
		{"DecodeWidth", c.DecodeWidth, 6},
		{"RenameWidth", c.RenameWidth, 6},
		{"DispatchWidth", c.DispatchWidth, 12},
		{"IssueWidth", c.IssueWidth, 12},
		{"CommitWidth", c.CommitWidth, 8},
		{"ROBEntries", c.ROBEntries, 512},
		{"LQEntries", c.LQEntries, 192},
		{"SBEntries", c.SBEntries, 114},
		{"L1D size", c.L1D.SizeBytes, 48 << 10},
		{"L1D ways", c.L1D.Ways, 12},
		{"L1D MSHRs", c.L1D.MSHRs, 64},
		{"L2 size", c.L2.SizeBytes, 1 << 20},
		{"L2 ways", c.L2.Ways, 16},
		{"L3 size", c.L3.SizeBytes, 64 << 20},
		{"L3 ways", c.L3.Ways, 16},
		{"WOQEntries", c.WOQEntries, 64},
		{"WCBCount", c.WCBCount, 2},
		{"MaxAtomicGroup", c.MaxAtomicGroup, 16},
		{"LexBits", c.LexBits, 16},
		{"TSOBEntries", c.TSOBEntries, 1024},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	lats := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"IntAddLat", c.IntAddLat, 1},
		{"IntMulLat", c.IntMulLat, 4},
		{"IntDivLat", c.IntDivLat, 12},
		{"FPAddLat", c.FPAddLat, 5},
		{"FPMulLat", c.FPMulLat, 5},
		{"FPDivLat", c.FPDivLat, 12},
		{"L1D latency", c.L1D.Latency, 5},
		{"L2 latency", c.L2.Latency, 16},
		{"L3 latency", c.L3.Latency, 34},
		{"DRAM latency", c.DRAMLatency, 160},
	}
	for _, ck := range lats {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestCacheSets(t *testing.T) {
	c := Default()
	if got := c.L1D.Sets(); got != 64 {
		t.Errorf("L1D sets = %d, want 64 (48KB/12way/64B)", got)
	}
	if got := c.L2.Sets(); got != 1024 {
		t.Errorf("L2 sets = %d, want 1024", got)
	}
	if got := c.L3.Sets(); got != 65536 {
		t.Errorf("L3 sets = %d, want 65536", got)
	}
}

// TestForwardLatency asserts the Fog-derived SB-size-dependent
// store-to-load forwarding latencies (5 @ 114, 4 @ 64, 3 below).
func TestForwardLatency(t *testing.T) {
	cases := []struct {
		sb   int
		want uint64
	}{{114, 5}, {128, 5}, {64, 4}, {100, 4}, {32, 3}, {16, 3}, {63, 3}}
	for _, cs := range cases {
		if got := Default().WithSB(cs.sb).ForwardLatency(); got != cs.want {
			t.Errorf("ForwardLatency(SB=%d) = %d, want %d", cs.sb, got, cs.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Default()
	b := a.Clone()
	b.SBEntries = 1
	b.L1D.Ways = 2
	if a.SBEntries != 114 || a.L1D.Ways != 12 {
		t.Fatal("Clone shares state with original")
	}
}

func TestWithHelpers(t *testing.T) {
	c := Default().WithSB(32).WithMechanism(TUS).WithCores(16)
	if c.SBEntries != 32 || c.Mechanism != TUS || c.Cores != 16 {
		t.Fatalf("With helpers broken: %+v", c)
	}
	if Default().SBEntries != 114 {
		t.Fatal("With helpers mutated a fresh default")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []*Config{
		func() *Config { c := Default(); c.Cores = 0; return c }(),
		func() *Config { c := Default(); c.SBEntries = 0; return c }(),
		func() *Config { c := Default(); c.L1D.Ways = 7; return c }(),
		func() *Config { c := Default().WithMechanism(TUS); c.WOQEntries = 0; return c }(),
		func() *Config { c := Default().WithMechanism(CSB); c.WCBCount = 0; return c }(),
		func() *Config { c := Default().WithMechanism(SSB); c.TSOBEntries = 0; return c }(),
		func() *Config { c := Default(); c.ROBEntries = 4; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
}

// The store ring links slots with 16-bit indices; a capacity past what
// they hold must be refused at Validate, not wrap inside the ring.
func TestValidateBoundsStoreRings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *Config
		want string
	}{
		{"SB one past", func() *Config { c := Default(); c.SBEntries = MaxStoreRing + 1; return c }(), "config: SBEntries"},
		{"TSOB one past", func() *Config { c := Default().WithMechanism(SSB); c.TSOBEntries = MaxStoreRing + 1; return c }(), "config: SSB needs TSOBEntries"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error starting %q", tc.name, err, tc.want)
		}
	}
	c := Default().WithMechanism(SSB).WithSB(MaxStoreRing)
	c.TSOBEntries = MaxStoreRing
	if err := c.Validate(); err != nil {
		t.Errorf("rings at MaxStoreRing rejected: %v", err)
	}
	// Only SSB has a TSOB; the other mechanisms ignore the field.
	c = Default()
	c.TSOBEntries = MaxStoreRing + 1
	if err := c.Validate(); err != nil {
		t.Errorf("baseline rejected for an unused TSOB size: %v", err)
	}
}

// A cache with no sets used to validate (0 % anything == 0) and die on
// the first access with an integer divide by zero in the set index; a
// line size other than the 64 bytes memsys shifts by mis-indexed silently.
func TestValidateRejectsBadCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"L1D size 0", func(c *Config) { c.L1D.SizeBytes = 0 }, "L1D geometry"},
		{"L2 size 0", func(c *Config) { c.L2.SizeBytes = 0 }, "L2 geometry"},
		{"L3 size 0", func(c *Config) { c.L3.SizeBytes = 0 }, "L3 geometry"},
		{"L2 size negative", func(c *Config) { c.L2.SizeBytes = -c.L2.SizeBytes }, "L2 geometry"},
		{"L1D ways negative", func(c *Config) { c.L1D.Ways = -12 }, "L1D geometry"},
		{"L1D 32-byte lines", func(c *Config) { c.L1D.LineBytes = 32 }, "L1D LineBytes"},
		{"L3 128-byte lines", func(c *Config) { c.L3.LineBytes = 128 }, "L3 LineBytes"},
		{"L2 line size 0", func(c *Config) { c.L2.LineBytes = 0 }, "L2 LineBytes"},
	} {
		c := Default()
		tc.edit(c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// One set is the smallest legal cache.
	c := Default()
	c.L1D = CacheConfig{SizeBytes: 64 * 12, Ways: 12, LineBytes: 64, Latency: c.L1D.Latency, MSHRs: c.L1D.MSHRs}
	if err := c.Validate(); err != nil || c.L1D.Sets() != 1 {
		t.Errorf("one-set L1D: Validate = %v, Sets = %d", err, c.L1D.Sets())
	}
}

func TestMechanismString(t *testing.T) {
	want := map[Mechanism]string{Baseline: "base", TUS: "TUS", SSB: "SSB", CSB: "CSB", SPB: "SPB"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if len(Mechanisms) != 5 {
		t.Fatalf("Mechanisms has %d entries, want 5", len(Mechanisms))
	}
}

// TestMechanismText pins the text form JSON uses: every mechanism
// round-trips through its paper name, the aliases decode, an unknown
// name fails, and a mechanism-keyed map encodes sorted by name.
func TestMechanismText(t *testing.T) {
	for _, m := range Mechanisms {
		text, err := m.MarshalText()
		if err != nil || string(text) != m.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", m, text, err)
		}
		var back Mechanism
		if err := back.UnmarshalText(text); err != nil || back != m {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, m)
		}
	}
	for alias, want := range map[string]Mechanism{"baseline": Baseline, "tus": TUS} {
		var m Mechanism
		if err := m.UnmarshalText([]byte(alias)); err != nil || m != want {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", alias, m, err, want)
		}
	}
	m := TUS
	if err := m.UnmarshalText([]byte("LSQ")); err == nil || m != TUS {
		t.Fatalf("UnmarshalText(LSQ) = %v, left %v; want an error and TUS kept", err, m)
	}
	data, err := json.Marshal(map[Mechanism]int{TUS: 1, Baseline: 0, SSB: 2})
	if err != nil || string(data) != `{"SSB":2,"TUS":1,"base":0}` {
		t.Fatalf("map encodes as %s, %v", data, err)
	}
	var back map[Mechanism]int
	if err := json.Unmarshal(data, &back); err != nil || back[TUS] != 1 || back[SSB] != 2 || len(back) != 3 {
		t.Fatalf("map decodes as %v, %v", back, err)
	}
}
