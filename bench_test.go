// Package tusim's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Sec. VI) at test scale, reporting
// the headline series as benchmark metrics. Run the full-scale
// regeneration with `go run ./cmd/tusbench`.
//
//	go test -bench=. -benchmem
//
// Naming: BenchmarkFigN_* maps to the paper's Figure N (see DESIGN.md's
// experiment index); BenchmarkAblation* covers the design choices the
// DSE in Sec. VI calls out.
package tusim_test

import (
	"context"
	"encoding/json"
	"testing"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/system"
	"tusim/internal/workload"
)

// benchRunner returns a harness runner sized for benchmarking: small
// enough to iterate, large enough to leave the warm-up region.
func benchRunner() *harness.Runner {
	r := harness.NewQuickRunner()
	r.Ops = 60_000
	r.ParallelOps = 3_000
	return r
}

func reportSpeedups(b *testing.B, sp map[config.Mechanism]float64) {
	b.Helper()
	for _, m := range config.Mechanisms {
		if m == config.Baseline {
			continue
		}
		b.ReportMetric(100*(sp[m]-1), m.String()+"_speedup_%")
	}
}

// figureJSON builds registry figure fig the way tusbench and tusd do —
// Runner.Build over the registry row — and reads its product back from
// the JSON the figure writes.
func figureJSON[T harness.Product](b *testing.B, fig int) T {
	b.Helper()
	f, _ := harness.FigureByNum(fig)
	p, err := benchRunner().Build(context.Background(), f)
	if err != nil {
		b.Fatal(err)
	}
	var out T
	data, err := json.Marshal(p)
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkFig8_Scalability regenerates the SB-size scalability study.
func BenchmarkFig8_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Report the SPEC row at SB=32 (the headline "small SB" case).
		for _, row := range figureJSON[harness.Fig8Rows](b, 8) {
			if row.SB != 32 || row.Suite != "SPEC-ST(SB-bound)" {
				continue
			}
			for _, m := range config.Mechanisms {
				if m != config.Baseline {
					b.ReportMetric(100*(row.Speedup[m]-1), m.String()+"_speedup_%")
				}
			}
		}
	}
}

// BenchmarkFig9_SBStalls regenerates the SB-induced stall breakdown.
func BenchmarkFig9_SBStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := figureJSON[harness.Fig9Rows](b, 9)
		var base, tus float64
		for _, row := range rows {
			base += row.Values[config.Baseline]
			tus += row.Values[config.TUS]
		}
		n := float64(len(rows))
		b.ReportMetric(base/n, "base_stall_%")
		b.ReportMetric(tus/n, "TUS_stall_%")
	}
}

// BenchmarkFig10_Speedups regenerates the 114-entry-SB speedup study.
func BenchmarkFig10_Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.Speedups(r, 114, 114)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedups(b, s.Geomean)
	}
}

// BenchmarkFig11_EDP regenerates the ST SB-bound EDP comparison.
func BenchmarkFig11_EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.EDP(r, workload.SBBound(), 114, 114)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range config.Mechanisms {
			if m == config.Baseline {
				continue
			}
			b.ReportMetric(s.Geomean[m], m.String()+"_edp")
		}
	}
}

// BenchmarkFig12_Parsec regenerates the 16-core speedup + EDP panels.
func BenchmarkFig12_Parsec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.Parsec(r, 114, 114)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(s.Speedup.Geomean[config.TUS]-1), "TUS_speedup_%")
		b.ReportMetric(s.EDP.Geomean[config.TUS], "TUS_edp")
	}
}

// BenchmarkFig13_SmallSB regenerates the 32-entry-SB speedup study.
func BenchmarkFig13_SmallSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.Speedups(r, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedups(b, s.Geomean)
	}
}

// BenchmarkFig14_ParsecSmallSB regenerates Fig. 14 (Parsec @ 32 SB).
func BenchmarkFig14_ParsecSmallSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.Parsec(r, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(s.Speedup.Geomean[config.TUS]-1), "TUS_speedup_%")
		b.ReportMetric(s.EDP.Geomean[config.TUS], "TUS_edp")
	}
}

// BenchmarkFig15_EDPSmallSB regenerates Fig. 15 (ST SB-bound EDP @ 32).
func BenchmarkFig15_EDPSmallSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.EDP(r, workload.SBBound(), 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Geomean[config.TUS], "TUS_edp")
	}
}

// BenchmarkHeadline_TUS32vsBase114 is the abstract's claim: a 32-entry
// SB under TUS vs the 114-entry baseline.
func BenchmarkHeadline_TUS32vsBase114(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		s, err := harness.Speedups(r, 114, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(s.Geomean[config.TUS]-1), "TUS32_vs_base114_%")
	}
}

// ---------- Ablations (design choices from the Sec. VI DSE) ----------

func ablationRun(b *testing.B, mut func(*config.Config)) uint64 {
	b.Helper()
	bench, _ := workload.ByName("502.gcc5")
	const ops = 60_000
	cfg := config.Default().WithMechanism(config.TUS)
	mut(cfg)
	sys, err := system.New(cfg, bench.Streams(1, ops))
	if err != nil {
		b.Fatal(err)
	}
	sys.WarmupOps = ops / 3
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	return sys.Cycles
}

// BenchmarkAblationWOQSize sweeps the write ordering queue size
// (the DSE chose 64).
func BenchmarkAblationWOQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, func(c *config.Config) {})
		for _, n := range []int{16, 32, 64, 128} {
			n := n
			cyc := ablationRun(b, func(c *config.Config) { c.WOQEntries = n })
			b.ReportMetric(100*(float64(base)/float64(cyc)-1),
				"woq"+itoa(n)+"_vs_64_%")
		}
	}
}

// BenchmarkAblationWCBCount sweeps the number of write-combining
// buffers (the DSE chose 2).
func BenchmarkAblationWCBCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, func(c *config.Config) {})
		for _, n := range []int{1, 2, 4} {
			n := n
			cyc := ablationRun(b, func(c *config.Config) { c.WCBCount = n })
			b.ReportMetric(100*(float64(base)/float64(cyc)-1),
				"wcb"+itoa(n)+"_vs_2_%")
		}
	}
}

// BenchmarkAblationGroupLen sweeps the maximum atomic group length
// (the DSE chose 16; after 8 the paper saw no ST difference).
func BenchmarkAblationGroupLen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, func(c *config.Config) {})
		for _, n := range []int{4, 8, 16, 32} {
			n := n
			cyc := ablationRun(b, func(c *config.Config) { c.MaxAtomicGroup = n })
			b.ReportMetric(100*(float64(base)/float64(cyc)-1),
				"group"+itoa(n)+"_vs_16_%")
		}
	}
}

// BenchmarkAblationNoCoalesce disables WCB coalescing inside TUS.
func BenchmarkAblationNoCoalesce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, func(c *config.Config) {})
		cyc := ablationRun(b, func(c *config.Config) { c.TUSCoalesce = false })
		b.ReportMetric(100*(float64(base)/float64(cyc)-1), "no_coalesce_vs_tus_%")
	}
}

// BenchmarkAblationPrefetchAtCommit removes the commit-time RFO
// (the paper credits it with +15% over default gem5).
func BenchmarkAblationPrefetchAtCommit(b *testing.B) {
	bench, _ := workload.ByName("502.gcc5")
	const ops = 60_000
	run := func(pac bool) uint64 {
		cfg := config.Default() // baseline mechanism
		cfg.PrefetchAtCommit = pac
		sys, err := system.New(cfg, bench.Streams(1, ops))
		if err != nil {
			b.Fatal(err)
		}
		sys.WarmupOps = ops / 3
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		return sys.Cycles
	}
	for i := 0; i < b.N; i++ {
		with := run(true)
		without := run(false)
		b.ReportMetric(100*(float64(without)/float64(with)-1), "pac_gain_%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated micro-ops per wall second on the TUS configuration).
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, _ := workload.ByName("502.gcc2")
	streams := bench.Streams(1, 50_000)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		cfg := config.Default().WithMechanism(config.TUS)
		sys, err := system.New(cfg, bench.Streams(int64(i+1), 50_000))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		total += 50_000
	}
	_ = streams
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkWholeCellCyclesPerSec measures a whole experiment cell
// (system build + full run) in simulated cycles per wall second — the
// unit of the benchmark's harness.sim_cycles_per_s.
func BenchmarkWholeCellCyclesPerSec(b *testing.B) {
	bench, _ := workload.ByName("502.gcc2")
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := config.Default().WithMechanism(config.TUS)
		sys, err := system.New(cfg, bench.Streams(int64(i+1), 50_000))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += sys.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
