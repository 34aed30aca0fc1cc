package memsys_test

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/system"
	"tusim/internal/workload"
)

// TestKeepWritableCallCeiling is the exact count behind the drain
// lookahead's watermark, which asks KeepWritable of each committed line
// once until a loss reopens it. A store-burst cell and a miss-bound cell,
// each under both window sizes (16 lines for base, 64 for SSB's TSOB),
// must stay under a ceiling of calls per thousand micro-ops. The comments
// give the counts when the ceilings were set and, in brackets, those of a
// walk that asks the whole window whenever the ring or a line moved.
func TestKeepWritableCallCeiling(t *testing.T) {
	for _, c := range []struct {
		bench   string
		mech    config.Mechanism
		ceiling float64 // calls per kµop
	}{
		{"502.gcc2", config.Baseline, 60}, // 41.5 (1,879)
		{"502.gcc2", config.SSB, 120},     // 90.3 (5,522)
		{"505.mcf", config.Baseline, 900}, // 708.5 (5,617)
		{"505.mcf", config.SSB, 11_000},   // 9,066 (26,140): MSHR-bound, each free re-asks the refused
	} {
		const ops = 20_000
		b, _ := workload.ByName(c.bench)
		traces := b.Generate(1, ops)
		streams := make([]isa.Stream, len(traces))
		for i, tr := range traces {
			streams[i] = isa.NewSliceStream(tr)
		}
		cfg := config.Default().WithMechanism(c.mech).WithCores(b.Threads)
		cfg.Reference = false // the reference machine walks the whole window every cycle
		sys, err := system.New(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		perK := 1000 * float64(sys.Privs[0].KeepWritableCalls()) / ops
		t.Logf("%s/%v: %.1f KeepWritable calls per kµop", c.bench, c.mech, perK)
		if perK > c.ceiling {
			t.Errorf("%s/%v: %.1f KeepWritable calls per kµop, ceiling %.0f", c.bench, c.mech, perK, c.ceiling)
		}
	}
}
