package harness

import (
	"context"
	"fmt"
	"io"

	"tusim/internal/config"
	"tusim/internal/workload"
)

// DSEPoint is one configuration of a design-space sweep.
type DSEPoint struct {
	Label  string
	Bench  string
	Cycles uint64
	// SpeedupVsDefault is relative to the paper's chosen configuration.
	SpeedupVsDefault float64
}

// DSE reproduces the paper's design-space exploration (Sec. VI): sweeps
// of WOQ size, WCB count, maximum atomic-group length, and the
// coalescing ablation, all on TUS with a representative SB-bound
// workload. The paper's conclusions to check: 64 WOQ entries and 2
// WCBs are cost-effective, and group lengths beyond 8 stop mattering
// for sequential applications.
//
// Every point is a cell like any other: it goes through the Runner's
// singleflight memo, disk cache (the content key hashes the whole
// configuration), supervisor and journal under the key of the default
// cell plus the point's label ("502.gcc5/TUS/114/WOQ=16"). The default
// point is the ordinary 502.gcc5/TUS/114 cell. The sweep fans out to the
// worker pool with results merged back in fixed sweep order.
func DSE(r *Runner, benchName string) ([]DSEPoint, error) {
	b, ok := workload.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown benchmark %q", benchName)
	}
	def := Cell{b, config.TUS, config.Default().SBEntries}

	type spec struct {
		label string
		mut   func(*config.Config)
	}
	specs := []spec{{"default", nil}}
	for _, n := range []int{16, 32, 64, 128} {
		n := n
		specs = append(specs, spec{fmt.Sprintf("WOQ=%d", n), func(c *config.Config) { c.WOQEntries = n }})
	}
	for _, n := range []int{1, 2, 4} {
		n := n
		specs = append(specs, spec{fmt.Sprintf("WCBs=%d", n), func(c *config.Config) { c.WCBCount = n }})
	}
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		specs = append(specs, spec{fmt.Sprintf("maxGroup=%d", n), func(c *config.Config) { c.MaxAtomicGroup = n }})
	}
	specs = append(specs,
		spec{"no-coalescing", func(c *config.Config) { c.TUSCoalesce = false }},
		spec{"no-prefetch-at-commit", func(c *config.Config) { c.PrefetchAtCommit = false }},
	)

	cycles := make([]uint64, len(specs))
	_, err := Parmap(context.Background(), r.workers(), len(specs), func(i int) error {
		key, mkcfg := CellKey(def), def.config
		if mut := specs[i].mut; mut != nil {
			key += "/" + specs[i].label
			mkcfg = func() *config.Config {
				cfg := def.config()
				mut(cfg)
				return cfg
			}
		}
		res, err := r.run(context.Background(), b, key, mkcfg)
		if err != nil {
			return fmt.Errorf("harness: DSE %s: %w", specs[i].label, err)
		}
		cycles[i] = res.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}

	base := cycles[0]
	out := make([]DSEPoint, 0, len(specs)-1)
	for i, s := range specs[1:] {
		out = append(out, DSEPoint{
			Label:            s.label,
			Bench:            benchName,
			Cycles:           cycles[i+1],
			SpeedupVsDefault: float64(base) / float64(cycles[i+1]),
		})
	}
	return out, nil
}

// PrintDSE renders the sweep.
func PrintDSE(w io.Writer, points []DSEPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "TUS design-space exploration on %s (vs the paper's WOQ=64/WCB=2/group<=16):\n",
		points[0].Bench)
	for _, p := range points {
		fmt.Fprintf(w, "  %-24s %10d cycles  %+6.1f%%\n", p.Label, p.Cycles, 100*(p.SpeedupVsDefault-1))
	}
}
