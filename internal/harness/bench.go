package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// buildPGO reports the profile-guided-optimization setting the running
// binary was built with, via the build info stamped by the toolchain:
// the base name of the applied profile (normally "default.pgo"), or
// "off" when PGO was disabled or no profile was found.
func buildPGO() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-pgo" && s.Value != "" && s.Value != "off" {
				return filepath.Base(s.Value)
			}
		}
	}
	return "off"
}

// FigTiming is the wall-clock cost of regenerating one figure.
type FigTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// BenchReport is the perf trajectory record emitted as
// BENCH_harness.json: per-figure wall-clock, the aggregate simulation
// time across cells, and the cache hit split. ParallelSpeedup is the
// ratio of summed per-cell elapsed time to total wall-clock: the
// realized figure-generation speedup when each worker runs on an
// otherwise-idle core. It is omitted when the run is serial (workers
// == 1) — the ratio is then a meaningless ~1.0 that only records
// harness overhead. Cells are timed by wall clock, so when workers
// oversubscribe the physical cores the per-cell times absorb
// descheduled time and the ratio overestimates — compare wall_seconds
// across -j settings for a ground-truth number.
type BenchReport struct {
	HarnessVersion string `json:"harness_version"`
	// PGO names the profile the running binary was built with
	// ("default.pgo" under -pgo=auto with a committed profile, "off"
	// otherwise), so throughput numbers in committed reports are
	// attributable to the right build mode.
	PGO         string      `json:"pgo,omitempty"`
	Workers     int         `json:"workers"`
	NumCPU      int         `json:"num_cpu"`
	Ops         int         `json:"ops"`
	ParallelOps int         `json:"parallel_ops"`
	Seed        int64       `json:"seed"`
	Figures     []FigTiming `json:"figures"`
	WallSeconds float64     `json:"wall_seconds"`
	// CellSeconds is simulation time summed over cells actually run
	// (cache hits contribute nothing).
	CellSeconds float64 `json:"cell_seconds"`
	CellsRun    int     `json:"cells_run"`
	CellsCached int     `json:"cells_cached"`
	// CacheCorrupt counts disk-cache entries that existed but failed to
	// decode or validate; each one was resimulated. Nonzero means the
	// cache directory is rotting (torn writes, version skew, bit flips)
	// even though results stayed correct.
	CacheCorrupt    int     `json:"cache_corrupt"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// SimCycles is the total simulated cycles across freshly run cells;
	// with CellSeconds it yields the harness's core throughput metrics:
	// CellsPerSec (cells simulated per second of simulation time) and
	// SimCyclesPerSec (simulated cycles per wall second of simulation).
	// Both are zero on a fully cache-hot run — the perf gate skips the
	// throughput check then, since no simulation work was measured.
	SimCycles       uint64  `json:"sim_cycles"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// BenchRecorder accumulates figure timings around a Runner. It is safe
// for concurrent use: tusd times concurrently executing figure jobs
// through one recorder.
type BenchRecorder struct {
	r     *Runner
	start time.Time

	mu      sync.Mutex
	figures []FigTiming
}

// NewBenchRecorder starts the wall clock for a harness invocation.
func NewBenchRecorder(r *Runner) *BenchRecorder {
	return &BenchRecorder{r: r, start: time.Now()}
}

// Time runs f and records its wall-clock under name; a nil recorder
// just runs f.
func (b *BenchRecorder) Time(name string, f func() error) error {
	if b == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	b.mu.Lock()
	b.figures = append(b.figures, FigTiming{Name: name, Seconds: time.Since(t0).Seconds()})
	b.mu.Unlock()
	return err
}

// Report closes the wall clock and assembles the perf record.
func (b *BenchRecorder) Report() BenchReport {
	wall := time.Since(b.start).Seconds()
	cell := time.Duration(b.r.cellNanos.Load()).Seconds()
	b.mu.Lock()
	figures := append([]FigTiming(nil), b.figures...)
	b.mu.Unlock()
	cs := b.r.CacheStats()
	var speedup float64
	if b.r.workers() > 1 && wall > 0 {
		speedup = cell / wall
	}
	simCycles := b.r.cellCycles.Load()
	var cellsPerSec, cyclesPerSec float64
	if cell > 0 {
		cellsPerSec = float64(cs.CellsRun) / cell
		cyclesPerSec = float64(simCycles) / cell
	}
	return BenchReport{
		HarnessVersion:  Version,
		PGO:             buildPGO(),
		Workers:         b.r.workers(),
		NumCPU:          runtime.NumCPU(),
		Ops:             b.r.Ops,
		ParallelOps:     b.r.ParallelOps,
		Seed:            b.r.Seed,
		Figures:         figures,
		WallSeconds:     wall,
		CellSeconds:     cell,
		CellsRun:        int(cs.CellsRun),
		CellsCached:     int(cs.CellsCached),
		CacheCorrupt:    int(cs.CacheCorrupt),
		ParallelSpeedup: speedup,
		SimCycles:       simCycles,
		CellsPerSec:     cellsPerSec,
		SimCyclesPerSec: cyclesPerSec,
	}
}

// WriteFile emits the report as indented JSON (the BENCH_harness.json
// artifact tracked across PRs).
func (rep BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
