package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/workload"
)

// evalJSON runs the complete evaluation at a small scale with the given
// worker count and returns the emitted bytes.
func evalJSON(t *testing.T, workers int) []byte {
	t.Helper()
	r := NewQuickRunner()
	r.Ops = 1600
	r.ParallelOps = 200
	r.Workers = workers
	out, err := reportJSON(r)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

// TestParallelByteIdentity is the tentpole's core guarantee: the full
// evaluation JSON — every figure, S-curve, geomean — is byte-identical
// whether cells run serially or fan out to 2, 4, or 8 workers. Run
// under -race in CI (make race-harness) this doubles as the harness's
// concurrency soundness proof.
func TestParallelByteIdentity(t *testing.T) {
	serial := evalJSON(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty serial evaluation")
	}
	for _, w := range []int{2, 4, 8} {
		if par := evalJSON(t, w); !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d produced different JSON than the serial path (%d vs %d bytes)",
				w, len(par), len(serial))
		}
	}
}

// TestParallelResultStructs compares individual cell Results — cycles,
// energy, EDP, and the full stats snapshot — across worker counts.
func TestParallelResultStructs(t *testing.T) {
	run := func(workers int) []Result {
		r := NewQuickRunner()
		r.Ops = 2000
		r.Workers = workers
		benchs := workload.SBBound()[:3]
		var cells []Cell
		for _, b := range benchs {
			for _, m := range config.Mechanisms {
				cells = append(cells, Cell{b, m, 114})
			}
		}
		if err := r.Prefetch(context.Background(), cells); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]Result, len(cells))
		for i, c := range cells {
			res, err := r.Run(c.Bench, c.Mech, c.SB)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			out[i] = res
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Cycles != p.Cycles || s.EDP != p.EDP || s.Energy != p.Energy ||
			s.Bench != p.Bench || s.Mech != p.Mech || s.SB != p.SB || s.Cores != p.Cores {
			t.Fatalf("cell %s/%v/%d differs: serial %+v parallel %+v", s.Bench, s.Mech, s.SB, s, p)
		}
		if !reflect.DeepEqual(s.Stats.Snapshot(), p.Stats.Snapshot()) {
			t.Fatalf("cell %s/%v/%d stats differ between serial and parallel", s.Bench, s.Mech, s.SB)
		}
	}
}

// TestPrefetchDeterministicError: the first failing cell in list order
// is reported regardless of worker count or completion order.
func TestPrefetchDeterministicError(t *testing.T) {
	good, _ := workload.ByName("502.gcc1")
	cells := []Cell{
		{good, config.Baseline, 114},
		{workload.Benchmark{Name: "ghost-a"}, config.TUS, 114},
		{workload.Benchmark{Name: "ghost-b"}, config.TUS, 114},
	}
	for _, w := range []int{1, 4} {
		r := NewQuickRunner()
		r.Ops = 1000
		r.Workers = w
		err := r.Prefetch(context.Background(), cells)
		if err == nil {
			t.Fatalf("workers=%d: Prefetch accepted an invalid benchmark", w)
		}
		if !strings.Contains(err.Error(), "ghost-a") {
			t.Fatalf("workers=%d: first error should name ghost-a, got: %v", w, err)
		}
	}
}

// TestRunSingleflight: concurrent Run calls for the same cell share one
// simulation (same *stats.Set handle).
func TestRunSingleflight(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 2000
	r.Workers = 8
	b, _ := workload.ByName("503.bw2")
	const callers = 8
	results := make([]Result, callers)
	if _, err := Parmap(context.Background(), callers, callers, func(i int) error {
		res, err := r.Run(b, config.TUS, 114)
		results[i] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		if results[i].Stats != results[0].Stats {
			t.Fatal("concurrent Run calls did not share the memoized result")
		}
	}
	if got := r.cellsRun.Load(); got != 1 {
		t.Fatalf("singleflight ran the cell %d times, want 1", got)
	}
}

// TestChaosParallelMatchesSerial: the chaos litmus matrix reports the
// same run count and cleanliness at any worker count (deterministic
// first-failure merge order).
func TestChaosParallelMatchesSerial(t *testing.T) {
	serial, err := ChaosLitmus(7, 1, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := ChaosLitmus(7, 1, 2, 64, w)
		if err != nil {
			t.Fatal(err)
		}
		if par.Runs != serial.Runs || (par.Bundle == nil) != (serial.Bundle == nil) {
			t.Fatalf("workers=%d: runs=%d bundle=%v; serial runs=%d bundle=%v",
				w, par.Runs, par.Bundle != nil, serial.Runs, serial.Bundle != nil)
		}
	}
}

// TestDSEParallelMatchesSerial: sweep points land in identical order
// with identical cycle counts under the pool.
func TestDSEParallelMatchesSerial(t *testing.T) {
	run := func(workers int) []DSEPoint {
		r := NewQuickRunner()
		r.Ops = 2500
		r.Workers = workers
		points, err := DSE(r, "502.gcc2")
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("DSE diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSortByBaselineStallsEdgeCases covers the empty and invalid-input
// paths of the paper's bar-sorting helper.
func TestSortByBaselineStallsEdgeCases(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 1000
	out, err := r.SortByBaselineStalls(nil, 114)
	if err != nil {
		t.Fatalf("empty input errored: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty input returned %d benchmarks", len(out))
	}
	if _, err := r.SortByBaselineStalls([]workload.Benchmark{{Name: "no-such"}}, 114); err == nil {
		t.Fatal("invalid benchmark did not error")
	}
}

// TestRunRejectsInvalidBenchmark: a zero-value Benchmark (an ignored
// ByName miss) is a clean error, not a panic inside the generator.
func TestRunRejectsInvalidBenchmark(t *testing.T) {
	r := NewQuickRunner()
	if _, err := r.Run(workload.Benchmark{Name: "phantom"}, config.TUS, 114); err == nil {
		t.Fatal("Run accepted an invalid benchmark")
	} else if !strings.Contains(err.Error(), "phantom") {
		t.Fatalf("error should identify the cell: %v", err)
	}
}

// TestParmapOrderAndError pins the pool helper's contract directly.
func TestParmapOrderAndError(t *testing.T) {
	for _, w := range []int{1, 3, 16} {
		var hits [40]int32
		if _, err := Parmap(context.Background(), w, len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, h)
			}
		}
		at, err := Parmap(context.Background(), w, 10, func(i int) error {
			if i >= 4 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if at != 4 || err == nil || err.Error() != "boom 4" {
			t.Fatalf("workers=%d: first-in-order failure = %d, %v, want 4, boom 4", w, at, err)
		}
	}
}
