package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tusim/internal/supervise"
)

func TestDSEStructure(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 4000
	points, err := DSE(r, "502.gcc2")
	if err != nil {
		t.Fatal(err)
	}
	// 4 WOQ + 3 WCB + 4 group + 2 ablations.
	if len(points) != 13 {
		t.Fatalf("points = %d, want 13", len(points))
	}
	labels := map[string]bool{}
	for _, p := range points {
		if p.Cycles == 0 {
			t.Fatalf("%s: zero cycles", p.Label)
		}
		labels[p.Label] = true
	}
	for _, want := range []string{"WOQ=64", "WCBs=2", "maxGroup=16", "no-coalescing", "no-prefetch-at-commit"} {
		if !labels[want] {
			t.Fatalf("missing DSE point %q", want)
		}
	}
	var sb strings.Builder
	PrintDSE(&sb, points)
	if !strings.Contains(sb.String(), "WOQ=128") {
		t.Fatal("PrintDSE output incomplete")
	}
}

func TestDSEUnknownBenchmark(t *testing.T) {
	if _, err := DSE(NewQuickRunner(), "no-such-bench"); err == nil {
		t.Fatal("DSE accepted an unknown benchmark")
	}
}

// TestDSEPointsAreCells: the sweep goes through the Runner like any
// figure — a second sweep on a fresh Runner sharing the cache directory
// simulates nothing and reports the same points.
func TestDSEPointsAreCells(t *testing.T) {
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() ([]DSEPoint, CacheStats) {
		r := NewQuickRunner()
		r.Ops = 4000
		r.Cache = cache
		points, err := DSE(r, "502.gcc2")
		if err != nil {
			t.Fatal(err)
		}
		return points, r.CacheStats()
	}
	cold, cs := sweep()
	if cs.CellsRun == 0 {
		t.Fatal("cold sweep counted no simulated cells")
	}
	warm, ws := sweep()
	if ws.CellsRun != 0 || ws.CellsCached != 14 {
		t.Fatalf("warm sweep: cells_run=%d cells_cached=%d, want 0 and 14 (default + 13 points)", ws.CellsRun, ws.CellsCached)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached sweep differs from the simulated one:\ncold %v\nwarm %v", cold, warm)
	}
}

// TestDSEPoisonedPointQuarantines: a failing point is contained by the
// supervisor and comes back as a typed error naming the point.
func TestDSEPoisonedPointQuarantines(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 4000
	r.Supervisor = NewSupervisor(0)
	const poison = "502.gcc2/TUS/114/WOQ=16"
	r.testHookSim = func(_ context.Context, key string) error {
		if key == poison {
			panic("poisoned point")
		}
		return nil
	}
	_, err := DSE(r, "502.gcc2")
	var q *supervise.Quarantined
	if !errors.As(err, &q) || q.Key != poison {
		t.Fatalf("err = %v, want a *supervise.Quarantined for %s", err, poison)
	}
}
