package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden figure snapshots in testdata/")

// goldenRunner pins the scale the snapshots were generated at. Changing
// it invalidates every golden file (regenerate with `go test
// ./internal/harness -run TestGoldenFigures -update`).
func goldenRunner() *Runner {
	r := NewQuickRunner()
	r.Ops = 2500
	r.ParallelOps = 300
	r.Workers = 4 // the snapshots must also pin the parallel path
	return r
}

// TestGoldenFigures locks the harness output byte-for-byte: any future
// refactor — parallelism, caching, mechanism tweaks — that perturbs a
// figure fails against these committed snapshots instead of silently
// drifting the paper's numbers. The six snapshots cover both SB
// operating points (114 and 32 entries), the scalability sweep, the
// stall breakdown, and both Parsec panel pairs.
func TestGoldenFigures(t *testing.T) {
	r := goldenRunner()
	for _, fig := range []int{8, 9, 12, 13, 14, 15} {
		f, ok := FigureByNum(fig)
		if !ok {
			t.Fatalf("figure %d not in the registry", fig)
		}
		t.Run(f.Name, func(t *testing.T) {
			p, err := r.Build(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(p, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", f.Name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from its golden snapshot.\nIf the change is intended, regenerate with:\n  go test ./internal/harness -run TestGoldenFigures -update\ngot %d bytes, want %d bytes", f.Name, len(got), len(want))
			}
		})
	}
}
