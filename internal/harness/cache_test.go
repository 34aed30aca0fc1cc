package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tusim/internal/config"
	"tusim/internal/workload"
)

func cachedRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewQuickRunner()
	r.Ops = 2000
	r.Cache = cache
	return r
}

// TestDiskCacheRoundTrip: a second process-equivalent Runner rehydrates
// the cell from disk — identical cycles, energy, EDP, and stats
// (including formatting prefix) — without simulating.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, _ := workload.ByName("503.bw2")

	cold := cachedRunner(t, dir)
	want, err := cold.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	if cold.cellsRun.Load() != 1 || cold.cellsFromC.Load() != 0 {
		t.Fatalf("cold run accounting: run=%d cached=%d", cold.cellsRun.Load(), cold.cellsFromC.Load())
	}

	warm := cachedRunner(t, dir)
	got, err := warm.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	if warm.cellsRun.Load() != 0 || warm.cellsFromC.Load() != 1 {
		t.Fatalf("warm run accounting: run=%d cached=%d", warm.cellsRun.Load(), warm.cellsFromC.Load())
	}
	if got.Cycles != want.Cycles || got.EDP != want.EDP || got.Energy != want.Energy ||
		got.Bench != want.Bench || got.Mech != want.Mech || got.SB != want.SB || got.Cores != want.Cores {
		t.Fatalf("cache hit differs: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Stats.Snapshot(), want.Stats.Snapshot()) {
		t.Fatal("cached stats snapshot differs from live run")
	}
	if got.Stats.String() != want.Stats.String() {
		t.Fatal("cached stats format (prefix/order) differs from live run")
	}
}

// TestDiskCacheCorruptEntryIsMiss: a torn or garbage entry silently
// degrades to a recomputation, never an error or a wrong result.
func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	b, _ := workload.ByName("503.bw2")
	cold := cachedRunner(t, dir)
	want, err := cold.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected 1 cache entry, got %v (%v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := cachedRunner(t, dir)
	got, err := warm.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	if warm.cellsRun.Load() != 1 {
		t.Fatal("corrupt entry should have forced a recomputation")
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("recomputed cycles %d != original %d", got.Cycles, want.Cycles)
	}
	if warm.cacheCorrupt.Load() != 1 {
		t.Fatalf("cache_corrupt = %d, want 1", warm.cacheCorrupt.Load())
	}
	if cold.cacheCorrupt.Load() != 0 {
		t.Fatalf("cold runner counted %d corruptions, want 0", cold.cacheCorrupt.Load())
	}
}

// TestDiskCacheWriteFailureCounted: a cache dir that disappears under
// the run (as a removed, read-only or full one does) fails every write.
// The cell's result is still returned, and the failure is counted
// instead of dropped: the cache is the only record of finished cells, so
// a silent failure would make every resume resimulate without a word.
func TestDiskCacheWriteFailureCounted(t *testing.T) {
	dir := t.TempDir()
	b, _ := workload.ByName("503.bw2")
	want, err := cachedRunner(t, t.TempDir()).Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	r := cachedRunner(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("cycles %d with a failed cache write, want %d", got.Cycles, want.Cycles)
	}
	if cs := r.CacheStats(); cs.CacheWriteFailed != 1 || cs.CellsRun != 1 {
		t.Fatalf("%+v, want CacheWriteFailed 1 and CellsRun 1", cs)
	}
}

// TestContentKeySensitivity: the content hash must move when anything
// that can change the result moves — mechanism, SB size, seed, trace
// length, checker attachment, harness version — or that names which
// implementation produced it (config.Reference: a reference run served
// fast results from a warm cache would make the differential vacuous),
// and must be stable for identical inputs.
func TestContentKeySensitivity(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	base := NewQuickRunner()
	cfgOf := func(m config.Mechanism, sb int) *config.Config {
		return config.Default().WithMechanism(m).WithSB(sb).WithCores(b.Threads)
	}
	ref := base.contentKey(b, cfgOf(config.TUS, 114))
	if ref != base.contentKey(b, cfgOf(config.TUS, 114)) {
		t.Fatal("content key is not stable")
	}
	variants := map[string]string{}
	variants["mech"] = base.contentKey(b, cfgOf(config.CSB, 114))
	variants["sb"] = base.contentKey(b, cfgOf(config.TUS, 32))
	seeded := NewQuickRunner()
	seeded.Seed = 99
	variants["seed"] = seeded.contentKey(b, cfgOf(config.TUS, 114))
	longer := NewQuickRunner()
	longer.Ops = base.Ops * 2
	variants["ops"] = longer.contentKey(b, cfgOf(config.TUS, 114))
	checked := NewQuickRunner()
	checked.Check = true
	variants["check"] = checked.contentKey(b, cfgOf(config.TUS, 114))
	other, _ := workload.ByName("502.gcc1")
	variants["bench"] = base.contentKey(other, cfgOf(config.TUS, 114))
	flipped := cfgOf(config.TUS, 114)
	flipped.Reference = !flipped.Reference
	variants["reference"] = base.contentKey(b, flipped)
	seen := map[string]string{ref: "ref"}
	for what, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Fatalf("content key for %q collides with %q", what, prev)
		}
		seen[key] = what
	}
}

// TestContentKeyIgnoresCellTimeout: the supervision deadline is a
// harness knob, not a simulation parameter — changing it must not
// invalidate cached cells.
func TestContentKeyIgnoresCellTimeout(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	cfg := config.Default().WithMechanism(config.TUS).WithSB(114).WithCores(b.Threads)
	ref := r.contentKey(b, cfg)
	mod := cfg.Clone()
	mod.CellTimeout = 17 * time.Second
	if got := r.contentKey(b, mod); got != ref {
		t.Fatal("CellTimeout changed the content key; timeout tweaks would bust the cache")
	}
	if mod.CellTimeout != 17*time.Second {
		t.Fatal("contentKey mutated its input config")
	}
}

// TestDiskCacheParallelSharing: a parallel figure run against a warm
// cache simulates nothing.
func TestDiskCacheParallelSharing(t *testing.T) {
	dir := t.TempDir()
	benchs := workload.SBBound()[:2]
	var cells []Cell
	for _, b := range benchs {
		for _, m := range config.Mechanisms {
			cells = append(cells, Cell{b, m, 114})
		}
	}
	cold := cachedRunner(t, dir)
	cold.Workers = 4
	if err := cold.Prefetch(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := int(cold.cellsRun.Load()); got != len(cells) {
		t.Fatalf("cold prefetch ran %d cells, want %d", got, len(cells))
	}
	warm := cachedRunner(t, dir)
	warm.Workers = 4
	if err := warm.Prefetch(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := warm.cellsRun.Load(); got != 0 {
		t.Fatalf("warm prefetch simulated %d cells, want 0", got)
	}
	if got := int(warm.cellsFromC.Load()); got != len(cells) {
		t.Fatalf("warm prefetch loaded %d cells from cache, want %d", got, len(cells))
	}
}

// TestCacheDirVanishesMidRun: a cache that breaks after it was opened
// degrades to simulate-without-cache — same bytes, no error, every cell
// simulated — never to a failed figure.
func TestCacheDirVanishesMidRun(t *testing.T) {
	render := func(cache *DiskCache) ([]byte, CacheStats) {
		r := NewQuickRunner()
		r.Cache = cache
		var buf bytes.Buffer
		if err := RenderFigure(r, 9, &buf); err != nil {
			t.Fatalf("render with cache %v: %v", cache, err)
		}
		return buf.Bytes(), r.CacheStats()
	}
	want, _ := render(nil)

	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, st := render(cache)
	if !bytes.Equal(got, want) {
		t.Fatalf("Fig. 9 over a vanished cache dir differs from the cache-less render:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := int64(len(FigureCellUnion(9))); st.CellsRun != n || st.CellsCached != 0 {
		t.Fatalf("cells_run=%d cells_cached=%d, want %d and 0", st.CellsRun, st.CellsCached, n)
	}
}
