package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/stats"
	"tusim/internal/workload"
)

// DiskCache is a content-addressed, cross-process result cache: each
// cell is stored under the hex SHA-256 of everything that determines
// its outcome (harness version, full machine configuration, benchmark
// identity, workload seed, trace length, checker attachment). Because
// the key is derived from content — not from file mtimes or run order —
// a hit is exactly as trustworthy as a rerun, and any change to the
// simulator invalidates the whole cache via Version.
//
// The cache is best-effort: a read failure (a corrupt entry, a
// permission error, version skew) degrades to a miss and a fresh
// simulation, and a failed write is returned for the runner to count
// and warn about, never to fail the cell. It is also the record of
// finished cells: a resumed run is served them from here.
type DiskCache struct {
	Dir string
}

// NewDiskCache returns a cache rooted at dir, creating it if needed.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	return &DiskCache{Dir: dir}, nil
}

// contentKey hashes everything that determines a cell's result.
// Supervision-only knobs (the cell deadline) are zeroed out first: they
// cannot change a simulation outcome, so two runs differing only in
// timeout policy must share cache entries. cfg.Reference stays in: a
// reference run must never be served a fast run's entry.
func (r *Runner) contentKey(b workload.Benchmark, cfg *config.Config) string {
	hc := cfg.Clone()
	hc.CellTimeout = 0
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|seed=%d|ops=%d|check=%v|cfg=%+v",
		Version, b.Name, r.Seed, r.ops(b), r.Check, *hc)))
	return hex.EncodeToString(h[:])
}

// ContentKey exposes the cell's content-addressed cache key: the hex
// SHA-256 over (harness Version, benchmark identity, seed, trace
// length, checker attachment, full machine configuration).
func (r *Runner) ContentKey(c Cell) string {
	return r.contentKey(c.Bench, c.config())
}

// CacheStats is a point-in-time snapshot of the runner's cell
// accounting: cells simulated for real (every one of which was a cache
// miss when a cache is attached), cells served from the disk cache,
// entries that existed but failed to decode or validate, and simulated
// cells the cache failed to store.
type CacheStats struct {
	CellsRun         int64 `json:"cells_run"`
	CellsCached      int64 `json:"cells_cached"`
	CacheCorrupt     int64 `json:"cache_corrupt"`
	CacheWriteFailed int64 `json:"cache_write_failed"`
}

// CacheStats returns the runner's current cell accounting. Safe for
// concurrent use; tusd scrapes it for /metrics.
func (r *Runner) CacheStats() CacheStats {
	return CacheStats{
		CellsRun:         r.cellsRun.Load(),
		CellsCached:      r.cellsFromC.Load(),
		CacheCorrupt:     r.cacheCorrupt.Load(),
		CacheWriteFailed: r.cacheWriteFailed.Load(),
	}
}

// cacheEntry is the serialized form of a Result. Stats are stored as
// parallel name/value slices in counter-creation order so the rebuilt
// Set formats identically to a live one.
type cacheEntry struct {
	Version    string           `json:"version"`
	Bench      string           `json:"bench"`
	Mech       config.Mechanism `json:"mech"`
	SB         int              `json:"sb"`
	Cores      int              `json:"cores"`
	Cycles     uint64           `json:"cycles"`
	EDP        float64          `json:"edp"`
	Energy     energy.Breakdown `json:"energy"`
	StatPrefix string           `json:"stat_prefix"`
	StatNames  []string         `json:"stat_names"`
	StatValues []uint64         `json:"stat_values"`
	// Histograms, like counters, are stored in creation order so the
	// rebuilt Set formats identically to a live one.
	HistNames []string             `json:"hist_names,omitempty"`
	HistSnaps []stats.HistSnapshot `json:"hist_snaps,omitempty"`
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.Dir, key+".json")
}

// CacheStatus is the outcome of a cache probe. Corruption still
// degrades to a fresh simulation (a corrupt entry behaves like a miss),
// but the runner counts it and warns: a silently rotting cache
// directory should be visible in CacheStats and tusd's /metrics, not
// invisible.
type CacheStatus int

const (
	// CacheMiss: no entry exists for the key.
	CacheMiss CacheStatus = iota
	// CacheHit: a valid entry was loaded.
	CacheHit
	// CacheCorrupt: an entry exists but is torn, garbage, or fails
	// identity/shape validation; it will be resimulated and rewritten.
	CacheCorrupt
)

// Get loads the cell stored under key, verifying it matches the
// requested (bench, mech, sb) identity. A missing file is CacheMiss;
// an unreadable, undecodable, or identity-mismatched entry is
// CacheCorrupt. Both serve as a miss to the caller.
func (c *DiskCache) Get(key string, b workload.Benchmark, m config.Mechanism, sbSize int) (Result, CacheStatus) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Result{}, CacheMiss
		}
		return Result{}, CacheCorrupt
	}
	// Unmarshal appends into spare capacity: sized past the largest entry
	// (46 counters, 5 histograms), the slices are not regrown as it reads.
	e := cacheEntry{
		StatNames:  make([]string, 0, 64),
		StatValues: make([]uint64, 0, 64),
		HistNames:  make([]string, 0, 8),
		HistSnaps:  make([]stats.HistSnapshot, 0, 8),
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return Result{}, CacheCorrupt
	}
	if e.Version != Version || e.Bench != b.Name || e.Mech != m ||
		e.SB != sbSize || len(e.StatNames) != len(e.StatValues) ||
		len(e.HistNames) != len(e.HistSnaps) || e.Cycles == 0 {
		return Result{}, CacheCorrupt
	}
	st := stats.NewSet(e.StatPrefix)
	for i, name := range e.StatNames {
		st.Counter(name).Add(e.StatValues[i])
	}
	for i, name := range e.HistNames {
		st.MergeHistSnapshot(name, e.HistSnaps[i])
	}
	return Result{
		Bench:  e.Bench,
		Mech:   m,
		SB:     e.SB,
		Cores:  e.Cores,
		Cycles: e.Cycles,
		Stats:  st,
		Energy: e.Energy,
		EDP:    e.EDP,
	}, CacheHit
}

// Put stores res under key. Writes go through a temp file + rename so
// concurrent harness processes never observe a torn entry. A failed
// write leaves no entry and returns its error.
func (c *DiskCache) Put(key string, res Result) error {
	names := res.Stats.Names()
	vals := make([]uint64, len(names))
	for i, n := range names {
		vals[i] = res.Stats.Get(n)
	}
	hnames := res.Stats.HistNames()
	hsnaps := make([]stats.HistSnapshot, len(hnames))
	byName := res.Stats.HistSnapshots()
	for i, n := range hnames {
		hsnaps[i] = byName[n]
	}
	e := cacheEntry{
		Version:    Version,
		Bench:      res.Bench,
		Mech:       res.Mech,
		SB:         res.SB,
		Cores:      res.Cores,
		Cycles:     res.Cycles,
		EDP:        res.EDP,
		Energy:     res.Energy,
		StatPrefix: res.Stats.Prefix(),
		StatNames:  names,
		StatValues: vals,
		HistNames:  hnames,
		HistSnaps:  hsnaps,
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: cache entry %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
