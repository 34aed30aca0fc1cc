package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tusim/internal/harness"
	"tusim/internal/stats"
)

// handleMetrics exposes operational counters in the Prometheus text
// exposition format, hand-rolled over the repo's own stats.Histogram so
// the server stays dependency-free. Series:
//
//	tusd_info{harness_version="..."} 1
//	tusd_uptime_seconds
//	tusd_jobs_inflight
//	tusd_jobs_completed_total{kind="...",status="..."}
//	tusd_coalesced_total
//	tusd_cells_run_total / tusd_cells_cached_total / tusd_cache_corrupt_total
//	tusd_cache_write_failed_total
//	tusd_cell_seconds_bucket{le="..."} / _sum / _count
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP tusd_info Build/identity info for the tusd daemon.\n")
	fmt.Fprintf(&b, "# TYPE tusd_info gauge\n")
	fmt.Fprintf(&b, "tusd_info{harness_version=%q} 1\n", harness.Version)

	fmt.Fprintf(&b, "# HELP tusd_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(&b, "# TYPE tusd_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "tusd_uptime_seconds %s\n", promFloat(time.Since(s.started).Seconds()))

	fmt.Fprintf(&b, "# HELP tusd_jobs_inflight Jobs currently queued or running.\n")
	fmt.Fprintf(&b, "# TYPE tusd_jobs_inflight gauge\n")
	fmt.Fprintf(&b, "tusd_jobs_inflight %d\n", s.jobsInflight.Load())

	s.mu.Lock()
	keys := make([][2]string, 0, len(s.jobsCompleted))
	for k := range s.jobsCompleted {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(&b, "# HELP tusd_jobs_completed_total Terminal jobs by kind and final status.\n")
	fmt.Fprintf(&b, "# TYPE tusd_jobs_completed_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "tusd_jobs_completed_total{kind=%q,status=%q} %d\n", k[0], k[1], s.jobsCompleted[k])
	}
	s.mu.Unlock()

	fmt.Fprintf(&b, "# HELP tusd_coalesced_total Requests coalesced onto an already in-flight identical job.\n")
	fmt.Fprintf(&b, "# TYPE tusd_coalesced_total counter\n")
	fmt.Fprintf(&b, "tusd_coalesced_total %d\n", s.coalescedN.Load())

	cs := s.r.CacheStats()
	fmt.Fprintf(&b, "# HELP tusd_cells_run_total Simulation cells freshly executed (cache misses).\n")
	fmt.Fprintf(&b, "# TYPE tusd_cells_run_total counter\n")
	fmt.Fprintf(&b, "tusd_cells_run_total %d\n", cs.CellsRun)
	fmt.Fprintf(&b, "# HELP tusd_cells_cached_total Simulation cells served from the content-addressed disk cache.\n")
	fmt.Fprintf(&b, "# TYPE tusd_cells_cached_total counter\n")
	fmt.Fprintf(&b, "tusd_cells_cached_total %d\n", cs.CellsCached)
	fmt.Fprintf(&b, "# HELP tusd_cache_corrupt_total Disk-cache entries that failed to decode and were resimulated.\n")
	fmt.Fprintf(&b, "# TYPE tusd_cache_corrupt_total counter\n")
	fmt.Fprintf(&b, "tusd_cache_corrupt_total %d\n", cs.CacheCorrupt)
	fmt.Fprintf(&b, "# HELP tusd_cache_write_failed_total Simulated cells the disk cache failed to store.\n")
	fmt.Fprintf(&b, "# TYPE tusd_cache_write_failed_total counter\n")
	fmt.Fprintf(&b, "tusd_cache_write_failed_total %d\n", cs.CacheWriteFailed)

	writeHistMetric(&b, "tusd_cell_seconds",
		"Wall-clock latency of freshly simulated cells, in seconds.",
		s.cellHist.Snapshot(), 1e6) // samples are microseconds

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// writeHistMetric renders one stats.Histogram as a Prometheus
// cumulative histogram. scale divides the raw sample unit into the
// exported unit (1e6 for µs samples exported as seconds). Empty
// power-of-two buckets are elided (Prometheus histograms permit sparse
// bucket sets as long as they stay cumulative and end in +Inf).
func writeHistMetric(b *strings.Builder, name, help string, snap stats.HistSnapshot, scale float64) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, c := range snap.Buckets {
		cum += c
		if c == 0 {
			continue
		}
		le := "+Inf"
		if i < stats.HistBuckets-1 {
			le = promFloat(float64(stats.BucketUpper(i)) / scale)
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(b, "%s_sum %s\n", name, promFloat(float64(snap.Sum)/scale))
	fmt.Fprintf(b, "%s_count %d\n", name, snap.Count)
}

// promFloat formats a float the way Prometheus expects (no exponent
// surprises for the common cases, NaN/Inf spelled out).
func promFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
