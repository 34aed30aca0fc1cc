package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"tusim/internal/stats"
)

// EndpointStats is one logical endpoint's latency/error summary. The
// quantiles are stats.Histogram power-of-two upper bounds in
// microseconds — conservative SLO readings, directly comparable across
// runs because bucket bounds are fixed.
type EndpointStats struct {
	Endpoint  string             `json:"endpoint"`
	Errors    int64              `json:"errors"`
	LatencyUS stats.QuantSummary `json:"latency_us"`
}

// Report is tusload's run record: offered-load parameters, invariant
// outcomes, and per-endpoint latency summaries.
type Report struct {
	HarnessVersion string  `json:"harness_version"`
	Seed           uint64  `json:"seed"`
	Mode           string  `json:"mode"` // "closed" or "open"
	Concurrency    int     `json:"concurrency"`
	RatePerSec     float64 `json:"rate_per_sec,omitempty"`
	Figs           []int   `json:"figs"`
	// ExpectedCells is the registry cell union the exactly-once check
	// gated on (-1 when disabled).
	ExpectedCells  int             `json:"expected_cells"`
	Seconds        float64         `json:"seconds"`
	Requests       int64           `json:"requests"`
	Errors         int64           `json:"errors"`
	MetricsScrapes int             `json:"metrics_scrapes"`
	Violations     []string        `json:"violations,omitempty"`
	Endpoints      []EndpointStats `json:"endpoints"`
}

// WriteFile emits the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteSummary prints the human-readable run summary.
func (r Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "tusload %s: mode=%s concurrency=%d", r.HarnessVersion, r.Mode, r.Concurrency)
	if r.RatePerSec > 0 {
		fmt.Fprintf(w, " rate=%.1f/s", r.RatePerSec)
	}
	fmt.Fprintf(w, " figs=%v seed=%d\n", r.Figs, r.Seed)
	fmt.Fprintf(w, "  %d requests in %.2fs, %d errors, %d metrics scrapes, expected cells %d\n",
		r.Requests, r.Seconds, r.Errors, r.MetricsScrapes, r.ExpectedCells)
	eps := append([]EndpointStats(nil), r.Endpoints...)
	sort.Slice(eps, func(i, j int) bool { return eps[i].Endpoint < eps[j].Endpoint })
	for _, e := range eps {
		l := e.LatencyUS
		fmt.Fprintf(w, "  %-12s n=%-5d err=%-3d p50<=%-8s p95<=%-8s p99<=%-8s max=%s\n",
			e.Endpoint, l.Count, e.Errors, us(l.P50), us(l.P95), us(l.P99), us(l.Max))
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, "  INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(w, "    - %s\n", v)
		}
	} else {
		fmt.Fprintf(w, "  zero invariant violations\n")
	}
}

// us renders a microsecond figure compactly.
func us(v uint64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fs", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fms", float64(v)/1e3)
	}
	return fmt.Sprintf("%dus", v)
}
