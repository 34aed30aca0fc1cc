package loadgen

import (
	"fmt"
	"io"
	"sort"
)

// OpCount is one operation's request and error tally: the seven mixed
// ops plus the sweeps' figure-cold/figure-warm and the metrics scrapes.
type OpCount struct {
	Name     string
	Requests int64
	Errors   int64
}

// Report is what a checker has to say about a run: what it sent and
// which invariants broke.
type Report struct {
	Ops        []OpCount // by name
	Scrapes    int
	Violations []string
}

// Report snapshots the run so far.
func (l *Loader) Report() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := Report{Scrapes: l.scrapes, Violations: append([]string(nil), l.violations...)}
	for _, c := range l.counts {
		r.Ops = append(r.Ops, *c)
	}
	sort.Slice(r.Ops, func(i, j int) bool { return r.Ops[i].Name < r.Ops[j].Name })
	return r
}

// WriteSummary prints the human-readable run summary.
func (r Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "tusload: %d metrics scrapes; requests and errors per op:\n", r.Scrapes)
	for _, c := range r.Ops {
		fmt.Fprintf(w, "  %-12s n=%-5d err=%d\n", c.Name, c.Requests, c.Errors)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  zero invariant violations\n")
		return
	}
	fmt.Fprintf(w, "  INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    - %s\n", v)
	}
}
