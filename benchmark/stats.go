package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// nameRE is the shape every workload and metric name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s can name a workload or a metric.
func validName(s string) bool { return nameRE.MatchString(s) }

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be more than an anecdote.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an
// ascending sample by the nearest-rank rule: the smallest sample with
// at least p percent of the samples at or below it. It is always one of
// the samples, never an interpolation or a bucket edge.
func nearestRank(asc []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// percentile is nearestRank with the sample-count rule enforced: it is
// an error to ask for a percentile with fewer than minBeyond samples
// strictly beyond its rank.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100]", p)
	}
	asc := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if beyond := len(asc) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(asc), beyond, minBeyond)
	}
	return nearestRank(asc, p), nil
}

// summary is a median with the quartiles and count printed beside it.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of xs. The median of an
// even count is the mean of the two middle samples; the quartiles are
// the first and third cut points of Python's
// statistics.quantiles(xs, n=4), which is what the acceptance check
// computes spreads with.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	asc := sorted(xs)
	s := summary{N: n, Median: asc[n/2]}
	if n%2 == 0 {
		s.Median = (asc[n/2-1] + asc[n/2]) / 2
	}
	s.Q1, s.Q3 = s.Median, s.Median
	if n >= 2 {
		s.Q1, s.Q3 = quartile(asc, 1), quartile(asc, 3)
	}
	return s
}

// quartile is cut point i of 4 by the exclusive method: position
// i*(n+1)/4 in the 1-based ascending sample, interpolated between the
// neighbours, with the neighbour index clamped to the sample as Python
// clamps it (so tiny samples extrapolate exactly as Python does).
func quartile(asc []float64, i int) float64 {
	n := len(asc)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(i*(n+1) - j*4)
	return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
}

// cellwise summarizes repetitions of a list of cells, reps[r][i] being
// cell i's time in repetition r: the median (and quartiles) across
// repetitions of each cell, summed over the cells. A disturbance that
// hits part of one repetition is voted out cell by cell, where the
// median of whole repetitions would carry all of it; with two
// repetitions the two are the same number.
func cellwise(reps [][]float64) summary {
	out := summary{N: len(reps)}
	if len(reps) == 0 {
		return out
	}
	xs := make([]float64, len(reps))
	for i := range reps[0] {
		for r := range reps {
			xs[r] = reps[r][i]
		}
		s := summarize(xs)
		out.Median += s.Median
		out.Q1 += s.Q1
		out.Q3 += s.Q3
	}
	return out
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }
