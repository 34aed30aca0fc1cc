// Package parmap is the one worker pool, a leaf below every layer that
// fans work out.
package parmap

import (
	"context"
	"sync"
	"sync/atomic"
)

// Parmap is the one worker pool (the harness's, tuscheck's and the
// explorer's): it runs f(0..n-1) on up to workers goroutines (the
// caller's included, so one worker is a plain serial loop) and returns
// the lowest failing index with its error, or (-1, nil) on a clean
// sweep. Indices are claimed in order and claiming stops at the first
// failure, so every index below a failing one has run and the result is
// the serial sweep's at any worker count. A done ctx also stops the
// claiming, and then wins: (-1, ctx.Err()).
func Parmap(ctx context.Context, workers, n int, f func(int) error) (int, error) {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	claiming, stop := context.WithCancel(ctx)
	defer stop()
	var next atomic.Int64
	work := func() {
		for claiming.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = f(i); errs[i] != nil {
				stop()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
