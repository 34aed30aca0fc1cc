package harness

import (
	"fmt"
	"os"
	"testing"

	"tusim/internal/config"
	"tusim/internal/workload"
)

// TestCalibration prints the full single-threaded speedup/stall table
// (the working view used while calibrating the workload proxies):
//
//	CALIB=1 go test ./internal/harness -run TestCalibration -v
//
// It is skipped unless CALIB=1 to keep the default test run fast.
func TestCalibration(t *testing.T) {
	if os.Getenv("CALIB") == "" {
		t.Skip("set CALIB=1 to run the calibration table")
	}
	r := NewRunner()
	r.Ops = 150000
	fmt.Printf("%-14s %6s", "bench", "stall")
	for _, m := range config.Mechanisms {
		fmt.Printf(" %8s", m)
	}
	fmt.Println()
	for _, b := range workload.All() {
		if b.Threads != 1 {
			continue
		}
		base, err := r.Run(b, config.Baseline, 114)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%-14s %5.1f%%", b.Name, base.SBStallPct())
		for _, m := range config.Mechanisms {
			res, err := r.Run(b, m, 114)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf(" %+7.1f%%", 100*(Speedup(res, base)-1))
		}
		fmt.Println()
	}
}
