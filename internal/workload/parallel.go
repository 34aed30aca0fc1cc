package workload

import (
	"math/rand"

	"tusim/internal/isa"
)

// parallelParams shapes the PARSEC proxies: per-thread work plus a
// shared region that exercises the coherence protocol and, under TUS,
// the authorization unit (external requests to unauthorized lines).
type parallelParams struct {
	burst       burstParams
	sharedPct   int    // % of stores targeting the shared region
	sharedLines uint64 // size of the shared region in lines
	chasePct    int    // % of iterations doing a cold pointer-chase store
	interleaved bool   // alternate A,B,A,B store targets (WCB cycles)
	reusePct    int    // % of loads re-reading recently stored lines
	fenceEvery  int    // ops between fences (0 = none)
	footprint   uint64
}

func genParallel(p parallelParams) func(int64, int, int) [][]isa.MicroOp {
	return func(seed int64, ops, threads int) [][]isa.MicroOp {
		out := make([][]isa.MicroOp, threads)
		for t := 0; t < threads; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*15485863))
			b := &builder{rng: rng}
			base := threadBase(t)
			region := uint64(0)
			lastFence := 0
			for len(b.ops) < ops {
				// Compute gap with reuse loads.
				b.computeRun(p.burst.computeGap, false)
				for i := 0; i < p.burst.loadsPerGap; i++ {
					var addr uint64
					if rng.Intn(100) < p.reusePct {
						// Re-read the first word of a recently stored
						// line (consumers read what producers wrote).
						addr = base + region + uint64(rng.Intn(p.burst.burstLines+1))*64
					} else if rng.Intn(100) < p.sharedPct {
						addr = sharedBase + (uint64(rng.Uint32())%p.sharedLines)*64 + align8(rng)
					} else {
						addr = base + (uint64(rng.Uint32())*64)%p.footprint + align8(rng)
					}
					b.load(addr, 8, 0)
				}
				// Store phase.
				if p.chasePct > 0 && rng.Intn(100) < p.chasePct {
					// Long-latency store (dedup fingerprint).
					addr := base + (uint64(rng.Uint32())*64)%p.footprint
					b.store(addr+align8(rng), 8, 0)
				}
				lineBase := base + region
				for l := 0; l < p.burst.burstLines; l++ {
					lineAddr := lineBase + uint64(l)*64
					if p.interleaved && l%2 == 1 {
						// Alternate between two line neighbourhoods so
						// consecutive stores hit non-consecutive lines
						// (ferret's interleaved bursts -> WCB cycles).
						lineAddr = lineBase + uint64(p.burst.burstLines+l)*64
					}
					if rng.Intn(100) < p.sharedPct {
						lineAddr = sharedBase + (uint64(rng.Uint32())%p.sharedLines)*64
					}
					for s := 0; s < p.burst.storesPerLn; s++ {
						off := align8(rng)
						if s == 0 {
							off = 0 // the word reuse loads will read
						}
						b.store(lineAddr+off, 8, 0)
					}
					if p.burst.computePerLine > 0 {
						b.computeRun(p.burst.computePerLine, false)
					}
				}
				region = (region + uint64(p.burst.burstLines)*128) % p.footprint
				if p.fenceEvery > 0 && len(b.ops)-lastFence >= p.fenceEvery {
					b.fence()
					lastFence = len(b.ops)
				}
			}
			out[t] = b.ops[:ops]
		}
		return out
	}
}

// benchmarks is the full registry. SB-bound flags mirror the paper's
// detailed-result selections (Figs. 9-11 name gcc inputs, mcf, bw2,
// cactuBSSN, xalancbmk; Fig. 12 names dedup, ferret, streamcluster).
var benchmarks = []Benchmark{
	// SPEC CPU2017 proxies (store-burst family: five gcc input sets of
	// increasing burst pressure and irregularity).
	{Name: "502.gcc1", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 48, storesPerLn: 2, computeGap: 350, loadsPerGap: 12, regionReuse: 1, irregularPct: 3, computePerLine: 11}, 3<<20)},
	{Name: "502.gcc2", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 80, storesPerLn: 2, computeGap: 900, loadsPerGap: 14, regionReuse: 1, irregularPct: 5, computePerLine: 10}, 3<<20)},
	{Name: "502.gcc3", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 128, storesPerLn: 3, computeGap: 1500, loadsPerGap: 20, regionReuse: 1, irregularPct: 6, computePerLine: 13}, 3<<20)},
	{Name: "502.gcc4", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 192, storesPerLn: 3, computeGap: 1800, loadsPerGap: 24, regionReuse: 1, irregularPct: 8, computePerLine: 12}, 3<<20)},
	{Name: "502.gcc5", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 256, storesPerLn: 4, computeGap: 2000, loadsPerGap: 30, regionReuse: 1, irregularPct: 5, computePerLine: 15}, 4<<20)},
	// Long-latency store misses dominate (LLC-exceeding footprint).
	{Name: "505.mcf", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genMLP(48<<20, 48<<20, 2, 3, 10)},
	{Name: "520.omnetpp", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 12, storesPerLn: 1, computeGap: 70, loadsPerGap: 6, regionReuse: 1, irregularPct: 30, computePerLine: 2}, 4<<20)},
	{Name: "557.xz", Suite: SPEC, SBBound: true, Threads: 1,
		gen: genBurst(burstParams{burstLines: 32, storesPerLn: 2, computeGap: 360, loadsPerGap: 10, regionReuse: 1, irregularPct: 8, computePerLine: 6}, 2<<20)},
	// Load-bound / compute-bound (not SB-bound; the "no harm" set).
	{Name: "503.bw2", Suite: SPEC, SBBound: false, Threads: 1,
		gen: genCompute(1, 8)},
	{Name: "507.cactuBSSN", Suite: SPEC, SBBound: false, Threads: 1,
		gen: genLoadHeavy(32<<20, 40, 4)},
	{Name: "523.xalancbmk", Suite: SPEC, SBBound: false, Threads: 1,
		gen: genLoadHeavy(16<<20, 65, 6)},
	// TensorFlow (BigDataBench) kernel proxies.
	{Name: "tf.matmul", Suite: TF, SBBound: true, Threads: 1,
		gen: genMLPRuns(8<<20, 8<<20, 2, 4, 14, true)},
	{Name: "tf.conv", Suite: TF, SBBound: true, Threads: 1,
		gen: genMLPRuns(6<<20, 6<<20, 2, 4, 12, true)},
	{Name: "tf.embed", Suite: TF, SBBound: true, Threads: 1,
		gen: genMLP(24<<20, 24<<20, 2, 3, 8)},

	// PARSEC-3.0 proxies (16 threads).
	{Name: "dedup", Suite: Parsec, SBBound: true, Threads: 16,
		gen: genMLPShared(1<<20, 24<<20, 1, 2, 14, false, 4, 4096)},
	{Name: "ferret", Suite: Parsec, SBBound: true, Threads: 16,
		gen: genMLPShared(1<<20, 8<<20, 1, 3, 16, true, 3, 2048)},
	{Name: "streamcluster", Suite: Parsec, SBBound: true, Threads: 16,
		gen: genParallel(parallelParams{burst: burstParams{burstLines: 48, storesPerLn: 2, computeGap: 300, loadsPerGap: 8, computePerLine: 8}, sharedPct: 3, sharedLines: 2048, reusePct: 60, footprint: 3 << 20})},
	{Name: "canneal", Suite: Parsec, SBBound: true, Threads: 16,
		gen: genParallel(parallelParams{burst: burstParams{burstLines: 3, storesPerLn: 1, computeGap: 40, loadsPerGap: 8}, sharedPct: 20, sharedLines: 8192, chasePct: 30, reusePct: 10, footprint: 8 << 20})},
	{Name: "fluidanimate", Suite: Parsec, SBBound: true, Threads: 16,
		gen: genParallel(parallelParams{burst: burstParams{burstLines: 24, storesPerLn: 2, computeGap: 200, loadsPerGap: 7, computePerLine: 8}, sharedPct: 6, sharedLines: 4096, reusePct: 30, fenceEvery: 4000, footprint: 3 << 20})},
	{Name: "blackscholes", Suite: Parsec, SBBound: false, Threads: 16,
		gen: genParallel(parallelParams{burst: burstParams{burstLines: 2, storesPerLn: 1, computeGap: 48, loadsPerGap: 4}, sharedPct: 1, sharedLines: 512, reusePct: 40, footprint: 4 << 20})},
	{Name: "swaptions", Suite: Parsec, SBBound: false, Threads: 16,
		gen: genParallel(parallelParams{burst: burstParams{burstLines: 4, storesPerLn: 1, computeGap: 40, loadsPerGap: 5}, sharedPct: 2, sharedLines: 1024, reusePct: 35, footprint: 4 << 20})},
}

// All returns every benchmark proxy.
func All() []Benchmark { return benchmarks }

// BySuite filters the registry.
func BySuite(s Suite) []Benchmark {
	var out []Benchmark
	for _, b := range benchmarks {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// SBBound returns the single-threaded SB-bound set (the paper's
// detailed-evaluation selection).
func SBBound() []Benchmark {
	var out []Benchmark
	for _, b := range benchmarks {
		if b.Threads == 1 && b.SBBound {
			out = append(out, b)
		}
	}
	return out
}

// ByName looks a benchmark up; ok=false when unknown.
func ByName(name string) (Benchmark, bool) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}
