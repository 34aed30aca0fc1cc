// Package workload generates the synthetic benchmark proxies standing
// in for SPEC CPU2017, TensorFlow (BigDataBench), and PARSEC-3.0 (see
// DESIGN.md: the real binaries cannot run here, so each proxy
// reproduces the store-behaviour fingerprint the paper attributes to
// its benchmark — burstiness, store-miss latency class, locality, and
// sharing — with a seeded deterministic generator).
package workload

import (
	"fmt"
	"math/rand"

	"tusim/internal/isa"
)

// Suite identifies the benchmark family.
type Suite int

// Suites.
const (
	SPEC Suite = iota
	TF
	Parsec
)

// String names the suite as the paper does.
func (s Suite) String() string {
	switch s {
	case SPEC:
		return "SPEC"
	case TF:
		return "TF"
	case Parsec:
		return "Parsec"
	}
	return fmt.Sprintf("Suite(%d)", int(s))
}

// Benchmark is one workload proxy.
type Benchmark struct {
	Name  string
	Suite Suite
	// SBBound mirrors the paper's classification (>1% SB-induced
	// stalls on the baseline) and selects the detailed-result set.
	SBBound bool
	// Threads is 1 for SPEC/TF and 16 for Parsec.
	Threads int
	gen     func(seed int64, ops, threads int) [][]isa.MicroOp
}

// Valid reports whether the benchmark carries a generator. A
// zero-value Benchmark (e.g. from an ignored ByName miss) is invalid
// and would panic in Generate; callers can gate on this instead.
func (b Benchmark) Valid() bool { return b.gen != nil }

// Generate produces one trace per thread, ops micro-ops per thread.
func (b Benchmark) Generate(seed int64, ops int) [][]isa.MicroOp {
	return b.gen(seed, ops, b.Threads)
}

// Streams wraps Generate output as isa.Streams.
func (b Benchmark) Streams(seed int64, ops int) []isa.Stream {
	traces := b.Generate(seed, ops)
	out := make([]isa.Stream, len(traces))
	for i, tr := range traces {
		out[i] = isa.NewSliceStream(tr)
	}
	return out
}

// Address-space layout: per-thread private heaps plus one shared
// region for the parallel workloads.
const (
	privBase   = uint64(1) << 32
	privStride = uint64(1) << 28
	sharedBase = uint64(1) << 33
)

func threadBase(t int) uint64 { return privBase + uint64(t)*privStride }

// builder accumulates a trace.
type builder struct {
	ops []isa.MicroOp
	rng *rand.Rand
}

func (b *builder) alu(k isa.Kind, dep int) {
	var d uint16
	if dep > 0 && dep <= len(b.ops) && dep < 65536 {
		d = uint16(dep)
	}
	b.ops = append(b.ops, isa.MicroOp{Kind: k, Dep1: d})
}

func (b *builder) load(addr uint64, size uint8, dep int) int {
	var d uint16
	if dep > 0 && dep <= len(b.ops) && dep < 65536 {
		d = uint16(dep)
	}
	b.ops = append(b.ops, isa.MicroOp{Kind: isa.Load, Addr: addr, Size: size, Dep1: d})
	return len(b.ops) - 1
}

func (b *builder) store(addr uint64, size uint8, dep int) int {
	var d uint16
	if dep > 0 && dep <= len(b.ops) && dep < 65536 {
		d = uint16(dep)
	}
	b.ops = append(b.ops, isa.MicroOp{Kind: isa.Store, Addr: addr, Size: size, Dep1: d})
	return len(b.ops) - 1
}

func (b *builder) fence() { b.ops = append(b.ops, isa.MicroOp{Kind: isa.Fence}) }

// computeRun appends n dependent ALU ops (an ILP-limited chain).
func (b *builder) computeRun(n int, fp bool) {
	for i := 0; i < n; i++ {
		k := isa.IntAdd
		if fp {
			k = isa.FPMul
		}
		dep := 0
		if i > 0 {
			dep = 1
		}
		b.alu(k, dep)
	}
}

// align8 returns an 8-byte aligned offset within a line.
func align8(rng *rand.Rand) uint64 { return uint64(rng.Intn(8)) * 8 }

// burstParams shapes a store-burst workload (the gcc fingerprint).
type burstParams struct {
	burstLines   int // consecutive lines per burst
	storesPerLn  int // stores coalescible per line
	computeGap   int // ALU ops between burst trains
	loadsPerGap  int // loads interleaved in the gap
	regionReuse  int // bursts before moving to a cold region
	irregularPct int // % of burst lines replaced by far-random lines
	// trainLen chains several bursts back to back (separated by a few
	// ops) before the long gap; long trains overflow even a 1K-entry
	// TSOB while a coalescing drain keeps up.
	trainLen int
	// computePerLine interleaves ALU work inside the burst, turning a
	// dense burst into a sustained store phase.
	computePerLine int
	// warm emits a prologue touching every footprint line once, so the
	// measured region (after the harness warm-up cut) runs against an
	// LLC-resident working set instead of first-touch DRAM misses.
	warm bool
}

func (p burstParams) trains() int {
	if p.trainLen < 1 {
		return 1
	}
	return p.trainLen
}

func genBurst(p burstParams, footprint uint64) func(int64, int, int) [][]isa.MicroOp {
	return func(seed int64, ops, threads int) [][]isa.MicroOp {
		out := make([][]isa.MicroOp, threads)
		for t := 0; t < threads; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*7919))
			b := &builder{rng: rng}
			base := threadBase(t)
			region := uint64(0)
			burstsInRegion := 0
			if p.warm {
				for ln := uint64(0); ln < footprint/64 && len(b.ops) < ops*2/5; ln++ {
					b.store(base+ln*64, 8, 0)
				}
			}
			for len(b.ops) < ops {
				// Gap: compute + some loads over recently stored data.
				b.computeRun(p.computeGap, false)
				for i := 0; i < p.loadsPerGap; i++ {
					addr := base + region + uint64(rng.Intn(p.burstLines+1))*64 + align8(rng)
					b.load(addr, 8, 0)
				}
				// A store phase: a long run of fresh lines, each written
				// with a few coalescible stores between short compute
				// snippets (a sustained ~15-25% store mix, as in gcc's
				// RTL construction phases).
				for tr := 0; tr < p.trains(); tr++ {
					lineBase := base + region
					for l := 0; l < p.burstLines; l++ {
						lineAddr := lineBase + uint64(l)*64
						if p.irregularPct > 0 && rng.Intn(100) < p.irregularPct {
							lineAddr = base + (uint64(rng.Uint32())*64)%footprint
						}
						for s := 0; s < p.storesPerLn; s++ {
							b.store(lineAddr+align8(rng), 8, 0)
						}
						if p.computePerLine > 0 {
							b.computeRun(p.computePerLine, false)
						}
					}
					burstsInRegion++
					if burstsInRegion >= p.regionReuse {
						region = (region + uint64(p.burstLines)*64) % footprint
						burstsInRegion = 0
					}
					if tr < p.trains()-1 {
						b.computeRun(30, false)
					}
				}
			}
			out[t] = b.ops[:ops]
		}
		return out
	}
}

// genMLP is the mcf fingerprint that matters for store handling: a
// memory-level-parallelism-bound mix of independent long-latency loads
// and cold stores. When committed stores back up in the SB, dispatch
// stops early and the effective instruction window — and with it the
// load MLP that hides DRAM latency — shrinks; store-wait-free designs
// restore the full window.
func genMLP(loadFoot, storeFoot uint64, loadsPer, storesPer, aluPer int) func(int64, int, int) [][]isa.MicroOp {
	return genMLPRuns(loadFoot, storeFoot, loadsPer, storesPer, aluPer, false)
}

// genMLPRuns is genMLP with optionally consecutive store lines per
// iteration (short runs trip SPB's burst detector into prefetching
// whole pages of useless lines — the paper's TensorFlow observation).
func genMLPRuns(loadFoot, storeFoot uint64, loadsPer, storesPer, aluPer int, consecutive bool) func(int64, int, int) [][]isa.MicroOp {
	return genMLPShared(loadFoot, storeFoot, loadsPer, storesPer, aluPer, consecutive, 0, 0)
}

// genMLPShared adds cross-thread sharing to the MLP mix: sharedPct
// percent of memory operations target a region all threads write,
// exercising the coherence protocol — and, under TUS, the
// authorization unit's lex-order decisions.
func genMLPShared(loadFoot, storeFoot uint64, loadsPer, storesPer, aluPer int, consecutive bool, sharedPct int, sharedLines uint64) func(int64, int, int) [][]isa.MicroOp {
	return func(seed int64, ops, threads int) [][]isa.MicroOp {
		out := make([][]isa.MicroOp, threads)
		for t := 0; t < threads; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*104729))
			b := &builder{rng: rng}
			base := threadBase(t)
			for len(b.ops) < ops {
				for l := 0; l < loadsPer; l++ {
					addr := base + (uint64(rng.Uint32())*64)%loadFoot
					if sharedPct > 0 && rng.Intn(100) < sharedPct {
						addr = sharedBase + (uint64(rng.Uint32())%sharedLines)*64
					}
					b.load(addr+align8(rng), 8, 0)
				}
				b.computeRun(aluPer, false)
				runBase := base + (1 << 27) + (uint64(rng.Uint32())*64)%storeFoot
				for st := 0; st < storesPer; st++ {
					addr := runBase
					if consecutive {
						addr += uint64(st) * 64
					} else if st > 0 {
						addr = base + (1 << 27) + (uint64(rng.Uint32())*64)%storeFoot
					}
					if sharedPct > 0 && rng.Intn(100) < sharedPct {
						addr = sharedBase + (uint64(rng.Uint32())%sharedLines)*64
					}
					b.store(addr+align8(rng), 8, 0)
				}
			}
			out[t] = b.ops[:ops]
		}
		return out
	}
}

// genCompute is the bwaves fingerprint: FP chains with regular strided
// memory, low store density, no SB pressure.
func genCompute(strideLines int, storeEvery int) func(int64, int, int) [][]isa.MicroOp {
	return func(seed int64, ops, threads int) [][]isa.MicroOp {
		out := make([][]isa.MicroOp, threads)
		for t := 0; t < threads; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*31337))
			b := &builder{rng: rng}
			base := threadBase(t)
			idx := uint64(0)
			n := 0
			for len(b.ops) < ops {
				addr := base + idx*uint64(strideLines)*64
				ld := b.load(addr, 8, 0)
				b.computeRun(6, true)
				b.alu(isa.FPAdd, len(b.ops)-ld)
				n++
				if storeEvery > 0 && n%storeEvery == 0 {
					b.store(addr+8, 8, 1)
				}
				idx = (idx + 1) % (1 << 14)
			}
			out[t] = b.ops[:ops]
		}
		return out
	}
}

// genLoadHeavy is the xalancbmk/cactuBSSN fingerprint: mostly loads
// with mixed locality and sparse stores.
func genLoadHeavy(footprint uint64, hotPct int, storePct int) func(int64, int, int) [][]isa.MicroOp {
	return func(seed int64, ops, threads int) [][]isa.MicroOp {
		out := make([][]isa.MicroOp, threads)
		for t := 0; t < threads; t++ {
			rng := rand.New(rand.NewSource(seed + int64(t)*7))
			b := &builder{rng: rng}
			base := threadBase(t)
			hot := uint64(32 << 10) // 32KB hot set
			for len(b.ops) < ops {
				var addr uint64
				if rng.Intn(100) < hotPct {
					addr = base + (uint64(rng.Uint32())*8)%hot
				} else {
					addr = base + (uint64(rng.Uint32())*64)%footprint
				}
				if rng.Intn(100) < storePct {
					b.store(addr&^7, 8, 0)
				} else {
					b.load(addr&^7, 8, 0)
				}
				b.computeRun(2, false)
			}
			out[t] = b.ops[:ops]
		}
		return out
	}
}
