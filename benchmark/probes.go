package main

import (
	"fmt"
	"runtime"
	"time"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/harness"
	"tusim/internal/lmap"
	"tusim/internal/memsys"
	"tusim/internal/stats"
)

// The probes time single layers through their public functions, the way
// the repo's own micro-benchmarks do, so that a layer's cost per
// operation can be multiplied by the exact counts a workload reports.
// They do not depend on the workload; every traced run takes them, on
// the machine and at the moment its other numbers were taken.

const probeRounds = 5

// timeOps runs op n times per round and returns each round's host
// nanoseconds per operation and allocations per operation.
func timeOps(n int, op func(i int)) (ns, allocs []float64) {
	for r := 0; r < probeRounds; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return ns, allocs
}

// usPerOp converts timeOps' nanoseconds per operation to microseconds.
func usPerOp(ns []float64) []float64 {
	for i := range ns {
		ns[i] /= 1e3
	}
	return ns
}

// probe times op under a span and reports the median of the rounds.
func (c *runCtx) probe(metric string, n int, op func(i int)) (allocs []float64) {
	sp := c.tr.begin(metric, c.name+"/probe", noSpan, 0)
	ns, allocs := timeOps(n, op)
	c.tr.end(sp)
	c.setSummary(metric, ns)
	return allocs
}

// memRig wires private hierarchies to one directory, as system.New does.
type memRig struct {
	cfg *config.Config
	q   *event.Queue
	ps  []*memsys.Private
}

func newMemRig(cores int) *memRig {
	cfg := config.Default().WithCores(cores)
	q := event.NewQueue()
	dram := memsys.NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight)
	dir := memsys.NewDirectory(cfg, q, memsys.NewMemory(), dram, stats.NewSet("sys"))
	ps := make([]*memsys.Private, cores)
	for i := range ps {
		ps[i] = memsys.NewPrivate(i, cfg, q, dir, stats.NewSet("p"))
	}
	dir.Attach(ps)
	return &memRig{cfg: cfg, q: q, ps: ps}
}

// probeFailure stops a probe whose rig misbehaves: the numbers would
// describe something other than the operation they are named after.
type probeFailure string

func mustProbe(ok bool, what string) {
	if !ok {
		panic(probeFailure(what))
	}
}

// runProbes takes every layer probe. A misbehaving rig is a failed
// operation, not a crash.
func runProbes(c *runCtx) {
	c.guard(func() {
		probeEvent(c)
		probeLmap(c)
		probeMemsys(c)
		probeSupervise(c)
	})
}

func probeEvent(c *runCtx) {
	const n = 200_000
	fired := 0
	fn := func(a, b uint64) { fired++ }
	// Near: the wheel, delta 1..511. Schedule and fire are both counted.
	q := event.NewQueue()
	c.probe("event.near_ns_per_op", n, func(i int) {
		q.After2(uint64(1+i%511), fn, 1, 2)
		if q.Len() >= 1024 {
			q.Drain(1 << 62)
		}
	})
	q.Drain(1 << 62)
	// Due now: delta 0, fired by the next RunDue.
	q = event.NewQueue()
	c.probe("event.due_now_ns_per_op", n, func(i int) {
		q.After2(0, fn, 1, 2)
		if q.Len() >= 64 {
			q.RunDue()
		}
	})
	q.RunDue()
	// Far: beyond the wheel's 512-cycle horizon.
	q = event.NewQueue()
	c.probe("event.far_ns_per_op", n, func(i int) {
		q.After2(uint64(512+i%4096), fn, 1, 2)
		if q.Len() >= 1024 {
			q.Drain(1 << 62)
		}
	})
	q.Drain(1 << 62)
	mustProbe(fired == 3*probeRounds*n, fmt.Sprintf("event probes fired %d of %d events", fired, 3*probeRounds*n))
}

func probeLmap(c *runCtx) {
	type entry struct{ id uint64 }
	const n = 1_000_000
	m := lmap.New[entry]()
	for i := uint64(0); i < 1024; i++ {
		m.Put(i<<6, &entry{id: i})
	}
	c.probe("lmap.get_ns", n, func(i int) {
		mustProbe(m.Get(uint64(i%1024)<<6) != nil, "lmap.Get missed a resident key")
	})
	churn, pool := lmap.New[entry](), lmap.NewPool[entry]()
	c.probe("lmap.churn_ns", n, func(i int) {
		k := uint64(i%512) << 6
		if e := churn.Get(k); e != nil {
			churn.Delete(k)
			pool.Put(e)
		} else {
			churn.Put(k, pool.Get())
		}
	})
}

func probeMemsys(c *runCtx) {
	// L1 load hit: the hottest memsys operation in a simulation.
	r := newMemRig(1)
	p := r.ps[0]
	got := 0
	p.LoadReply = func(seq, data uint64) { got++ }
	const hitLine = 0x4000
	mustProbe(p.LoadSeq(hitLine, 8, 0), "warm load did not start")
	r.q.Drain(r.q.Now() + 1_000_000)
	mustProbe(got == 1, "warm load never completed")
	const hits = 200_000
	c.probe("memsys.l1_load_hit_ns", hits, func(i int) {
		mustProbe(p.LoadSeq(hitLine+uint64(i%8)*8, 8, uint64(i)), "hit load did not start")
		r.q.Drain(r.q.Now() + 64)
	})
	mustProbe(got == 1+probeRounds*hits, "hit loads did not all complete")

	// L1 store hit into a line held writable: the baseline drain path.
	r = newMemRig(1)
	p = r.ps[0]
	const storeLine = 0x8000
	granted := false
	mustProbe(p.RequestWritable(storeLine, false, true, func(ok bool) { granted = ok }), "warm request did not start")
	r.q.Drain(r.q.Now() + 1_000_000)
	mustProbe(granted, "warm request never granted")
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	c.probe("memsys.l1_store_hit_ns", hits, func(i int) {
		mustProbe(p.StoreVisible(storeLine+uint64(i%8)*8, buf), "store missed a held-writable line")
	})

	// Load miss: a footprint of four L2s, so every load takes the MSHR ->
	// directory -> LLC/DRAM fill round trip.
	r = newMemRig(1)
	p = r.ps[0]
	got = 0
	p.LoadReply = func(seq, data uint64) { got++ }
	lines := 4 * r.cfg.L2.SizeBytes / r.cfg.L2.LineBytes
	const misses = 20_000
	allocs := c.probe("memsys.load_miss_ns", misses, func(i int) {
		mustProbe(p.LoadSeq(uint64(i%lines)<<6+0x100000, 8, uint64(i)), "miss load did not start")
		r.q.Drain(r.q.Now() + 4096)
	})
	mustProbe(got == probeRounds*misses, "miss loads did not all complete")
	c.setSummary("memsys.load_miss_allocs", allocs)

	// Directory probe: two cores take write ownership of one line in
	// turn, so every request invalidates the other copy.
	r = newMemRig(2)
	const probeLine = 0xC000
	owned := false
	grant := func(ok bool) { owned = ok }
	allocs = c.probe("memsys.dir_probe_ns", misses, func(i int) {
		owned = false
		mustProbe(r.ps[i%2].RequestWritable(probeLine, false, true, grant), "ownership request did not start")
		r.q.Drain(r.q.Now() + 1_000_000)
		mustProbe(owned, "ownership never granted")
	})
	c.setSummary("memsys.dir_probe_allocs", allocs)
}

func probeSupervise(c *runCtx) {
	sup := harness.NewSupervisor(0)
	const n = 2000
	keys := make([]string, n*probeRounds)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe/%d", i)
	}
	next := 0
	noop := func() error { return nil }
	sp := c.tr.begin("supervise.Do", c.name+"/probe", noSpan, 0)
	ns, _ := timeOps(n, func(int) {
		mustProbe(sup.Do(keys[next], "st", noop) == nil, "Supervisor.Do failed a no-op")
		next++
	})
	c.tr.end(sp)
	c.setSummary("supervise.do_overhead_us", usPerOp(ns))
}
