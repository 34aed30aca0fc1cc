// Package system assembles a complete simulated machine: cores,
// private cache hierarchies, prefetchers, the directory/LLC, DRAM, and
// the selected store-handling mechanism, all driven by one event queue.
package system

import (
	"context"
	"fmt"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/mech"
	"tusim/internal/memsys"
	"tusim/internal/prefetch"
	"tusim/internal/stats"
	"tusim/internal/trace"
	"tusim/internal/tus"
)

// Auditor walks the machine's global state and reports the first
// invariant violation it finds (nil when everything is consistent).
// The audit package implements this; system only defines the interface
// so the dependency points outward.
type Auditor interface {
	Audit(cycle uint64) *faults.ProtocolError
}

// Observer receives the architectural event stream (the TSO checker
// implements this; a nil observer costs nothing).
type Observer interface {
	// StoreExecuted fires when a store's data becomes forwardable.
	StoreExecuted(core int, seq, addr uint64, size uint8, value [8]byte)
	// StoreCommitted fires when a store commits, with its final data.
	StoreCommitted(core int, seq, addr uint64, size uint8, value [8]byte)
	// StoreVisible fires when bytes become globally visible.
	StoreVisible(core int, cycle uint64, line uint64, mask memsys.Mask, data *memsys.LineData)
	// LoadBound fires when a load's value binds.
	LoadBound(core int, cycle uint64, seq, addr uint64, size uint8, value [8]byte)
}

// System is one simulated machine.
type System struct {
	Cfg   *config.Config
	Q     *event.Queue
	Mem   *memsys.Memory
	Dir   *memsys.Directory
	Cores []*cpu.Core
	Privs []*memsys.Private
	Mechs []cpu.DrainMechanism

	SysStats  *stats.Set
	CoreStats []*stats.Set
	Cycles    uint64
	observer  Observer
	tracer    *trace.Tracer
	dram      *memsys.DRAM
	faults    *faults.Injector
	auditor   Auditor
	auditFn   event.Func2 // auditTick, bound once by SetAuditor
	auditErr  *faults.ProtocolError
	ctx       context.Context // polled by Run; nil never stops it
	skipped   uint64          // cycles Run jumped over (see skip)

	// WarmupOps discards statistics until this many micro-ops have
	// committed machine-wide (the paper warms for 200M instructions
	// before its 2B-instruction measurement windows). Cycles and all
	// counters then cover only the post-warmup region.
	WarmupOps uint64
	warmCycle uint64
	warmed    bool
}

// reference makes New build every machine as config.Reference would;
// only tests set it (export_test.go).
var reference bool

// New builds a machine running one micro-op stream per core.
// len(streams) must equal cfg.Cores.
func New(cfg *config.Config, streams []isa.Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reference && !cfg.Reference {
		ref := *cfg
		ref.Reference = true
		cfg = &ref
	}
	if len(streams) != cfg.Cores {
		return nil, fmt.Errorf("system: %d streams for %d cores", len(streams), cfg.Cores)
	}
	s := &System{
		Cfg:      cfg,
		Q:        event.NewQueueRef(cfg.Reference),
		Mem:      memsys.NewMemory(),
		SysStats: stats.NewSet("sys"),
	}
	s.dram = memsys.NewDRAM(s.Q, cfg.DRAMLatency, cfg.DRAMMaxInFlight)
	s.Dir = memsys.NewDirectory(cfg, s.Q, s.Mem, s.dram, s.SysStats)

	s.Privs = make([]*memsys.Private, cfg.Cores)
	s.Cores = make([]*cpu.Core, cfg.Cores)
	s.Mechs = make([]cpu.DrainMechanism, cfg.Cores)
	s.CoreStats = make([]*stats.Set, cfg.Cores)

	for i := 0; i < cfg.Cores; i++ {
		st := stats.NewSet(fmt.Sprintf("core%d", i))
		s.CoreStats[i] = st
		priv := memsys.NewPrivate(i, cfg, s.Q, s.Dir, st)
		s.Privs[i] = priv
		core := cpu.NewCore(i, cfg, s.Q, priv, streams[i], st)
		s.Cores[i] = core

		if cfg.StreamPrefetcher {
			sp := prefetch.NewStream(priv, cfg.StreamPrefetchDegree, st)
			priv.OnDemandMiss = sp.OnMiss
		}

		var m cpu.DrainMechanism
		switch cfg.Mechanism {
		case config.Baseline:
			m = mech.NewBase(core, cfg, st)
		case config.TUS:
			m = tus.New(core, cfg, s.Q, st)
		case config.SSB:
			m = mech.NewSSB(core, cfg, s.Q, st)
		case config.CSB:
			m = mech.NewCSB(core, cfg, st)
		case config.SPB:
			m = mech.NewBase(core, cfg, st)
			spb := prefetch.NewSPB(priv, cfg.SPBBurstThreshold, cfg.SPBPageBytes, st)
			core.OnStoreCommit = append(core.OnStoreCommit, spb.OnStoreCommit)
		default:
			return nil, fmt.Errorf("system: unknown mechanism %v", cfg.Mechanism)
		}
		s.Mechs[i] = m
		core.SetMechanism(m)
	}
	s.Dir.Attach(s.Privs)
	for _, core := range s.Cores {
		// Commit-time re-binding of snooped loads reads the machine's
		// visible coherent state (observational only; no timing).
		core.ReadVisible = func(addr uint64, size uint8) [8]byte {
			var v [8]byte
			for i := uint8(0); i < size; i++ {
				v[i] = s.ReadCoherent(addr + uint64(i))
			}
			return v
		}
	}
	return s, nil
}

// SetObserver installs an architectural event observer (before Run).
func (s *System) SetObserver(o Observer) {
	s.observer = o
	for i := range s.Cores {
		i := i
		core := s.Cores[i]
		priv := s.Privs[i]
		core.OnStoreData = func(seq, addr uint64, size uint8, value [8]byte) {
			o.StoreCommitted(i, seq, addr, size, value)
		}
		core.OnStoreExec = func(seq, addr uint64, size uint8, value [8]byte) {
			o.StoreExecuted(i, seq, addr, size, value)
		}
		core.OnLoadValue = func(c int, seq, addr uint64, size uint8, value [8]byte) {
			o.LoadBound(c, s.Q.Now(), seq, addr, size, value)
		}
		priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
			o.StoreVisible(i, s.Q.Now(), line, mask, data)
		}
	}
}

// tracerSetter is implemented by every component that accepts a
// lifecycle tracer. Mechanisms opt in by implementing it; Base/SPB
// drain through the SB pop hook and need no tracer of their own.
type tracerSetter interface{ SetTracer(*trace.Tracer) }

// SetTracer attaches a store-lifecycle tracer to every layer of the
// machine (cores, private hierarchies, directory, mechanisms). Pass nil
// to detach. Tracing is observational only: timing, stats, and figures
// are byte-identical with it on or off.
func (s *System) SetTracer(t *trace.Tracer) {
	s.tracer = t
	s.Dir.SetTracer(t)
	for _, c := range s.Cores {
		c.SetTracer(t)
	}
	for _, p := range s.Privs {
		p.SetTracer(t)
	}
	for _, m := range s.Mechs {
		if ts, ok := m.(tracerSetter); ok {
			ts.SetTracer(t)
		}
	}
}

// Tracer returns the tracer installed with SetTracer (nil when none).
func (s *System) Tracer() *trace.Tracer { return s.tracer }

const ctxPoll = 1024 // cycles between Run's looks at its context

// SetContext makes Run return context.Cause(ctx) once ctx is done. Run
// looks every ctxPoll cycles, outside the event queue, so a run that
// ends normally is identical with or without a context.
func (s *System) SetContext(ctx context.Context) { s.ctx = ctx }

// SetAuditor schedules a periodic state-invariant audit; call it at
// most once, before Run. The audit is one event record that re-arms
// itself every cycles on while the machine stays consistent, so it
// interleaves deterministically with the simulation; a violation aborts
// the run with a CrashReport.
func (s *System) SetAuditor(a Auditor, every uint64) {
	if every == 0 {
		every = 1 // a zero period would re-fire forever inside one RunDue
	}
	s.auditor, s.auditFn = a, s.auditTick
	s.Q.After2(every, s.auditFn, every, 0)
}

// auditTick is the auditor's event: audit now, and fire again period
// cycles on unless the audit failed.
func (s *System) auditTick(period, _ uint64) {
	if pe := s.auditor.Audit(s.Q.Now()); pe != nil {
		s.auditErr = pe
		return
	}
	s.Q.After2(period, s.auditFn, period, 0)
}

// Run simulates until every core retires its trace and drains. On
// deadlock/livelock (watchdog), MaxCycles overrun, a protocol-code
// invariant panic, or an auditor violation it returns a *CrashReport
// (retrieve with errors.As) carrying per-core state snapshots. A
// context set with SetContext stops it early with the context's cause.
func (s *System) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*faults.ProtocolError)
			if !ok {
				// Not a protocol invariant: a genuine harness bug, let
				// it kill the process with its original stack.
				panic(r)
			}
			err = s.crash(CrashInvariant, pe, pe.Error())
		}
	}()
	watchdogWindow := s.Cfg.WatchdogWindow
	if watchdogWindow == 0 {
		watchdogWindow = config.DefaultWatchdogWindow
	}
	lastProgress := s.Q.Now()
	lastCommitted := uint64(0)
	for {
		done := true
		for _, c := range s.Cores {
			if !c.Done() {
				done = false
				break
			}
		}
		if done {
			s.Cycles = s.Q.Now() - s.warmCycle
			s.finalizeStats()
			return nil
		}
		if s.Q.Now() >= s.Cfg.MaxCycles {
			return s.crash(CrashMaxCycles, nil,
				fmt.Sprintf("exceeded MaxCycles=%d", s.Cfg.MaxCycles))
		}
		committed := s.TotalCommitted()
		if !s.warmed && s.WarmupOps > 0 && committed >= s.WarmupOps {
			s.warmed = true
			s.warmCycle = s.Q.Now()
			s.dram.Accesses = 0
			s.SysStats.Reset()
			for _, st := range s.CoreStats {
				st.Reset()
			}
			// The trace covers the measurement region, like the stats.
			s.tracer.Reset()
		}
		if committed != lastCommitted {
			lastCommitted = committed
			lastProgress = s.Q.Now()
		} else if s.Q.Now()-lastProgress > watchdogWindow {
			perCore := make([]uint64, len(s.Cores))
			for i, c := range s.Cores {
				perCore[i] = c.Committed()
			}
			return s.crash(CrashWatchdog, nil,
				fmt.Sprintf("no commit progress for %d cycles (per-core commits: %v) — deadlock?",
					watchdogWindow, perCore))
		}
		if s.ctx != nil && s.Q.Now()%ctxPoll == 0 && s.ctx.Err() != nil {
			return context.Cause(s.ctx)
		}
		if !s.Cfg.Reference && s.skip(min(s.Cfg.MaxCycles, lastProgress+watchdogWindow+1, (s.Q.Now()/ctxPoll+1)*ctxPoll)) {
			continue // the checks above run again at the new cycle
		}
		s.Q.Advance()
		for _, c := range s.Cores {
			c.Tick()
		}
		if s.auditErr != nil {
			return s.crash(CrashAudit, s.auditErr, s.auditErr.Error())
		}
	}
}

// skip jumps the clock over the ticks in which no core can act, to no
// later than cycle limit (where a check at the top of Run may fire),
// accounts them as they would have counted, and reports whether it
// moved the clock. The reference machine's run loop ticks every cycle.
func (s *System) skip(limit uint64) bool {
	now := s.Q.Now()
	if next, ok := s.Q.NextPending(); ok {
		limit = min(limit, max(next, now+1)-1) // the tick at next runs its events
	}
	n := max(limit, now) - now // a bound that wrapped past 2^64 skips nothing
	for i := 0; i < len(s.Cores) && n > 0; i++ {
		n = min(n, s.Cores[i].Quiescent())
	}
	if n == 0 {
		return false
	}
	for _, c := range s.Cores {
		c.Skip(n)
	}
	s.Q.Skip(n)
	s.skipped += n
	return true
}

// statsFinalizer lets mechanisms export internal counters at run end.
type statsFinalizer interface{ FinalizeStats() }

func (s *System) finalizeStats() {
	c := s.SysStats.Counter("dram_accesses")
	c.Add(s.dram.Accesses - c.Value())
	for _, m := range s.Mechs {
		if f, ok := m.(statsFinalizer); ok {
			f.FinalizeStats()
		}
	}
}

// TotalCommitted sums committed micro-ops over all cores.
func (s *System) TotalCommitted() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Committed()
	}
	return n
}

// StatsSum returns a merged view of system + per-core counters.
func (s *System) StatsSum() *stats.Set {
	out := stats.NewSet("total")
	out.Merge(s.SysStats)
	for _, st := range s.CoreStats {
		out.Merge(st)
	}
	return out
}

// ReadCoherent returns the coherent value of a byte after Run: the
// owner's copy if a core owns the line, else the LLC/memory data.
// Used by tests to compare against the checker's golden memory.
func (s *System) ReadCoherent(addr uint64) byte {
	line := addr &^ 63
	off := addr & 63
	for _, p := range s.Privs {
		pl := p.Lookup(line)
		if pl == nil {
			continue
		}
		if pl.State == memsys.StateM || pl.State == memsys.StateE {
			if pl.NotVisible {
				// Unauthorized bytes are not part of the coherent view;
				// the authorized copy lives in the private L2.
				return pl.L2Data[off]
			}
			if pl.InL1 {
				return pl.L1Data[off]
			}
			return pl.L2Data[off]
		}
	}
	var d memsys.LineData
	s.Mem.ReadLine(line, &d)
	if e := s.Dir.LLCData(line); e != nil {
		return e[off]
	}
	return d[off]
}
