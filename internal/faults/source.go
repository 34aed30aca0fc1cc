package faults

// DecisionSource supplies the injector's nondeterministic choices. The
// injector only consults the source at *real* choice points (a rate of
// zero, an amount domain of one, a permutation of fewer than two
// elements never reach it), so two sources are interchangeable exactly
// when they answer the same sequence of choice points the same way.
//
// Production runs use the seeded PRNG source (NewInjector), which is
// bit-identical to the historical splitmix64 stream; the model checker
// substitutes a ScriptSource to *enumerate* decision streams instead of
// sampling them.
type DecisionSource interface {
	// Hit decides one percentage roll with 0 < pct <= 100.
	Hit(pct int) bool
	// Amount picks a value in [1, max] with max >= 2.
	Amount(max uint64) uint64
	// Index picks a value in [0, n) with n >= 2.
	Index(n int) int
}

// PRNGSource is the production DecisionSource: a private splitmix64
// stream advanced once per choice point, reproducing the injector's
// historical decision stream bit for bit for a given seed.
type PRNGSource struct {
	state uint64
}

// NewPRNGSource seeds the stream exactly as the injector always has.
func NewPRNGSource(seed uint64) *PRNGSource {
	return &PRNGSource{state: splitmix64(seed ^ 0xC0FFEE)}
}

func (s *PRNGSource) next() uint64 {
	s.state = splitmix64(s.state)
	return s.state
}

// Hit implements DecisionSource.
func (s *PRNGSource) Hit(pct int) bool { return s.next()%100 < uint64(pct) }

// Amount implements DecisionSource.
func (s *PRNGSource) Amount(max uint64) uint64 { return 1 + s.next()%max }

// Index implements DecisionSource.
func (s *PRNGSource) Index(n int) int { return int(s.next() % uint64(n)) }

// Decision kinds, as recorded by ScriptSource.
const (
	// DecisionHit is a percentage roll; Val is 0 (miss) or 1 (hit).
	DecisionHit = byte('H')
	// DecisionAmount is a latency/stall magnitude; Val is in [1, Arg].
	DecisionAmount = byte('A')
	// DecisionIndex is a permutation pick; Val is in [0, Arg).
	DecisionIndex = byte('I')
)

// Decision is one consumed choice point: what was asked (Kind, with the
// domain parameter Arg) and what was answered (Val). A slice of
// Decisions is a complete schedule through the injector's
// nondeterminism, serializable into repro bundles.
type Decision struct {
	Kind byte   `json:"k"`
	Arg  uint64 `json:"arg"`
	Val  uint64 `json:"v"`
}

// Default returns the quiet answer for a choice point of this kind: no
// perturbation, minimum magnitude, identity order (a Fisher-Yates step
// leaves element i in place only when it draws i itself, the top of the
// Index domain).
func (d Decision) Default() uint64 {
	switch d.Kind {
	case DecisionAmount:
		return 1
	case DecisionIndex:
		if d.Arg > 0 {
			return d.Arg - 1
		}
	}
	return 0
}

// Alternatives returns the enumerable domain of the decision. Hit and
// Index domains are exact; Amount collapses to its two
// schedule-distinct extremes {1, Arg} — intermediate magnitudes shift
// timing by degrees the extremes already bracket, and enumerating them
// would explode the tree without adding orderings.
func (d Decision) Alternatives() []uint64 {
	switch d.Kind {
	case DecisionHit:
		return []uint64{0, 1}
	case DecisionAmount:
		if d.Arg <= 1 {
			return []uint64{1}
		}
		return []uint64{1, d.Arg}
	case DecisionIndex:
		alts := make([]uint64, d.Arg)
		for i := range alts {
			alts[i] = uint64(i)
		}
		return alts
	}
	return nil
}

// ScriptSource answers choice points from a scripted prefix and with
// the quiet default past its end, recording every choice point it is
// asked. The recorded trace is the run's complete decision schedule:
// replaying it as the next script reproduces the run exactly, and
// extending/flipping entries enumerates neighbouring schedules.
//
// If the run's choice points diverge from the script (a flipped earlier
// decision changed which points are reached), the rest of the script is
// meaningless; the source switches to defaults and reports Diverged.
type ScriptSource struct {
	script   []Decision
	trace    []Decision
	diverged bool
}

// NewScriptSource builds a source replaying the given schedule prefix.
func NewScriptSource(script []Decision) *ScriptSource {
	return &ScriptSource{script: script}
}

// take resolves one choice point of the given kind/domain.
func (s *ScriptSource) take(kind byte, arg uint64) uint64 {
	d := Decision{Kind: kind, Arg: arg}
	val := d.Default()
	if i := len(s.trace); !s.diverged && i < len(s.script) {
		if sc := s.script[i]; sc.Kind == kind && sc.Arg == arg {
			val = sc.Val
		} else {
			s.diverged = true
		}
	}
	// Clamp into the domain so hand-edited scripts cannot push the
	// injector outside its documented ranges.
	switch kind {
	case DecisionHit:
		if val > 1 {
			val = 1
		}
	case DecisionAmount:
		if val < 1 {
			val = 1
		} else if val > arg {
			val = arg
		}
	case DecisionIndex:
		if val >= arg {
			val = d.Default()
		}
	}
	d.Val = val
	s.trace = append(s.trace, d)
	return val
}

// Hit implements DecisionSource.
func (s *ScriptSource) Hit(pct int) bool { return s.take(DecisionHit, uint64(pct)) == 1 }

// Amount implements DecisionSource.
func (s *ScriptSource) Amount(max uint64) uint64 { return s.take(DecisionAmount, max) }

// Index implements DecisionSource.
func (s *ScriptSource) Index(n int) int { return int(s.take(DecisionIndex, uint64(n))) }

// Trace returns every choice point consumed so far, scripted or
// defaulted, in consumption order.
func (s *ScriptSource) Trace() []Decision { return s.trace }
