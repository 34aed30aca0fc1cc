package system

// SetReference makes New build every machine on the reference side
// (reference containers, the heap alone, a tick every cycle) until it
// is called with false. Set it only while no machine is being built.
func SetReference(on bool) { reference = on }

// Skipped reports how many cycles Run's quiescence skip jumped over.
func Skipped(s *System) uint64 { return s.skipped }
