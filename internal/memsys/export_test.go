package memsys

// CrossWire points pl's miss link at the miss from names and returns a
// func that restores it, for tests that prove the auditor notices.
func CrossWire(pl, from *PLine) (restore func()) {
	old := pl.mshr
	pl.mshr = from.mshr
	return func() { pl.mshr = old }
}

// KeepWritableCalls reports how many times KeepWritable was called.
func (p *Private) KeepWritableCalls() uint64 { return p.keepCalls }
