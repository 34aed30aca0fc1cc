package memsys

// SetInFlight overwrites pl's in-flight bit, desynchronising it from
// the MSHR table for tests that prove the auditor notices.
func (pl *PLine) SetInFlight(v bool) { pl.inFlight = v }
