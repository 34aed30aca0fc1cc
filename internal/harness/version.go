package harness

// Version is the single harness identity string shared by every layer
// that must agree on what "the same result" means: the content-addressed
// disk cache keys it, cache entries embed it, the header of a run
// journal's state file carries it so a resume under a different binary
// is detected (the cache, the only record of the run's finished cells,
// then misses and they resimulate), and tusd reports it from /healthz
// and /metrics.
// Bump it whenever a change anywhere in the simulator can alter cell
// results, so stale entries from older binaries can never masquerade as
// fresh runs. Keeping it in one exported constant (instead of per-layer
// copies) is what makes skew between those layers impossible. A change
// that the differential rigs and the pinned product bytes prove
// result-identical keeps the version, so the cache stays warm across it.
const Version = "tusim-harness-6"
