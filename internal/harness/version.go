package harness

// Version is the single harness identity string shared by every layer
// that must agree on what "the same result" means: the content-addressed
// disk cache keys it, cache entries embed it, the run journal header
// carries it so a resume under a different binary is detected, and tusd
// reports it from /healthz and /metrics.
// Bump it whenever a change anywhere in the simulator can alter cell
// results, so stale entries from older binaries can never masquerade as
// fresh runs. Keeping it in one exported constant (instead of per-layer
// copies) is what makes skew between those layers impossible.
//
// (v5: open-addressed/pooled hot-path containers; identical results by
// construction — the differential rig proves it — but the bump keeps
// the before/after byte-identity comparison honest by forcing fresh
// simulation instead of serving pre-conversion cache entries.)
//
// (v6: hierarchical time-wheel event scheduler + interned workload
// traces. Pop order — and therefore every cell result — is proved
// identical to the v5 binary heap by the wheel differential rig and
// `make ref-identity`, but the same honesty argument applies: a v6
// binary must never serve v5 cache entries as its own.)
const Version = "tusim-harness-6"
