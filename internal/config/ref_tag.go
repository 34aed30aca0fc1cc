//go:build tus_ref

package config

// defaultReference is Default().Reference. Building with -tags tus_ref
// does exactly this one thing: `go test -tags tus_ref ./...` replays
// the entire suite — golden figures, chaos, model check — on the
// reference containers and the reference scheduler, which is the
// mechanical observational-equivalence proof for the fast paths.
const defaultReference = true
