//go:build !tus_ref

package config

// defaultReference is Default().Reference; see ref_tag.go.
const defaultReference = false
