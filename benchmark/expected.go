package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// expectedJSON pins the program's outputs for the pinned seeds. It is
// compiled in, so a run does not depend on its working directory;
// -update rewrites the file and the next build picks it up.
//
//go:embed expected.json
var expectedJSON []byte

// pinnedSeeds are the seeds whose outputs expected.json records.
var pinnedSeeds = []int64{1, 2}

// pinSet is the expected outputs of one workload at one seed, one table
// per kind of output, each from a key to a short digest.
type pinSet struct {
	// Inputs: what was generated from the seed -> a digest of it. The
	// same seed must give the same inputs.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Cells: "bench/mech/sb" -> "cycles/committed/sha256 of the sorted
	// StatsSum snapshot".
	Cells map[string]string `json:"cells,omitempty"`
	// Figures: figure number -> sha256 of the rendered bytes.
	Figures map[string]string `json:"figures,omitempty"`
	// Reports: "test/mech" -> "oracle states/oracle outcomes/observed
	// outcomes/runs/pruned".
	Reports map[string]string `json:"reports,omitempty"`
}

func (p *pinSet) table(name string) map[string]string {
	var t *map[string]string
	switch name {
	case "inputs":
		t = &p.Inputs
	case "cells":
		t = &p.Cells
	case "figures":
		t = &p.Figures
	case "reports":
		t = &p.Reports
	default:
		panic("benchmark: no pin table " + name)
	}
	if *t == nil {
		*t = map[string]string{}
	}
	return *t
}

// expectedFile is expected.json.
type expectedFile struct {
	// CellLists digests the six workloads' cell lists, so that a
	// workload cannot drift without the pins being regenerated.
	CellLists string `json:"cell_lists"`
	// Seeds: seed -> workload -> pins.
	Seeds map[string]map[string]*pinSet `json:"seeds"`
}

func loadExpected() (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// pinsFor returns the pins for (seed, workload), nil for an unpinned seed.
func (e *expectedFile) pinsFor(seed int64, workload string) *pinSet {
	return e.Seeds[strconv.FormatInt(seed, 10)][workload]
}

// checkOutput counts one checked output. With pins, got must equal the
// pinned digest; without, it must equal what the same key produced
// earlier in this run. The first observation of every key is kept in
// the outcome's digests, which is what -update writes out.
func (c *runCtx) checkOutput(table, key, got string) {
	c.attempt(1)
	if c.out.Digests == nil {
		c.out.Digests = &pinSet{}
	}
	seen := c.out.Digests.table(table)
	first, repeated := seen[key]
	if !repeated {
		seen[key] = got
	}
	if c.pins != nil {
		want, ok := c.pins.table(table)[key]
		switch {
		case !ok:
			c.fail("%s %s: not in expected.json", table, key)
		case want != got:
			c.fail("%s %s: got %s, pinned %s", table, key, got, want)
		}
		return
	}
	if repeated && first != got {
		c.fail("%s %s: got %s, earlier in this run %s", table, key, got, first)
	}
}
