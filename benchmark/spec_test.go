package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestManifestIsWithinTheContract(t *testing.T) {
	m := theManifest()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.encode()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(m.encode()))
	}
	for _, w := range m.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s has no function", w.Name)
		}
	}
	if len(workloadFuncs) != len(m.Workloads) {
		t.Errorf("%d workload functions for %d workloads", len(workloadFuncs), len(m.Workloads))
	}
}

// decodeManifest parses BENCHMARK.json, rejecting keys it does not know.
func decodeManifest(data []byte) (manifest, error) {
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return manifest{}, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

func TestManifestRoundTrip(t *testing.T) {
	m := theManifest()
	back, err := decodeManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("manifest changed in a round trip:\n%+v\n%+v", m, back)
	}
	if _, err := decodeManifest([]byte(`{"command":["x"],"latest":{}}`)); err == nil {
		t.Error("a key BENCHMARK.json may not have was accepted")
	}
}

func TestCommittedManifestIsCurrent(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	if !bytes.Equal(data, theManifest().encode()) {
		t.Error("BENCHMARK.json differs from the program's manifest; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

func TestValidateRejects(t *testing.T) {
	for name, edit := range map[string]func(*manifest){
		"bound over 0.25":     func(m *manifest) { m.EndToEnd[1].Bound = bound(0.3) },
		"no setup_s":          func(m *manifest) { m.EndToEnd = m.EndToEnd[1:] },
		"per-layer bound":     func(m *manifest) { m.PerLayer[0].Bound = bound(0.1) },
		"duplicate name":      func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"bad metric name":     func(m *manifest) { m.PerLayer[0].Name = "ns/uop" },
		"bad unit":            func(m *manifest) { m.PerLayer[0].Unit = "µs" },
		"direction":           func(m *manifest) { m.PerLayer[0].Better = "smaller" },
		"one workload":        func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"long why":            func(m *manifest) { m.Workloads[0].Why = strings.Repeat("x", 201) },
		"absolute path":       func(m *manifest) { m.Paths = []string{"/tmp/x"} },
		"run_seconds":         func(m *manifest) { m.RunSeconds = 61 },
		"workload as metric":  func(m *manifest) { m.PerLayer[0].Name = m.Workloads[0].Name },
		"too many end-to-end": func(m *manifest) { m.EndToEnd = append(m.EndToEnd, make([]metricSpec, 16)...) },
	} {
		m := theManifest()
		m.Workloads = append([]workloadSpec(nil), m.Workloads...)
		m.EndToEnd = append([]metricSpec(nil), m.EndToEnd...)
		m.PerLayer = append([]metricSpec(nil), m.PerLayer...)
		edit(&m)
		if err := m.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// cellListsWant is the digest of the six workloads' cell lists: names,
// mechanisms, SB sizes, micro-op counts, explore budgets and the traffic
// mix. A change to any of them makes every committed number and pin
// describe a different workload; change this constant only together
// with `-update` and fresh numbers.
const cellListsWant = "b50b3dba33a916561b0922fbb72f1b60c0913d02f66fdb1e2116b44464871d5a"

func TestCellListsAreWhatWasPinned(t *testing.T) {
	got, err := cellListDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got != cellListsWant {
		t.Errorf("cell lists hash to %s, want %s", got, cellListsWant)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if exp.CellLists != got {
		t.Errorf("expected.json was pinned for cell lists %s, the program has %s; run -update", exp.CellLists, got)
	}
	for _, seed := range pinnedSeeds {
		for _, w := range workloadSpecs {
			if exp.pinsFor(seed, w.Name) == nil {
				t.Errorf("expected.json has no pins for %s at seed %d", w.Name, seed)
			}
		}
	}
	if exp.pinsFor(7, wlStBurst) != nil {
		t.Error("seed 7 is pinned")
	}
}

func TestCellListShapes(t *testing.T) {
	for name, want := range map[string]int{wlStBurst: 60, wlStMiss: 20, wlMtShare: 12} {
		cells, err := simCells(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != want {
			t.Errorf("%s has %d cells, want %d", name, len(cells), want)
		}
	}
	if n := len(matrixCells()); n != 300 {
		t.Errorf("the figure matrix has %d cells, want 300", n)
	}
	if n := len(litmusCells()); n != 33 {
		t.Errorf("litmus_check has %d cells, want 33", n)
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "st_burst,nope"},
		{"-workload", "ST_BURST"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"stray"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestCheckOutputPinnedAndUnpinned(t *testing.T) {
	newCtx := func(pins *pinSet) *runCtx {
		return &runCtx{pins: pins, out: &outcome{Metrics: map[string]value{}}}
	}
	c := newCtx(&pinSet{Cells: map[string]string{"a/base/32": "1/2/x"}})
	c.checkOutput("cells", "a/base/32", "1/2/x")
	c.checkOutput("cells", "a/base/32", "1/2/y") // differs from the pin
	c.checkOutput("cells", "b/base/32", "1/2/x") // not pinned at all
	if c.out.Attempted != 3 || c.out.Failed != 2 {
		t.Errorf("pinned: %d failed of %d, want 2 of 3", c.out.Failed, c.out.Attempted)
	}
	if !strings.Contains(c.out.Problems[0], "a/base/32") {
		t.Errorf("the first problem does not name the differing cell: %q", c.out.Problems[0])
	}
	c = newCtx(nil)
	c.checkOutput("cells", "a/base/32", "1/2/x")
	c.checkOutput("cells", "a/base/32", "1/2/x")
	c.checkOutput("cells", "a/base/32", "1/2/z") // differs from the first repetition
	if c.out.Attempted != 3 || c.out.Failed != 1 {
		t.Errorf("unpinned: %d failed of %d, want 1 of 3", c.out.Failed, c.out.Attempted)
	}
	if c.out.Digests.Cells["a/base/32"] != "1/2/x" {
		t.Errorf("digests keep %q, want the first observation", c.out.Digests.Cells["a/base/32"])
	}
}
