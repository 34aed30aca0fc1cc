package memsys

import (
	"testing"
	"testing/quick"

	"tusim/internal/config"
	"tusim/internal/event"
)

func TestMaskFor(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
		want Mask
	}{
		{0x1000, 1, 0x1},
		{0x1001, 1, 0x2},
		{0x1000, 8, 0xFF},
		{0x1038, 8, Mask(0xFF) << 56},
		{0x1004, 4, 0xF0},
		{0x1000, 0, 0},
	}
	for _, c := range cases {
		if got := MaskFor(c.addr, c.size); got != c.want {
			t.Errorf("MaskFor(%#x,%d) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
}

func TestMaskCoversOverlaps(t *testing.T) {
	m := MaskFor(0x1000, 8)
	if !m.Covers(MaskFor(0x1002, 4)) {
		t.Error("8B mask must cover contained 4B")
	}
	if m.Covers(MaskFor(0x1006, 4)) {
		t.Error("mask must not cover partially overlapping range")
	}
	if !m.Overlaps(MaskFor(0x1006, 4)) {
		t.Error("partial ranges overlap")
	}
	if m.Overlaps(MaskFor(0x1008, 4)) {
		t.Error("disjoint ranges do not overlap")
	}
}

func TestMerge(t *testing.T) {
	var dst, src LineData
	for i := range src {
		src[i] = byte(i + 1)
	}
	Merge(&dst, &src, MaskFor(0x4, 4))
	for i := 0; i < LineBytes; i++ {
		want := byte(0)
		if i >= 4 && i < 8 {
			want = byte(i + 1)
		}
		if dst[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, dst[i], want)
		}
	}
}

// Property: Merge with mask m then with ^m reconstructs src entirely.
func TestMergeComplementProperty(t *testing.T) {
	f := func(m uint64, seed byte) bool {
		var dst, src LineData
		for i := range src {
			src[i] = seed ^ byte(i)
		}
		Merge(&dst, &src, Mask(m))
		Merge(&dst, &src, ^Mask(m))
		return dst == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	var d LineData
	d[0] = 99
	m.ReadLine(0x4000, &d)
	if d != (LineData{}) {
		t.Fatal("unwritten memory must read zero")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	var w LineData
	for i := range w {
		w[i] = byte(i * 3)
	}
	m.WriteLine(0x1040, &w)
	var r LineData
	m.ReadLine(0x1040, &r)
	if r != w {
		t.Fatal("read != write")
	}
	// Offsets within the line address the same line.
	m.ReadLine(0x105F, &r)
	if r != w {
		t.Fatal("line addressing must ignore offset bits")
	}
}

func TestDRAMLatency(t *testing.T) {
	q := event.NewQueueRef(config.Default().Reference)
	d := NewDRAM(q, 160, 32)
	done, doneID := uint64(0), uint64(0)
	d.done = func(id uint64) { done, doneID = q.Now(), id }
	d.access(5, false)
	q.Drain(1 << 20)
	if done != 160 || doneID != 5 {
		t.Fatalf("DRAM access %d completed at %d, want access 5 at 160", doneID, done)
	}
	if d.Accesses != 1 {
		t.Fatalf("Accesses = %d", d.Accesses)
	}
}

func TestDRAMBandwidthBound(t *testing.T) {
	q := event.NewQueueRef(config.Default().Reference)
	d := NewDRAM(q, 100, 2)
	var finishes, order []uint64
	d.done = func(id uint64) {
		finishes = append(finishes, q.Now())
		order = append(order, id)
	}
	for i := uint64(1); i <= 4; i++ {
		d.access(i, false)
	}
	if d.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2 (bounded)", d.InFlight())
	}
	q.Drain(1 << 20)
	if len(finishes) != 4 {
		t.Fatalf("only %d accesses completed", len(finishes))
	}
	// First two at 100, next two serialized behind them at 200, FIFO.
	if finishes[0] != 100 || finishes[1] != 100 || finishes[2] != 200 || finishes[3] != 200 {
		t.Fatalf("finish times %v, want [100 100 200 200]", finishes)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("completion order %v, want [1 2 3 4]", order)
	}
}

// TestIDQueueFIFO drives the DRAM wait queue against a plain slice
// model: a backlog that grows, holds for hundreds of pushes without
// ever emptying (compacted, not grown), then drains and refills.
func TestIDQueueFIFO(t *testing.T) {
	var q idQueue
	var model []uint64
	next, peak := uint64(0), 0
	for round := 0; round < 300; round++ {
		pushes, pops := round%7+1, round%7+1 // steady backlog
		switch {
		case round < 20:
			pops = 0 // build a backlog
		case round%50 == 49:
			pops = len(model) + pushes // drain
		}
		for i := 0; i < pushes; i++ {
			next++
			q.push(next)
			model = append(model, next)
		}
		peak = max(peak, len(model))
		for ; pops > 0 && len(model) > 0; pops-- {
			if got := q.pop(); got != model[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, model[0])
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("round %d: len %d, want %d", round, q.len(), len(model))
		}
		if cap(q.ids) > 4*peak {
			t.Fatalf("round %d: backing array %d for a backlog of at most %d", round, cap(q.ids), peak)
		}
	}
}
