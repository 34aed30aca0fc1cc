package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Fatal("Load/Store must be memory ops")
	}
	if Nop.IsMem() || Fence.IsMem() || IntAdd.IsMem() {
		t.Fatal("non-memory kinds misclassified")
	}
	for _, k := range []Kind{IntAdd, IntMul, IntDiv, FPAdd, FPMul, FPDiv} {
		if !k.IsALU() {
			t.Fatalf("%v should be ALU", k)
		}
	}
	if Load.IsALU() || Fence.IsALU() || Nop.IsALU() {
		t.Fatal("non-ALU kinds misclassified")
	}
	if IntAdd.Complex() {
		t.Fatal("IntAdd runs on the simple ALU")
	}
	for _, k := range []Kind{IntMul, IntDiv, FPAdd, FPMul, FPDiv} {
		if !k.Complex() {
			t.Fatalf("%v needs a complex ALU", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{Nop: "nop", IntAdd: "iadd", Load: "ld", Store: "st", Fence: "fence", FPDiv: "fdiv"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
}

// TestLineAddr: an access is valid only inside its 64-byte line,
// Addr &^ 63.
func TestLineAddr(t *testing.T) {
	in := MicroOp{Kind: Store, Addr: 0x1234, Size: 4}
	if err := Validate([]MicroOp{in}); err != nil || in.Addr&^63 != 0x1200 {
		t.Fatalf("store at %#x: line %#x, Validate %v; want line 0x1200, valid", in.Addr, in.Addr&^63, err)
	}
	across := MicroOp{Kind: Store, Addr: 0x123E, Size: 4}
	if Validate([]MicroOp{across}) == nil {
		t.Fatalf("store at %#x ends in line %#x but was accepted", across.Addr, (across.Addr+3)&^63)
	}
}

func TestValidateAccepts(t *testing.T) {
	trace := []MicroOp{
		{Kind: IntAdd},
		{Kind: Load, Addr: 0x100, Size: 8, Dep1: 1},
		{Kind: Store, Addr: 0x140, Size: 4, Dep1: 1},
		{Kind: Fence},
		{Kind: Load, Addr: 0x13C, Size: 4}, // ends exactly at line boundary
	}
	if err := Validate(trace); err != nil {
		t.Fatalf("Validate rejected valid trace: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		trace []MicroOp
	}{
		{"bad size", []MicroOp{{Kind: Load, Addr: 0, Size: 3}}},
		{"zero size", []MicroOp{{Kind: Store, Addr: 0, Size: 0}}},
		{"line crossing", []MicroOp{{Kind: Load, Addr: 0x3C, Size: 8}}},
		{"simd size", []MicroOp{{Kind: Load, Addr: 0, Size: 32}}},
		{"dep before start", []MicroOp{{Kind: IntAdd, Dep1: 1}}},
		{"fence with addr", []MicroOp{{Kind: Fence, Addr: 0x40}}},
		{"alu with size", []MicroOp{{Kind: IntAdd, Size: 8}}},
	}
	for _, c := range cases {
		if err := Validate(c.trace); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", c.name)
		}
	}
}

func TestSliceStream(t *testing.T) {
	ops := []MicroOp{{Kind: IntAdd}, {Kind: Load, Addr: 8, Size: 8}}
	s := NewSliceStream(ops)
	if len(s.ops) != 2 {
		t.Fatalf("Len = %d", len(s.ops))
	}
	a, ok := s.Next()
	if !ok || a.Kind != IntAdd {
		t.Fatal("first op wrong")
	}
	b, ok := s.Next()
	if !ok || b.Kind != Load {
		t.Fatal("second op wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

// Property: Validate accepts a scalar access exactly when its first and
// last bytes share a line address (Addr &^ 63).
func TestLineAddrProperty(t *testing.T) {
	f := func(addr uint64, sizeLog uint8) bool {
		op := MicroOp{Kind: Load, Addr: addr, Size: 1 << (sizeLog % 4)}
		sameLine := op.Addr&^63 == (op.Addr+uint64(op.Size)-1)&^63
		return (Validate([]MicroOp{op}) == nil) == sameLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
