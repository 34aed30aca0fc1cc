// Package isa defines the trace-driven micro-op format consumed by the
// out-of-order core. A workload is a per-thread stream of MicroOps with
// explicit data dependencies expressed as backward distances, which is
// sufficient to reproduce instruction-level parallelism, address
// streams, and store behaviour without an x86 decoder.
package isa

import "fmt"

// Kind classifies a micro-op.
type Kind uint8

const (
	// Nop occupies ROB/commit bandwidth only.
	Nop Kind = iota
	// IntAdd/IntMul/IntDiv and the FP kinds execute on ALUs with the
	// Table I latencies.
	IntAdd
	IntMul
	IntDiv
	FPAdd
	FPMul
	FPDiv
	// Load reads Size bytes at Addr.
	Load
	// Store writes Size bytes at Addr.
	Store
	// Fence is a serializing event: dispatch stalls until the SB (and,
	// under TUS, the WOQ) has drained and all stores are visible.
	Fence
)

// String returns a short mnemonic.
func (k Kind) String() string {
	switch k {
	case Nop:
		return "nop"
	case IntAdd:
		return "iadd"
	case IntMul:
		return "imul"
	case IntDiv:
		return "idiv"
	case FPAdd:
		return "fadd"
	case FPMul:
		return "fmul"
	case FPDiv:
		return "fdiv"
	case Load:
		return "ld"
	case Store:
		return "st"
	case Fence:
		return "fence"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether the op accesses memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// IsALU reports whether the op executes on an ALU.
func (k Kind) IsALU() bool { return k >= IntAdd && k <= FPDiv }

// Complex reports whether the op needs a complex (Int/FP/SIMD) ALU
// rather than the simple integer ALU.
func (k Kind) Complex() bool { return k == IntMul || k == IntDiv || (k >= FPAdd && k <= FPDiv) }

// MicroOp is one trace entry.
type MicroOp struct {
	Kind Kind
	// Addr/Size describe the memory access for Load/Store.
	Addr uint64
	Size uint8
	// Dep1/Dep2 are backward distances to producer ops this op consumes
	// (0 = no dependency). A Load with Dep pointing at an older Load
	// models pointer chasing; a Store's Dep models the data producer.
	Dep1 uint16
	Dep2 uint16
}

// String formats the op for debugging.
func (op MicroOp) String() string {
	if op.Kind.IsMem() {
		return fmt.Sprintf("%s [%#x,%d] dep(%d,%d)", op.Kind, op.Addr, op.Size, op.Dep1, op.Dep2)
	}
	return fmt.Sprintf("%s dep(%d,%d)", op.Kind, op.Dep1, op.Dep2)
}

// Validate reports structural problems in a trace (bad sizes, deps that
// reach before the start, fences carrying addresses).
func Validate(trace []MicroOp) error {
	for i, op := range trace {
		if op.Kind.IsMem() {
			// Sizes are limited to scalar widths; the store buffer holds
			// at most 8 bytes of data per entry, as do the workloads.
			switch op.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("isa: op %d (%s) has invalid size %d", i, op, op.Size)
			}
			if off := op.Addr & 63; uint64(off)+uint64(op.Size) > 64 {
				return fmt.Errorf("isa: op %d (%s) crosses a cache line", i, op)
			}
		} else if op.Addr != 0 || op.Size != 0 {
			return fmt.Errorf("isa: op %d (%s) is non-memory but carries an address", i, op)
		}
		if int(op.Dep1) > i || int(op.Dep2) > i {
			return fmt.Errorf("isa: op %d (%s) depends before trace start", i, op)
		}
	}
	return nil
}

// Stream supplies micro-ops to one hardware thread. Implementations
// must be deterministic.
type Stream interface {
	// Next returns the next op. ok=false signals end of trace.
	Next() (op MicroOp, ok bool)
}

// SliceStream adapts a []MicroOp to a Stream.
type SliceStream struct {
	ops []MicroOp
	pos int
}

// NewSliceStream returns a Stream over ops.
func NewSliceStream(ops []MicroOp) *SliceStream { return &SliceStream{ops: ops} }

// Next implements Stream.
func (s *SliceStream) Next() (MicroOp, bool) {
	if s.pos >= len(s.ops) {
		return MicroOp{}, false
	}
	op := s.ops[s.pos]
	s.pos++
	return op, true
}
