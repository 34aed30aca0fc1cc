// Package memsys implements the complete memory substrate: the backing
// memory image, a fixed-latency bandwidth-limited DRAM model, per-core
// private L1D+L2 write-back inclusive cache hierarchies with MSHRs, and
// a directory-based MESI coherence protocol at the shared LLC.
//
// TUS integrates through three seams: L1D lines carry NotVisible/Ready
// bits and a written-byte mask; external probes that reach a
// not-visible line are routed to an UnauthorizedHandler which may delay
// (NACK) or relinquish the line (serving the unmodified copy the
// private L2 keeps, exactly as in Sec. III-C of the paper); and
// writable fills for not-visible lines merge memory data under the mask
// before the handler is told the line is ready.
package memsys

import "tusim/internal/event"

// LineBytes is the cache line size used throughout (Table I).
const LineBytes = 64

// LineMask drops the offset bits of an address.
const LineMask = ^uint64(LineBytes - 1)

// LineData is the payload of one cache line.
type LineData [LineBytes]byte

// Mask marks which bytes of a line have been written (bit i = byte i).
type Mask uint64

// MaskFor returns the mask covering size bytes starting at the line
// offset of addr.
func MaskFor(addr uint64, size uint8) Mask {
	off := addr & (LineBytes - 1)
	if size == 0 {
		return 0
	}
	if size >= 64 {
		return ^Mask(0)
	}
	return Mask((uint64(1)<<size - 1) << off)
}

// Covers reports whether m covers every byte of want.
func (m Mask) Covers(want Mask) bool { return m&want == want }

// Overlaps reports whether m and o share any byte.
func (m Mask) Overlaps(o Mask) bool { return m&o != 0 }

// Merge writes src bytes selected by mask into dst.
func Merge(dst *LineData, src *LineData, mask Mask) {
	for i := 0; i < LineBytes; i++ {
		if mask&(1<<uint(i)) != 0 {
			dst[i] = src[i]
		}
	}
}

// Memory is the backing DRAM image: a lazily allocated map from line
// address to contents. Unwritten memory reads as zero.
type Memory struct {
	lines map[uint64]*LineData
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory { return &Memory{lines: make(map[uint64]*LineData)} }

// ReadLine copies the line at lineAddr into dst.
func (m *Memory) ReadLine(lineAddr uint64, dst *LineData) {
	if l, ok := m.lines[lineAddr&LineMask]; ok {
		*dst = *l
	} else {
		*dst = LineData{}
	}
}

// WriteLine stores src at lineAddr.
func (m *Memory) WriteLine(lineAddr uint64, src *LineData) {
	la := lineAddr & LineMask
	l, ok := m.lines[la]
	if !ok {
		l = new(LineData)
		m.lines[la] = l
	}
	*l = *src
}

// DRAM models main-memory timing: a fixed access latency with a bound
// on concurrent accesses (a simple bandwidth model; overflow requests
// queue FIFO). Prefetch traffic runs in a low-priority lane restricted
// to half the channel so it can never starve demand accesses. An access
// is its client's record id: the queues hold ids, and done receives the
// id when the access completes (the directory installs it).
type DRAM struct {
	q                   *event.Queue
	latency             uint64
	maxInFlight         int
	inFlight            int
	waiting, waitingLow idQueue
	done                func(id uint64)
	finishFn            event.Func2
	// Accesses counts DRAM transfers for the energy model.
	Accesses uint64
}

// NewDRAM builds a DRAM model on the given queue.
func NewDRAM(q *event.Queue, latency uint64, maxInFlight int) *DRAM {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	d := &DRAM{q: q, latency: latency, maxInFlight: maxInFlight}
	d.finishFn = d.finish
	return d
}

// access starts access id after the DRAM latency, subject to the
// concurrency bound; low is the prefetch lane, which only occupies up
// to half the channel and yields to queued demand accesses.
func (d *DRAM) access(id uint64, low bool) {
	switch {
	case d.canStart(low):
		d.start(id)
	case low:
		d.waitingLow.push(id)
	default:
		d.waiting.push(id)
	}
}

func (d *DRAM) start(id uint64) {
	d.inFlight++
	d.Accesses++
	d.q.After2(d.latency, d.finishFn, id, 0)
}

// finish is the finishFn event: access id completed.
func (d *DRAM) finish(id, _ uint64) {
	d.inFlight--
	d.done(id)
	d.pump()
}

func (d *DRAM) canStart(low bool) bool {
	if low {
		return d.inFlight < d.maxInFlight/2
	}
	return d.inFlight < d.maxInFlight
}

func (d *DRAM) pump() {
	for d.waiting.len() > 0 && d.inFlight < d.maxInFlight {
		d.start(d.waiting.pop())
	}
	for d.waitingLow.len() > 0 && d.inFlight < d.maxInFlight/2 {
		d.start(d.waitingLow.pop())
	}
}

// idQueue is a FIFO of access ids popped at a head index, so a start
// moves nothing. A full array at least half popped is compacted rather
// than grown, so it is reused and holds under four times the backlog.
type idQueue struct {
	ids  []uint64
	head int
}

func (q *idQueue) len() int    { return len(q.ids) - q.head }
func (q *idQueue) pop() uint64 { q.head++; return q.ids[q.head-1] }

func (q *idQueue) push(id uint64) {
	if len(q.ids) == cap(q.ids) && 2*q.head >= len(q.ids) {
		q.ids, q.head = q.ids[:copy(q.ids, q.ids[q.head:])], 0
	}
	q.ids = append(q.ids, id)
}

// InFlight reports current outstanding accesses (for tests).
func (d *DRAM) InFlight() int { return d.inFlight }
