package lmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

type entry struct {
	id   uint64
	data [8]byte
}

// TestMapDifferentialVsReference drives the same seeded random op
// stream (put/get/delete/range over a skewed key space, including
// cache-line-aligned keys with zero low-bit entropy) through the
// open-addressed map and the reference map, asserting identical
// contents after every op.
func TestMapDifferentialVsReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		fast := NewRef[entry](false)
		ref := NewRef[entry](true)
		live := map[uint64]*entry{}
		keyFor := func() uint64 {
			k := uint64(rng.Intn(512))
			if rng.Intn(2) == 0 {
				k <<= 6 // line-aligned addresses: low 6 bits always zero
			}
			return k
		}
		for op := 0; op < 20000; op++ {
			k := keyFor()
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // put
				e := &entry{id: k}
				fast.Put(k, e)
				ref.Put(k, e)
				live[k] = e
			case 4, 5: // delete
				fast.Delete(k)
				ref.Delete(k)
				delete(live, k)
			default: // get
				fv, rv := fast.Get(k), ref.Get(k)
				if fv != rv {
					t.Fatalf("seed %d op %d: Get(%d) fast=%p ref=%p", seed, op, k, fv, rv)
				}
				if fv != live[k] {
					t.Fatalf("seed %d op %d: Get(%d) = %p, model wants %p", seed, op, k, fv, live[k])
				}
			}
			if fast.Len() != ref.Len() || fast.Len() != len(live) {
				t.Fatalf("seed %d op %d: Len fast=%d ref=%d model=%d", seed, op, fast.Len(), ref.Len(), len(live))
			}
		}
		// Full-content comparison via Range (order-insensitive).
		collect := func(m *Map[entry]) []uint64 {
			var ks []uint64
			m.Range(func(k uint64, v *entry) {
				if v == nil {
					t.Fatalf("Range yielded nil value for key %d", k)
				}
				ks = append(ks, k)
			})
			sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
			return ks
		}
		fk, rk := collect(fast), collect(ref)
		if len(fk) != len(rk) {
			t.Fatalf("seed %d: final key sets differ: %d vs %d", seed, len(fk), len(rk))
		}
		for i := range fk {
			if fk[i] != rk[i] {
				t.Fatalf("seed %d: key %d: fast has %d, ref has %d", seed, i, fk[i], rk[i])
			}
		}
	}
}

func TestMapBackwardShiftDeletion(t *testing.T) {
	// Force long probe chains (many keys, small table growth steps) and
	// delete from the middle of chains; every surviving key must stay
	// findable — the property backward-shift deletion exists to keep.
	m := NewRef[entry](false)
	var keys []uint64
	for i := uint64(0); i < 300; i++ {
		k := i << 6
		keys = append(keys, k)
		m.Put(k, &entry{id: k})
	}
	rng := rand.New(rand.NewSource(5))
	for len(keys) > 0 {
		i := rng.Intn(len(keys))
		m.Delete(keys[i])
		keys[i] = keys[len(keys)-1]
		keys = keys[:len(keys)-1]
		for _, k := range keys {
			if v := m.Get(k); v == nil || v.id != k {
				t.Fatalf("after deletion, key %d lost", k)
			}
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
}

func TestMapPutReplacesAndDeleteMissing(t *testing.T) {
	m := NewRef[entry](false)
	a, b := &entry{id: 1}, &entry{id: 2}
	m.Put(64, a)
	m.Put(64, b)
	if m.Len() != 1 || m.Get(64) != b {
		t.Fatalf("Put did not replace: len=%d", m.Len())
	}
	m.Delete(128) // absent: no-op
	if m.Len() != 1 {
		t.Fatalf("Delete(missing) changed Len to %d", m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put(nil) did not panic")
		}
	}()
	m.Put(7, nil)
}

func TestMapSteadyStateZeroAlloc(t *testing.T) {
	m := NewRef[entry](false)
	pool := NewPoolRef[entry](false)
	// Warm: reach the table's high-water mark and seed the free list.
	var held []*entry
	for i := uint64(0); i < 256; i++ {
		e := pool.Get()
		e.id = i
		m.Put(i<<6, e)
		held = append(held, e)
	}
	for i, e := range held {
		m.Delete(uint64(i) << 6)
		pool.Put(e)
	}
	if n := testing.AllocsPerRun(1000, func() {
		for i := uint64(0); i < 64; i++ {
			e := pool.Get()
			e.id = i
			m.Put(i<<6, e)
		}
		for i := uint64(0); i < 64; i++ {
			k := i << 6
			pool.Put(m.Get(k))
			m.Delete(k)
		}
	}); n != 0 {
		t.Fatalf("steady-state put/get/delete allocates %v allocs/op, want 0", n)
	}
}

func TestPoolRecyclesFastAndFreshRef(t *testing.T) {
	fast := NewPoolRef[entry](false)
	a := fast.Get()
	a.id = 99
	fast.Put(a)
	b := fast.Get()
	if b != a {
		t.Fatal("fast pool did not recycle the freed struct")
	}
	if b.id != 99 {
		t.Fatal("fast pool zeroed the struct; reset is the caller's job")
	}

	ref := NewPoolRef[entry](true)
	c := ref.Get()
	c.id = 99
	ref.Put(c)
	d := ref.Get()
	if d == c {
		t.Fatal("reference pool recycled memory; it must always allocate fresh")
	}
	if d.id != 0 {
		t.Fatal("reference pool returned a non-zero struct")
	}
}

func TestPoolSlabContiguity(t *testing.T) {
	p := NewPoolRef[entry](false)
	var got []*entry
	for i := 0; i < poolChunk+5; i++ {
		got = append(got, p.Get())
	}
	// Entries within one slab are contiguous; all must be distinct.
	seen := map[*entry]bool{}
	for _, e := range got {
		if seen[e] {
			t.Fatal("pool returned the same struct twice without a Put")
		}
		seen[e] = true
	}
	p.Put(nil) // tolerated no-op
}

// TestPoolSlabsDouble: a pool that hands out four structs has allocated
// four, not poolChunk; slabs double from poolFirst and stay at poolChunk.
func TestPoolSlabsDouble(t *testing.T) {
	p := NewPool[entry]()
	var slabs []int
	for i := 0; i < 4+8+16+32+64+64; i++ {
		fresh := len(p.slab) == 0 // this Get allocates a slab
		p.Get()
		if fresh {
			slabs = append(slabs, len(p.slab)+1)
		}
	}
	if want := []int{poolFirst, 8, 16, 32, poolChunk, poolChunk}; !reflect.DeepEqual(slabs, want) {
		t.Fatalf("slab sizes %v, want %v", slabs, want)
	}
}

// TestRecordsIDs: ids are dense from 1 and name their struct; the fast
// side recycles an id with its struct and steady churn allocates
// nothing, the reference side hands out fresh structs under fresh ids.
func TestRecordsIDs(t *testing.T) {
	fast := NewRecordsRef[entry](false)
	a, ea := fast.Get()
	b, eb := fast.Get()
	if a != 1 || b != 2 || fast.ByID(a) != ea || fast.ByID(b) != eb || ea == eb {
		t.Fatalf("ids %d, %d: want 1, 2 naming two distinct structs", a, b)
	}
	fast.Put(a)
	if c, ec := fast.Get(); c != a || ec != ea {
		t.Fatalf("recycled id %d (struct reused: %v), want id %d with its struct", c, ec == ea, a)
	}
	live := 0
	fast.Range(func(uint32, *entry) { live++ })
	if live != 2 {
		t.Fatalf("Range visited %d records, want 2", live)
	}
	if n := testing.AllocsPerRun(100, func() { id, _ := fast.Get(); fast.Put(id) }); n != 0 {
		t.Fatalf("Get/Put churn allocates %.1f/op, want 0", n)
	}

	ref := NewRecordsRef[entry](true)
	a, ea = ref.Get()
	ea.id = 7
	ref.Put(a)
	b, eb = ref.Get()
	if b == a || eb == ea || eb.id != 0 {
		t.Fatalf("reference records reused id %d or its struct", a)
	}
	live = 0
	ref.Range(func(uint32, *entry) { live++ })
	if live != 1 {
		t.Fatalf("reference Range visited %d records, want the 1 not retired", live)
	}
}

func BenchmarkMapGetHit(b *testing.B) {
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"fast", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m := NewRef[entry](mode.ref)
			for i := uint64(0); i < 1024; i++ {
				m.Put(i<<6, &entry{id: i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Get(uint64(i%1024)<<6) == nil {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkMapChurn(b *testing.B) {
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"fast", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m := NewRef[entry](mode.ref)
			p := NewPoolRef[entry](mode.ref)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i%512) << 6
				if e := m.Get(k); e != nil {
					m.Delete(k)
					p.Put(e)
				} else {
					m.Put(k, p.Get())
				}
			}
		})
	}
}
