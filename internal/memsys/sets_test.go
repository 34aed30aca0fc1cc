package memsys

import (
	"math/rand"
	"testing"

	"tusim/internal/config"
)

// denseSets is the table setTable replaced: one eager slice per set,
// swap-with-last removal. The model the property test diffs against.
type denseSets [][]*int

func (d denseSets) remove(s uint64, x *int) {
	for i, v := range d[s] {
		if v == x {
			d[s][i] = d[s][len(d[s])-1]
			d[s] = d[s][:len(d[s])-1]
			return
		}
	}
}

// TestSetTableMatchesDenseModel drives seeded random add/remove traffic
// through setTable and the dense table and requires every set to hold
// the same entries in the same way order after every step — way order
// feeds victim choice, so it is part of the contract — and that only
// pages holding a touched set exist.
func TestSetTableMatchesDenseModel(t *testing.T) {
	for _, sets := range []int{1, 2, setPage - 1, setPage, setPage + 1, setPage + 36, 1024} {
		rng := rand.New(rand.NewSource(int64(sets)))
		tab := newSetTable[int](sets)
		model := make(denseSets, sets)
		touched := map[uint64]bool{}
		var live []*int
		for step := 0; step < 4000; step++ {
			switch {
			case len(live) == 0 || rng.Intn(3) > 0:
				x := new(int)
				*x = rng.Intn(1 << 20)
				s := tab.of(uint64(*x) << 6)
				if s != uint64(*x)%uint64(sets) {
					t.Fatalf("sets=%d: of(line %d) = %d", sets, *x, s)
				}
				tab.add(s, x)
				model[s] = append(model[s], x)
				touched[s/setPage] = true
				live = append(live, x)
			case rng.Intn(8) == 0:
				// Removing an entry that is not resident changes nothing,
				// whether or not the set's page exists.
				s := uint64(rng.Intn(sets))
				tab.remove(s, new(int))
				model.remove(s, new(int))
			default:
				i := rng.Intn(len(live))
				x := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				s := tab.of(uint64(*x) << 6)
				tab.remove(s, x)
				model.remove(s, x)
			}
			for s := range model {
				got := tab.ways(uint64(s))
				if len(got) != len(model[s]) {
					t.Fatalf("sets=%d step %d: set %d holds %d ways, model %d", sets, step, s, len(got), len(model[s]))
				}
				for w := range got {
					if got[w] != model[s][w] {
						t.Fatalf("sets=%d step %d: set %d way %d differs from the model", sets, step, s, w)
					}
				}
			}
		}
		if want := (sets + setPage - 1) / setPage; len(tab.pages) != want {
			t.Errorf("sets=%d: %d page slots, want %d", sets, len(tab.pages), want)
		}
		for pg := range tab.pages {
			if (tab.pages[pg] != nil) != touched[uint64(pg)] {
				t.Errorf("sets=%d: page %d allocated=%v, touched=%v", sets, pg, tab.pages[pg] != nil, touched[uint64(pg)])
			}
		}
	}
}

// TestSetTableAllocatesOnFirstAdd: reading or removing from a set whose
// page does not exist allocates nothing; the first add to the last set
// of a table whose set count is not a page multiple allocates exactly
// that page.
func TestSetTableAllocatesOnFirstAdd(t *testing.T) {
	const sets = setPage + 36
	tab := newSetTable[int](sets)
	last := uint64(sets - 1)
	if tab.of(last<<6) != last || tab.of((last+sets)<<6) != last {
		t.Fatal("lines sets-1 and 2*sets-1 must share the last set")
	}
	if w := tab.ways(last); w != nil {
		t.Fatalf("untouched set has ways %v", w)
	}
	tab.remove(last, new(int))
	if tab.pages[0] != nil || tab.pages[1] != nil {
		t.Fatal("ways/remove allocated a page")
	}
	x := new(int)
	tab.add(last, x)
	if tab.pages[0] != nil || tab.pages[1] == nil {
		t.Fatal("first add must allocate the touched page only")
	}
	if w := tab.ways(last); len(w) != 1 || w[0] != x {
		t.Fatalf("ways after add = %v", w)
	}
}

// TestLLCEvictionInUntouchedPage runs the directory's allocate-or-evict
// path where it first meets the paged table: a 1-way LLC of setPage+36
// sets (not a page multiple) under one-line private caches, with three
// lines that all map to the last set. The first request's victim search
// reads a set whose page does not exist yet; the later ones must evict
// from it, and an evicted dirty line must still read back from memory.
func TestLLCEvictionInUntouchedPage(t *testing.T) {
	const sets = setPage + 36
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes, c.L1D.Ways = 64, 1
		c.L2.SizeBytes, c.L2.Ways = 64, 1
		c.L3.SizeBytes, c.L3.Ways = sets*64, 1
	})
	a, b, c := uint64((sets-1)<<6), uint64((2*sets-1)<<6), uint64((3*sets-1)<<6)
	r.mustWritable(t, 0, a)
	if !r.ps[0].StoreVisible(a, []byte{0x5A}) {
		t.Fatal("store failed")
	}
	if r.dir.sets.pages[0] != nil || r.dir.sets.pages[1] == nil {
		t.Fatal("only the last set's page should exist after one line")
	}
	r.mustLoad(t, 0, b, 8) // pushes a out of the one-line private caches
	r.mustLoad(t, 0, c, 8)
	r.mustLoad(t, 0, b, 8)
	// As under the eager table: b arrives while core 0 still owns a (one
	// counted overflow), c finds a written back and evicts it.
	ev, ov, ways := r.st.Get("llc_evictions"), r.st.Get("llc_set_overflow"), len(r.dir.sets.ways(sets-1))
	if ev != 1 || ov != 1 || ways != 2 {
		t.Fatalf("last set: %d evictions, %d overflows, %d entries; want 1, 1, 2", ev, ov, ways)
	}
	if r.dir.sets.pages[0] != nil {
		t.Fatal("traffic to the last set allocated the first page")
	}
	if got := r.mustLoad(t, 0, a, 1); got[0] != 0x5A {
		t.Fatalf("reload of the evicted dirty line = %#x, want 0x5A", got[0])
	}
}
