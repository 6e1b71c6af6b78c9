package cache

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
)

func TestMSHRAllocateAndMerge(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	a := addr.Addr(0x1000)
	m, ok := f.Allocate(g, a, 100, false)
	if !ok || m == nil || m.Demands != 1 {
		t.Fatalf("alloc = %+v ok=%v", m, ok)
	}
	// Same block, different offset: merges.
	m2, ok := f.Allocate(g, a+8, 120, false)
	if !ok || m2 != m || m2.Demands != 2 {
		t.Fatalf("merge = %+v ok=%v", m2, ok)
	}
	if f.InFlight() != 1 {
		t.Errorf("in flight = %d", f.InFlight())
	}
	s := f.Stats()
	if s.Allocations != 1 || s.Merges != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(2)
	f.Allocate(g, 0x0000, 50, false)
	f.Allocate(g, 0x2000, 80, false)
	if _, ok := f.Allocate(g, 0x4000, 90, false); ok {
		t.Fatal("allocation succeeded on full file")
	}
	if f.Stats().FullStalls != 1 {
		t.Errorf("full stalls = %d", f.Stats().FullStalls)
	}
	if f.EarliestReady() != 50 {
		t.Errorf("earliest = %d, want 50", f.EarliestReady())
	}
	if n := f.ReleaseBefore(50); n != 1 {
		t.Errorf("released %d, want 1", n)
	}
	if _, ok := f.Allocate(g, 0x4000, 90, false); !ok {
		t.Error("allocation failed after release")
	}
}

func TestMSHRPrefetchPromotion(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	m, _ := f.Allocate(g, 0x1000, 100, true)
	if !m.Prefetch || m.Demands != 0 {
		t.Fatalf("prefetch entry = %+v", m)
	}
	// A demand miss to the same in-flight block demotes it to a demand miss.
	m2, _ := f.Allocate(g, 0x1000, 100, false)
	if m2.Prefetch || m2.Demands != 1 {
		t.Errorf("promoted entry = %+v", m2)
	}
}

func TestMSHRLookup(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	if _, ok := f.Lookup(g, 0x1000); ok {
		t.Error("lookup hit on empty file")
	}
	f.Allocate(g, 0x1000, 10, false)
	if m, ok := f.Lookup(g, 0x1010); !ok || m.ReadyAt != 10 {
		t.Errorf("lookup = %+v ok=%v", m, ok)
	}
}

func TestMSHREmptyEarliestAndReset(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(3)
	if f.EarliestReady() != 0 {
		t.Errorf("earliest on empty = %d", f.EarliestReady())
	}
	f.Allocate(g, 0x1000, 10, false)
	f.Reset()
	if f.InFlight() != 0 || f.Stats().Allocations != 0 {
		t.Error("reset incomplete")
	}
	if f.Capacity() != 3 {
		t.Errorf("capacity = %d", f.Capacity())
	}
}

func TestMSHRBadCapacityClamped(t *testing.T) {
	f := NewMSHRFile(0)
	if f.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", f.Capacity())
	}
}

// naiveMSHR is the obviously-correct model the file is checked against:
// the in-flight entries in a slice, searched linearly.
type naiveMSHR struct {
	capacity int
	entries  []MSHR
	stats    MSHRStats
}

func (n *naiveMSHR) find(id uint64) int {
	return slices.IndexFunc(n.entries, func(e MSHR) bool { return e.Block == id })
}

func (n *naiveMSHR) allocate(id uint64, readyAt int64, prefetch bool) (MSHR, bool) {
	if i := n.find(id); i >= 0 {
		n.stats.Merges++
		if !prefetch {
			n.entries[i].Demands++
			n.entries[i].Prefetch = false
		}
		return n.entries[i], true
	}
	if len(n.entries) >= n.capacity {
		n.stats.FullStalls++
		return MSHR{}, false
	}
	e := MSHR{Block: id, ReadyAt: readyAt, Prefetch: prefetch}
	if !prefetch {
		e.Demands = 1
	}
	n.stats.Allocations++
	n.entries = append(n.entries, e)
	return e, true
}

func (n *naiveMSHR) remove(id uint64) {
	n.entries = slices.DeleteFunc(n.entries, func(e MSHR) bool { return e.Block == id })
}

func (n *naiveMSHR) releaseBefore(now int64) int {
	before := len(n.entries)
	n.entries = slices.DeleteFunc(n.entries, func(e MSHR) bool { return e.ReadyAt <= now })
	return before - len(n.entries)
}

func (n *naiveMSHR) earliestReady() int64 {
	earliest := int64(0)
	for _, e := range n.entries {
		if earliest == 0 || e.ReadyAt < earliest {
			earliest = e.ReadyAt
		}
	}
	return earliest
}

// liveEntries lists the file's in-flight entries in block order, without
// their pool frames, for comparison with the naive model.
func liveEntries(f *MSHRFile) []MSHR {
	var out []MSHR
	for i := range f.pool {
		if m := &f.pool[i]; m.slot >= 0 {
			e := *m
			e.slot, e.gen = 0, 0
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// TestMSHRFastIndexEquivalence drives the file (chained index, sorted
// ready queue) and the naive slice model through the same pseudo-random
// sequence of Allocate, Lookup, Remove, ReleaseBefore, EarliestReady,
// Quiesce and Save→Restore, and demands identical observables after every
// step: returned entries, release counts, stall horizon, the full set of
// in-flight entries, and activity counters. Capacities span a single
// entry, an odd size, the Table 1 file and a file far larger than the
// block range, so the full-file, out-of-order insertion and queue
// compaction paths all run under load.
func TestMSHRFastIndexEquivalence(t *testing.T) {
	g := l1geom()
	for _, capacity := range []int{1, 3, 64, 2048} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			f := NewMSHRFile(capacity)
			ref := &naiveMSHR{capacity: capacity}

			rng := uint64(0x9E3779B97F4A7C15) + uint64(capacity) // deterministic LCG state
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			blocks := uint64(4 * capacity) // enough reuse for merges and tombstones
			if blocks > 512 {
				blocks = 512
			}

			now := int64(0)
			for step := 0; step < 20000; step++ {
				now++
				id := next(blocks)
				a := addr.Addr(id * uint64(g.BlockBytes()))
				switch op := next(16); {
				case op < 6: // allocate or merge
					ready := now + 1 + int64(next(200))
					pf := next(4) == 0
					m, ok := f.Allocate(g, a, ready, pf)
					want, wantOK := ref.allocate(id, ready, pf)
					if ok != wantOK || ok && (m.Block != want.Block || m.ReadyAt != want.ReadyAt ||
						m.Demands != want.Demands || m.Prefetch != want.Prefetch) {
						t.Fatalf("step %d: Allocate = %+v, %v; want %+v, %v", step, m, ok, want, wantOK)
					}
				case op < 9: // lookup
					m, ok := f.Lookup(g, a)
					i := ref.find(id)
					if ok != (i >= 0) || ok && m.ReadyAt != ref.entries[i].ReadyAt {
						t.Fatalf("step %d: Lookup = %+v, %v; naive index %d", step, m, ok, i)
					}
				case op < 11: // retire one entry
					f.Remove(g, a)
					ref.remove(id)
				case op < 13: // bulk release, as the full-file stall path does
					h := now - int64(next(100))
					if got, want := f.ReleaseBefore(h), ref.releaseBefore(h); got != want {
						t.Fatalf("step %d: ReleaseBefore(%d) = %d, want %d", step, h, got, want)
					}
				case op < 14: // stall horizon
					if got, want := f.EarliestReady(), ref.earliestReady(); got != want {
						t.Fatalf("step %d: EarliestReady = %d, want %d", step, got, want)
					}
				case op < 15: // clamp completions, as the fast-warmup boundary does
					horizon := now + int64(next(50))
					f.Quiesce(horizon)
					for i := range ref.entries {
						ref.entries[i].ReadyAt = min(ref.entries[i].ReadyAt, horizon)
					}
				default: // checkpoint and restore in place
					w := checkpoint.NewWriter()
					if err := f.Save(w); err != nil {
						t.Fatal(err)
					}
					r, err := checkpoint.NewReader(w.Finish())
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Restore(r); err != nil {
						t.Fatalf("step %d: Restore: %v", step, err)
					}
				}
				if f.InFlight() != len(ref.entries) {
					t.Fatalf("step %d: InFlight = %d, want %d", step, f.InFlight(), len(ref.entries))
				}
				if step%64 == 0 {
					want := slices.Clone(ref.entries)
					sort.Slice(want, func(i, j int) bool { return want[i].Block < want[j].Block })
					if got := liveEntries(f); !slices.Equal(got, want) {
						t.Fatalf("step %d: entries\n%+v\nwant\n%+v", step, got, want)
					}
				}
			}
			if got := f.Stats(); got != ref.stats {
				t.Fatalf("stats = %+v, want %+v", got, ref.stats)
			}
		})
	}
}

// mshrImage encodes an "mshr" section holding the given block IDs, in the
// given order, each completing at cycle 100.
func mshrImage(t *testing.T, blocks ...uint64) *checkpoint.Reader {
	t.Helper()
	w := checkpoint.NewWriter()
	w.Section("mshr")
	w.U64(0)
	w.U64(uint64(len(blocks)))
	w.U64(0)
	w.U32(uint32(len(blocks)))
	for _, b := range blocks {
		w.U64(b)
		w.I64(100)
		w.Int(1)
		w.Bool(false)
	}
	r, err := checkpoint.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMSHRRestoreRejectsCorruptEntryList: Save writes entries in strictly
// ascending block order and never more than the capacity, so any other
// entry list is a corrupt image. A duplicate block in particular would
// occupy two frames while the index finds only one — a phantom entry that
// never retires and permanently costs capacity.
func TestMSHRRestoreRejectsCorruptEntryList(t *testing.T) {
	for _, tc := range []struct {
		label  string
		blocks []uint64
	}{
		{"duplicate block", []uint64{7, 7}},
		{"descending blocks", []uint64{9, 7}},
		{"over capacity", []uint64{1, 2, 3}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			f := NewMSHRFile(2)
			err := f.Restore(mshrImage(t, tc.blocks...))
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("Restore(%v) = %v, want an error wrapping checkpoint.ErrCorrupt", tc.blocks, err)
			}
		})
	}

	// The well-formed image restores in full and frees its capacity.
	f := NewMSHRFile(2)
	if err := f.Restore(mshrImage(t, 7, 9)); err != nil {
		t.Fatal(err)
	}
	if f.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", f.InFlight())
	}
	if n := f.ReleaseBefore(1000); n != 2 || f.InFlight() != 0 {
		t.Fatalf("ReleaseBefore retired %d, %d left in flight; want 2, 0", n, f.InFlight())
	}
	g := l1geom()
	for _, a := range []addr.Addr{0x1000, 0x2000} {
		if _, ok := f.Allocate(g, a, 2000, false); !ok {
			t.Fatalf("Allocate(%#x) refused after the restored entries retired", a)
		}
	}
}
