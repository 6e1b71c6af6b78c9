package sparse

import "testing"

// TestPlaceFindDisjoint places every set of a table in a scattered order
// and requires each set to keep its own entries: Find agrees with Place,
// no two sets share an entry, and the chunks add up to exactly the table.
func TestPlaceFindDisjoint(t *testing.T) {
	for _, sets := range []int{1, 3, 64, firstSets, firstSets + 904, 4 * firstSets, 16 * firstSets} {
		d := NewDir(sets)
		s := NewStore[int](3)
		for i := range sets {
			set := uint64(i*7919) % uint64(sets) // 7919 is prime: a permutation
			if _, ok := d.Find(set); ok {
				t.Fatalf("%d sets: set %d found before it was placed", sets, set)
			}
			l, fresh := d.Place(set)
			if !fresh {
				t.Fatalf("%d sets: first Place of set %d not fresh", sets, set)
			}
			s.Add(&d, l)
			for w, e := range s.At(l) {
				if e != 0 {
					t.Fatalf("%d sets: set %d way %d placed holding %d", sets, set, w, e)
				}
				s.At(l)[w] = int(set)*3 + w + 1
			}
		}
		total := 0
		for _, c := range s.chunks {
			total += len(c)
		}
		if total != sets*3 {
			t.Errorf("%d sets: chunks hold %d entries, want %d", sets, total, sets*3)
		}
		for set := range uint64(sets) {
			l, ok := d.Find(set)
			if !ok {
				t.Fatalf("%d sets: set %d not found", sets, set)
			}
			if again, fresh := d.Place(set); fresh || again != l {
				t.Fatalf("%d sets: re-Place of set %d = %+v fresh=%v, want %+v", sets, set, again, fresh, l)
			}
			for w, e := range s.At(l) {
				if want := int(set)*3 + w + 1; e != want {
					t.Fatalf("%d sets: set %d way %d = %d, want %d", sets, set, w, e, want)
				}
			}
		}
	}
}

// TestChunksDouble pins the growth schedule: the first chunk holds
// firstSets sets (or the whole table), each later one twice the last, and
// the last is cut to the table.
func TestChunksDouble(t *testing.T) {
	sets := 16 * firstSets
	d := NewDir(sets)
	s := NewStore[byte](1)
	for i := range uint64(sets) {
		l, _ := d.Place(i)
		s.Add(&d, l)
	}
	want := []int{firstSets, 2 * firstSets, 4 * firstSets, 8 * firstSets, firstSets}
	for k, c := range s.chunks {
		if k >= len(want) {
			if c != nil {
				t.Errorf("chunk %d allocated beyond the table", k)
			}
			continue
		}
		if len(c) != want[k] {
			t.Errorf("chunk %d holds %d sets, want %d", k, len(c), want[k])
		}
	}
	small := NewDir(64)
	l, _ := small.Place(63)
	ss := NewStore[byte](8)
	ss.Add(&small, l)
	if len(ss.chunks[0]) != 64*8 {
		t.Errorf("table of 64 sets: first chunk %d entries, want the whole table", len(ss.chunks[0]))
	}
}

// TestResetReusesChunks: after Reset no set is found, re-placed sets come
// back zeroed, and refilling the table allocates nothing.
func TestResetReusesChunks(t *testing.T) {
	sets := 2 * firstSets
	d := NewDir(sets)
	s := NewStore[uint64](2)
	fill := func(v uint64) {
		for i := range uint64(sets) {
			l, fresh := d.Place(uint64(sets) - 1 - i)
			if fresh {
				s.Add(&d, l)
			}
			e := s.At(l)
			if e[0] != 0 || e[1] != 0 {
				t.Fatalf("set %d placed with stale entries %v", i, e)
			}
			e[0], e[1] = v, v
		}
	}
	fill(1)
	d.Reset()
	if _, ok := d.Find(0); ok {
		t.Fatal("set found after Reset")
	}
	if allocs := testing.AllocsPerRun(3, func() { d.Reset(); fill(2) }); allocs != 0 {
		t.Errorf("refilling after Reset: %v allocations, want 0", allocs)
	}
}
