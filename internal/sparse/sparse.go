// Package sparse stores set-associative predictor tables whose sets are
// allocated when a run first trains them.
//
// A table is a Dir plus one Store per array of per-set entries. The Dir
// maps each logical set to a slot, in first-touch order; a probe of a set
// that was never placed is answered by the directory alone. A Store holds
// the placed sets' entries in chunks that double in size, so a store
// reaches k sets in O(log k) allocations, never moves an entry, and never
// holds more than the whole table. TCP-8M's 2 M-entry PHT and DBCP-2M's
// correlation table touch a small fraction of their sets in a run, so a
// machine allocates, and the runtime zeroes, only those.
package sparse

import "math/bits"

// firstSets is the size, in sets, of a store's first chunk (or of the
// whole table, if smaller). Chunk k holds firstSets<<k sets.
const firstSets = 4096

// maxChunks bounds a store's chunks: slots are below 2^32, so even a first
// chunk of one set leaves at most 33 chunks.
const maxChunks = 33

// Dir is the per-set directory of a demand-allocated table.
type Dir struct {
	slots []uint32 // per logical set: 0 = never placed, else 1 + the set's slot
	n     int      // sets placed; they occupy slots 0..n-1
	shift uint     // log2 of the first chunk's sets
}

// Loc is where a placed set's entries sit in every store of its table.
type Loc struct {
	chunk int // chunk index
	off   int // the set's position within the chunk, in sets
}

// NewDir returns the directory of a table with sets logical sets, none
// placed.
func NewDir(sets int) Dir {
	return Dir{slots: make([]uint32, sets), shift: uint(bits.Len(uint(min(sets, firstSets)))) - 1}
}

// Sets returns the number of logical sets.
func (d *Dir) Sets() int { return len(d.slots) }

// Find returns the location of set's entries, or false if the set was
// never placed.
func (d *Dir) Find(set uint64) (Loc, bool) {
	v := d.slots[set]
	if v == 0 {
		return Loc{}, false
	}
	return d.loc(int(v) - 1), true
}

// Place returns the location of set's entries, placing the set in the
// next free slot if it was never placed. fresh reports a new placement:
// the caller must then Add the location to every store of the table.
func (d *Dir) Place(set uint64) (l Loc, fresh bool) {
	if v := d.slots[set]; v != 0 {
		return d.loc(int(v) - 1), false
	}
	d.n++
	d.slots[set] = uint32(d.n)
	return d.loc(d.n - 1), true
}

// loc maps a slot to its chunk: for a first chunk of f sets, chunk k holds
// slots [f(2^k-1), f(2^(k+1)-1)).
func (d *Dir) loc(slot int) Loc {
	k := uint(bits.Len(uint(slot>>d.shift+1))) - 1
	return Loc{chunk: int(k), off: slot + 1<<d.shift - 1<<(d.shift+k)}
}

// Reset unplaces every set. The stores keep their chunks: Add clears a
// reused set when it is placed again.
func (d *Dir) Reset() {
	clear(d.slots)
	d.n = 0
}

// Store is one array of a table's per-set entries, width entries per set.
type Store[E any] struct {
	width  int
	chunks [maxChunks][]E // nil until the first set placed in the chunk
}

// NewStore returns an empty store of width entries per set.
func NewStore[E any](width int) Store[E] { return Store[E]{width: width} }

// At returns the entries of the set at l.
func (s *Store[E]) At(l Loc) []E {
	return s.chunks[l.chunk][l.off*s.width:][:s.width]
}

// Add makes room for the set just placed at l in the table with directory
// d, and zeroes its entries. Sets are placed in slot order, so the first
// set placed in a chunk allocates it.
func (s *Store[E]) Add(d *Dir, l Loc) {
	if s.chunks[l.chunk] != nil {
		clear(s.At(l)) // a chunk kept across Dir.Reset holds stale entries
		return
	}
	first := 1 << d.shift
	start := first<<l.chunk - first // sets in chunks 0..l.chunk-1
	s.chunks[l.chunk] = make([]E, min(first<<l.chunk, d.Sets()-start)*s.width)
}
