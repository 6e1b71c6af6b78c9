package cache

import (
	"math/bits"

	"tagprefetch/internal/addr"
)

// MSHRFile models the miss status holding registers of the L1 data cache
// (Table 1: 64 MSHRs). Each entry tracks one in-flight block fill; misses to
// a block that is already in flight merge into the existing entry instead of
// issuing a second request. When the file is full, further misses must stall
// until an entry retires.
//
// Entries live in a fixed pool of frames. A chained hash index maps block
// IDs to frames: lookups hash the block ID and walk a short chain (under
// one entry on average) through the pool. Completion times are kept in a
// ready queue of (ReadyAt, frame, generation) pairs sorted by ReadyAt. Fills
// complete roughly in allocation order, so Allocate inserts from the tail
// in a step or two, and the full-file stall path (EarliestReady,
// ReleaseBefore) reads and pops the head. Retirement is lazy: a stall
// retires every completed entry at once.
//
// Every placement into a frame takes a fresh generation number, and a pair
// is live iff its frame is occupied under the pair's generation, so each
// in-flight entry has exactly one live pair. Remove leaves its pair in the
// queue as a tombstone, popped when it reaches the head or dropped when
// the queue runs out of room and is compacted. Pool frames and generations
// are never serialised (Save writes entries in block-ID order), so the
// order in which frames are recycled is not observable.
type MSHRFile struct {
	capacity int         //tcp:nosnap geometry fixed at construction; Restore validates the decoded entry count against it
	pool     []MSHR      // backing store rebuilt by Restore from the decoded entry list
	free     []int32     //tcp:nosnap free frames, rebuilt by Restore from the decoded entry list
	heads    []int32     //tcp:nosnap chain head frame per bucket (-1: empty), rebuilt by Restore
	next     []int32     //tcp:nosnap chain link per pool frame, rebuilt by Restore
	shift    uint        //tcp:nosnap bucket-table geometry fixed at construction
	ready    []mshrReady //tcp:nosnap ready queue storage, twice the capacity; Restore rebuilds the queue from the decoded entry list
	head     int         //tcp:nosnap the queue is ready[head:tail], rebuilt by Restore
	tail     int         //tcp:nosnap see head
	count    int         // in-flight tally mirroring the entry set, rebuilt with it
	gen      uint32      //tcp:nosnap placement counter; generations only need to differ while a pair is queued

	merges    uint64
	allocs    uint64
	fullStall uint64
}

// MSHR is one in-flight miss. Entries live in the file's fixed pool, so
// pointers returned by Lookup/Allocate are only valid while the entry is
// in flight.
type MSHR struct {
	Block    uint64 // block ID
	ReadyAt  int64  // cycle the fill completes
	Demands  int    // number of demand accesses merged into this miss
	Prefetch bool   // initiated by a prefetch (no demand yet)

	slot int32  // pool frame index while in flight, -1 while the frame is free
	gen  uint32 // generation of the placement into the frame
}

// mshrReady is one ready-queue pair; see the MSHRFile doc for the
// staleness rule.
type mshrReady struct {
	readyAt int64
	slot    int32
	gen     uint32
}

// NewMSHRFile creates a file with the given capacity (must be positive).
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		capacity = 1
	}
	buckets := 8
	for buckets < 4*capacity {
		buckets *= 2
	}
	f := &MSHRFile{
		capacity: capacity,
		pool:     make([]MSHR, capacity),
		free:     make([]int32, 0, capacity),
		heads:    make([]int32, buckets),
		next:     make([]int32, capacity),
		shift:    uint(64 - bits.TrailingZeros(uint(buckets))),
		ready:    make([]mshrReady, 2*capacity),
	}
	f.clear()
	return f
}

// clear empties the file in place: every pool frame free, every chain and
// the ready queue empty. Counters are untouched.
func (f *MSHRFile) clear() {
	f.free = f.free[:0]
	for i := f.capacity - 1; i >= 0; i-- {
		f.free = append(f.free, int32(i))
		f.pool[i].slot = -1
	}
	for i := range f.heads {
		f.heads[i] = -1
	}
	f.head, f.tail = 0, 0
	f.count = 0
}

// Capacity returns the number of entries.
func (f *MSHRFile) Capacity() int { return f.capacity }

// InFlight returns the number of occupied entries.
func (f *MSHRFile) InFlight() int { return f.count }

// bucket hashes a block ID into the chain table (Fibonacci hashing on a
// power-of-two table).
func (f *MSHRFile) bucket(id uint64) uint64 {
	return (id * 0x9E3779B97F4A7C15) >> f.shift
}

// get returns the in-flight entry for block id, or nil.
func (f *MSHRFile) get(id uint64) *MSHR {
	for s := f.heads[f.bucket(id)]; s >= 0; s = f.next[s] {
		if f.pool[s].Block == id {
			return &f.pool[s]
		}
	}
	return nil
}

// place takes a free pool frame, writes e into it and links it into the
// index and the ready queue. The block must not be in flight and the file
// must not be full.
func (f *MSHRFile) place(e MSHR) *MSHR {
	slot := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.gen++
	e.slot, e.gen = slot, f.gen
	f.pool[slot] = e
	b := f.bucket(e.Block)
	f.next[slot] = f.heads[b]
	f.heads[b] = slot
	f.count++
	f.pushReady(mshrReady{readyAt: e.ReadyAt, slot: slot, gen: e.gen})
	return &f.pool[slot]
}

// unlink drops m from the index and recycles its pool frame. The entry
// must be present.
func (f *MSHRFile) unlink(m *MSHR) {
	b := f.bucket(m.Block)
	if f.heads[b] == m.slot {
		f.heads[b] = f.next[m.slot]
	} else {
		for s := f.heads[b]; ; s = f.next[s] {
			if f.next[s] == m.slot {
				f.next[s] = f.next[m.slot]
				break
			}
		}
	}
	f.free = append(f.free, m.slot)
	m.slot = -1
	f.count--
}

// Lookup returns the entry for block a under geometry g, if in flight.
func (f *MSHRFile) Lookup(g addr.Geometry, a addr.Addr) (*MSHR, bool) {
	m := f.get(g.BlockID(a))
	return m, m != nil
}

// Remove retires the entry for block a, if any. Its ready pair stays
// behind as a tombstone.
func (f *MSHRFile) Remove(g addr.Geometry, a addr.Addr) {
	if m := f.get(g.BlockID(a)); m != nil {
		f.unlink(m)
	}
}

// live returns the in-flight entry a ready pair denotes, or nil for a
// tombstone.
func (f *MSHRFile) live(e mshrReady) *MSHR {
	if m := &f.pool[e.slot]; m.slot >= 0 && m.gen == e.gen {
		return m
	}
	return nil
}

// ReleaseBefore retires every entry whose fill completed at or before now,
// returning the number retired. The simulator calls this as time advances.
func (f *MSHRFile) ReleaseBefore(now int64) int {
	n := 0
	for ; f.head < f.tail && f.ready[f.head].readyAt <= now; f.head++ {
		if m := f.live(f.ready[f.head]); m != nil {
			f.unlink(m)
			n++
		}
	}
	return n
}

// EarliestReady returns the soonest completion cycle among in-flight
// entries, or 0 when the file is empty.
func (f *MSHRFile) EarliestReady() int64 {
	for ; f.head < f.tail; f.head++ {
		if e := f.ready[f.head]; f.live(e) != nil {
			return e.readyAt
		}
	}
	return 0
}

// Allocate records a new in-flight miss for block a completing at readyAt.
// It returns the entry and true on success, or nil and false when the file
// is full (the caller must stall until EarliestReady and retry). If the
// block is already in flight the existing entry is returned with merged
// demand accounting and ok = true.
func (f *MSHRFile) Allocate(g addr.Geometry, a addr.Addr, readyAt int64, prefetch bool) (*MSHR, bool) {
	id := g.BlockID(a)
	if m := f.get(id); m != nil {
		f.merges++
		if !prefetch {
			m.Demands++
			m.Prefetch = false
		}
		return m, true
	}
	if f.count >= f.capacity {
		f.fullStall++
		return nil, false
	}
	e := MSHR{Block: id, ReadyAt: readyAt, Prefetch: prefetch}
	if !prefetch {
		e.Demands = 1
	}
	f.allocs++
	return f.place(e), true
}

// pushReady inserts a ready pair in ReadyAt order, first compacting the
// queue to the front of its storage, without tombstones, when the tail has
// reached the end. The storage holds twice the capacity and at most
// capacity pairs are live, so compaction leaves room for the insert.
func (f *MSHRFile) pushReady(e mshrReady) {
	if f.tail == len(f.ready) {
		n := 0
		for _, r := range f.ready[f.head:f.tail] {
			if f.live(r) != nil {
				f.ready[n] = r
				n++
			}
		}
		f.head, f.tail = 0, n
	}
	i := f.tail
	for i > f.head && f.ready[i-1].readyAt > e.readyAt {
		i--
	}
	copy(f.ready[i+1:f.tail+1], f.ready[i:f.tail])
	f.ready[i] = e
	f.tail++
}

// Quiesce clamps every in-flight entry's completion cycle to at most max
// and rebuilds the ready queue to match. Entries stay in flight — merges
// against them keep their semantics — but none completes later than max,
// bounding post-clamp stalls and merge windows. The fast-forward warmup
// boundary uses this with max = boundary + the worst-case fill latency:
// in-flight fills scheduled under the functional clock retire on the same
// horizon the cycle-accurate engine would give its own boundary
// stragglers, instead of at backlogged functional-clock times
// (docs/FASTFORWARD.md). The rebuild walks the fixed pool in frame order,
// so it is deterministic.
func (f *MSHRFile) Quiesce(max int64) {
	f.head, f.tail = 0, 0
	for i := range f.pool {
		m := &f.pool[i]
		if m.slot < 0 {
			continue // unoccupied frame
		}
		if m.ReadyAt > max {
			m.ReadyAt = max
		}
		f.pushReady(mshrReady{readyAt: m.ReadyAt, slot: m.slot, gen: m.gen})
	}
}

// MSHRStats summarises MSHR activity.
type MSHRStats struct {
	Allocations uint64
	Merges      uint64
	FullStalls  uint64
}

// Stats returns activity counters.
func (f *MSHRFile) Stats() MSHRStats {
	return MSHRStats{Allocations: f.allocs, Merges: f.merges, FullStalls: f.fullStall}
}

// Reset clears all entries and statistics.
func (f *MSHRFile) Reset() {
	f.clear()
	f.merges, f.allocs, f.fullStall = 0, 0, 0
}
