package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/sparse"
	"tagprefetch/internal/telemetry"
)

// Save implements checkpoint.Snapshotter, writing the THT rows, the PHT
// entries (tags, MRU target lists, recency), the correlation clock, and the
// predictor counters.
func (t *TCP) Save(w *checkpoint.Writer) error {
	w.Section("tcp")
	w.I64(t.clock)
	w.U32(uint32(len(t.tht)))
	w.U32(uint32(t.cfg.HistoryDepth))
	for _, row := range t.tht {
		for _, tag := range row {
			w.U64(tag)
		}
	}
	w.Ints(t.thtFill)
	ways := t.cfg.PHTWays
	w.U32(uint32(t.dir.Sets() * ways))
	for set := range t.dir.Sets() {
		l, placed := t.dir.Find(uint64(set))
		for way := range ways {
			// An untouched set serialises as zero entries, as if its ways
			// had been allocated and never trained.
			var e phtEntry
			var targets []uint64
			if placed {
				e = t.pht.At(l)[way]
				targets = t.wayTargets(l, way)[:e.n]
			}
			w.U64(uint64(e.tag))
			w.I64(e.used)
			w.Bool(e.valid)
			w.U64s(targets)
		}
	}
	for _, m := range t.ctr.metrics() {
		w.U64(m.(*telemetry.Counter).Value())
	}
	return nil
}

// Restore implements checkpoint.Snapshotter. The TCP must be configured
// identically to the one that was saved.
func (t *TCP) Restore(r *checkpoint.Reader) error {
	if err := r.Section("tcp"); err != nil {
		return err
	}
	t.clock = r.I64()
	rows, depth := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if rows != len(t.tht) || depth != t.cfg.HistoryDepth {
		return fmt.Errorf("tcp: checkpoint THT %dx%d, want %dx%d",
			rows, depth, len(t.tht), t.cfg.HistoryDepth)
	}
	for _, row := range t.tht {
		for j := range row {
			row[j] = r.U64()
		}
	}
	r.ReadInts(t.thtFill)
	ways := t.cfg.PHTWays
	if n := int(r.U32()); r.Err() == nil && n != t.dir.Sets()*ways {
		return fmt.Errorf("tcp: checkpoint PHT %d entries, want %d", n, t.dir.Sets()*ways)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Only sets holding a non-zero field are placed: an all-zero set
	// behaves exactly like one never trained, and Save writes it back as
	// the same zero entries.
	t.dir.Reset()
	for set := range t.dir.Sets() {
		var l sparse.Loc
		placed := false
		for way := range ways {
			i := set*ways + way
			tag := r.U64()
			used := r.I64()
			valid := r.Bool()
			n := r.U32()
			if tag > t.tagMask {
				return fmt.Errorf("%w: tcp: PHT entry %d tag %#x wider than %d bits",
					checkpoint.ErrCorrupt, i, tag, t.cfg.TagBits)
			}
			if n > uint32(t.cfg.Targets) {
				return fmt.Errorf("%w: tcp: PHT entry %d holds %d targets, max %d",
					checkpoint.ErrCorrupt, i, n, t.cfg.Targets)
			}
			if !placed && (tag != 0 || used != 0 || valid || n != 0) {
				l, placed = t.place(uint64(set)), true
			}
			if !placed {
				continue // n == 0: no targets follow
			}
			t.pht.At(l)[way] = phtEntry{used: used, tag: uint32(tag), n: uint16(n), valid: valid}
			// Read the targets in place: a fresh slice per entry would be
			// an allocation per trained entry.
			targets := t.wayTargets(l, way)[:n]
			for j := range targets {
				targets[j] = r.U64()
			}
		}
	}
	for _, m := range t.ctr.metrics() {
		m.(*telemetry.Counter).Store(r.U64())
	}
	return r.Err()
}
