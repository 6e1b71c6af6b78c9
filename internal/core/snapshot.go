package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
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
	w.U32(uint32(len(t.pht)))
	for i := range t.pht {
		e := &t.pht[i]
		w.U64(uint64(e.tag))
		w.I64(e.used)
		w.Bool(e.valid)
		w.U64s(t.entryTargets(i))
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
	if n := int(r.U32()); r.Err() == nil && n != len(t.pht) {
		return fmt.Errorf("tcp: checkpoint PHT %d entries, want %d", n, len(t.pht))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range t.pht {
		e := &t.pht[i]
		tag := r.U64()
		e.used = r.I64()
		e.valid = r.Bool()
		n := r.U32()
		if tag > t.tagMask {
			return fmt.Errorf("%w: tcp: PHT entry %d tag %#x wider than %d bits",
				checkpoint.ErrCorrupt, i, tag, t.cfg.TagBits)
		}
		if n > uint32(t.cfg.Targets) {
			return fmt.Errorf("%w: tcp: PHT entry %d holds %d targets, max %d",
				checkpoint.ErrCorrupt, i, n, t.cfg.Targets)
		}
		e.tag, e.n = uint32(tag), uint16(n)
		// Read the targets in place: a fresh slice per entry would be 2 M
		// allocations for a TCP-8M image.
		targets := t.entryTargets(i)
		for j := range targets {
			targets[j] = r.U64()
		}
	}
	for _, m := range t.ctr.metrics() {
		m.(*telemetry.Counter).Store(r.U64())
	}
	return r.Err()
}
