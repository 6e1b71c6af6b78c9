package dbcp

import (
	"fmt"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/sparse"
)

// Save implements checkpoint.Snapshotter, writing the shadow directory,
// correlation table, clock, and statistics.
func (d *DBCP) Save(w *checkpoint.Writer) error {
	w.Section("dbcp")
	w.I64(d.clock)
	w.U32(uint32(len(d.shadow)))
	for i := range d.shadow {
		sh := &d.shadow[i]
		w.U64(uint64(sh.block))
		w.U64(sh.sig)
		w.Bool(sh.valid)
	}
	ways := d.cfg.Ways
	w.U32(uint32(d.dir.Sets() * ways))
	for set := range d.dir.Sets() {
		l, placed := d.dir.Find(uint64(set))
		for way := range ways {
			// An untouched set serialises as zero entries, as if its ways
			// had been allocated and never trained.
			var key uint64
			var e corrEntry
			if placed {
				key, e = d.keys.At(l)[way], d.table.At(l)[way]
			}
			w.U64(key)
			w.U64(uint64(e.target))
			w.I64(e.used)
			w.Bool(e.valid)
		}
	}
	w.U64(d.stats.Accesses)
	w.U64(d.stats.Misses)
	w.U64(d.stats.Deaths)
	w.U64(d.stats.Hits)
	w.U64(d.stats.Predictions)
	return nil
}

// Restore implements checkpoint.Snapshotter.
func (d *DBCP) Restore(r *checkpoint.Reader) error {
	if err := r.Section("dbcp"); err != nil {
		return err
	}
	d.clock = r.I64()
	if n := int(r.U32()); r.Err() == nil && n != len(d.shadow) {
		return fmt.Errorf("dbcp: checkpoint shadow %d entries, want %d", n, len(d.shadow))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range d.shadow {
		sh := &d.shadow[i]
		sh.block = addr.Addr(r.U64())
		sh.sig = r.U64()
		sh.valid = r.Bool()
	}
	ways := d.cfg.Ways
	if n := int(r.U32()); r.Err() == nil && n != d.dir.Sets()*ways {
		return fmt.Errorf("dbcp: checkpoint table %d entries, want %d", n, d.dir.Sets()*ways)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Only sets holding a non-zero field are placed: an all-zero set
	// behaves exactly like one never trained, and Save writes it back as
	// the same zero entries.
	d.dir.Reset()
	for set := range d.dir.Sets() {
		var l sparse.Loc
		placed := false
		for way := range ways {
			key := r.U64()
			target := addr.Addr(r.U64())
			used := r.I64()
			valid := r.Bool()
			if !placed && (key != 0 || target != 0 || used != 0 || valid) {
				l, placed = d.place(uint64(set)), true
			}
			if placed {
				d.keys.At(l)[way] = key
				d.table.At(l)[way] = corrEntry{target: target, used: used, valid: valid}
			}
		}
	}
	d.stats.Accesses = r.U64()
	d.stats.Misses = r.U64()
	d.stats.Deaths = r.U64()
	d.stats.Hits = r.U64()
	d.stats.Predictions = r.U64()
	return r.Err()
}
