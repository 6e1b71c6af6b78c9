package dbcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/trace"
)

func saveDBCP(t *testing.T, d *DBCP) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	if err := d.Save(w); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func restoreDBCP(d *DBCP, img []byte) error {
	r, err := checkpoint.NewReader(img)
	if err != nil {
		return err
	}
	return d.Restore(r)
}

// train runs a few block lifetimes through set after set of the L1.
func train(d *DBCP, g addr.Geometry, lives int) {
	for i := range lives {
		set := uint32(i % 97)
		pcs := []addr.Addr{addr.Addr(0x400100 + 4*(i%5)), 0x400180}
		driveBlockLife(d, g, g.Compose(uint64(i%13), set), g.Compose(uint64(i%13+1), set), pcs)
	}
}

// TestSnapshotRoundTrip restores a trained table into a predictor holding
// other state and requires the same image back and the same predictions.
func TestSnapshotRoundTrip(t *testing.T) {
	g := l1()
	src := New(DBCP2M(g))
	train(src, g, 400)
	img := saveDBCP(t, src)

	dst := New(DBCP2M(g))
	train(dst, g, 17) // stale state the restore must replace
	if err := restoreDBCP(dst, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveDBCP(t, dst), img) {
		t.Fatal("restored DBCP saves a different image")
	}
	for i := range 50 {
		a := g.Compose(uint64(i%13), uint32(i%97))
		src.OnMiss(trace.MakeMiss(g, a, 0x400100, 0, false))
		dst.OnMiss(trace.MakeMiss(g, a, 0x400100, 0, false))
		x, y := src.OnAccess(a, 0x400100, 0, true), dst.OnAccess(a, 0x400100, 0, true)
		if len(x) != len(y) || len(x) > 0 && x[0] != y[0] {
			t.Fatalf("access %d: %+v vs %+v after restore", i, x, y)
		}
	}
}

// TestRestorePlacesInvalidWayState restores images in which one table
// set's only non-zero field belongs to an invalid way — its key, target or
// recency — and requires Save to write the same image back.
func TestRestorePlacesInvalidWayState(t *testing.T) {
	g := l1()
	cases := []struct {
		name string
		set  func(key *uint64, e *corrEntry)
	}{
		{"key", func(key *uint64, _ *corrEntry) { *key = 0x1234 }},
		{"target", func(_ *uint64, e *corrEntry) { e.target = 0x40 }},
		{"used", func(_ *uint64, e *corrEntry) { e.used = 9 }},
	}
	for _, tc := range cases {
		src := New(DBCP2M(g))
		l := src.place(20000)
		tc.set(&src.keys.At(l)[5], &src.table.At(l)[5])
		img := saveDBCP(t, src)

		dst := New(DBCP2M(g))
		if err := restoreDBCP(dst, img); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(saveDBCP(t, dst), img) {
			t.Errorf("%s: restored DBCP saves a different image", tc.name)
		}
	}
}

// TestNewFootprint guards the demand-allocated table: a fresh DBCP-2M
// holds its 128 KiB set directory and shadow, not the 8 MiB of keys and
// entries it would take if allocated up front.
func TestNewFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(DBCP2M(l1()))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
		t.Errorf("New(DBCP2M) allocated %d bytes, want <= 512 KiB", got)
	}
}

// TestRestoreTruncatedTable cuts a trained DBCP's section short inside the
// correlation table — in the first entry, mid-table, in the last entry —
// and requires a typed error, no panic, and a predictor that Reset returns
// to the fresh state.
func TestRestoreTruncatedTable(t *testing.T) {
	g := l1()
	cfg := Config{L1: g, TableEntries: 4096, Ways: 8}
	src := New(cfg)
	train(src, g, 300)
	img := saveDBCP(t, src)
	secs, err := checkpoint.Sections(img)
	if err != nil || len(secs) != 1 {
		t.Fatalf("sections = %v, %v; want one", secs, err)
	}
	payload := img[len(img)-4-secs[0].Len : len(img)-4] // before the CRC trailer
	// clock, shadow size, shadow entries (block, signature, valid), table size.
	tableStart := 8 + 4 + g.Sets()*(8+8+1) + 4
	tableEnd := len(payload) - 5*8 // the five Stats counters
	if n := binary.LittleEndian.Uint32(payload[tableStart-4:]); n != uint32(cfg.TableEntries) {
		t.Fatalf("table size field at %d reads %d: the test's layout arithmetic is stale", tableStart-4, n)
	}
	fresh := saveDBCP(t, New(cfg))
	for _, cut := range []int{tableStart + 3, (tableStart + tableEnd) / 2, tableEnd - 3} {
		w := checkpoint.NewWriter()
		w.Section("dbcp")
		w.Write(payload[:cut])
		dst := New(cfg)
		if err := restoreDBCP(dst, w.Finish()); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrCorrupt", cut, len(payload), err)
		}
		dst.Reset()
		if !bytes.Equal(saveDBCP(t, dst), fresh) {
			t.Fatalf("cut at %d: Reset after a failed restore does not give a fresh DBCP", cut)
		}
		ref := New(cfg)
		train(ref, g, 60)
		train(dst, g, 60)
		if !bytes.Equal(saveDBCP(t, dst), saveDBCP(t, ref)) {
			t.Fatalf("cut at %d: retrained DBCP differs from a fresh one trained alike", cut)
		}
	}
}
