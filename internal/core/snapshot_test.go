package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"tagprefetch/internal/checkpoint"
)

func saveTCP(t *testing.T, tcp *TCP) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	if err := tcp.Save(w); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func restoreTCP(tcp *TCP, img []byte) error {
	r, err := checkpoint.NewReader(img)
	if err != nil {
		return err
	}
	return tcp.Restore(r)
}

// TestSnapshotRoundTripMultiTarget restores a trained multi-target PHT in
// place and requires the same image back and the same predictions after.
func TestSnapshotRoundTripMultiTarget(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.Targets = 3
	src := New(cfg)
	for i := uint64(0); i < 40; i++ {
		feed(src, g, uint32(i%5), i%7, i%3, i%11, i%13)
	}
	img := saveTCP(t, src)

	dst := New(cfg)
	feed(dst, g, 1, 100, 200, 300) // stale state the restore must replace
	if err := restoreTCP(dst, img); err != nil {
		t.Fatal(err)
	}
	if got := saveTCP(t, dst); !bytes.Equal(got, img) {
		t.Fatal("restored TCP saves a different image")
	}
	for set := uint32(0); set < 5; set++ {
		a, b := feed(src, g, set, 1, 2), feed(dst, g, set, 1, 2)
		if len(a) != len(b) {
			t.Fatalf("set %d: %d vs %d requests after restore", set, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("set %d: request %d %+v vs %+v after restore", set, i, a[i], b[i])
			}
		}
	}
}

// TestRestoreRejectsCorruptPHT feeds images whose PHT entries cannot fit
// the receiving table: a stored tag wider than TagBits (it would be
// truncated into the 32-bit field) and more targets than an entry holds.
// Both must fail with an error wrapping checkpoint.ErrCorrupt.
func TestRestoreRejectsCorruptPHT(t *testing.T) {
	g := l1()
	wide := TCP8K(g)
	wide.TagBits = 32
	src := New(wide)
	feed(src, g, 0, 1<<20, 2<<20, 3<<20) // tags need 22 bits
	narrow := TCP8K(g)                   // TagBits 16
	err := restoreTCP(New(narrow), saveTCP(t, src))
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("16-bit TCP restoring 22-bit tags: err = %v, want ErrCorrupt", err)
	}

	multi := TCP8K(g)
	multi.Targets = 2
	src = New(multi)
	feed(src, g, 0, 1, 2, 3)
	feed(src, g, 0, 1, 2, 4) // (1,2) now holds two targets
	err = restoreTCP(New(TCP8K(g)), saveTCP(t, src))
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("1-target TCP restoring 2 targets: err = %v, want ErrCorrupt", err)
	}
}

// TestRestorePlacesInvalidWayState restores images in which one PHT set's
// only non-zero field belongs to an invalid way — its recency, its tag, or
// a target — and requires Save to write the same image back. A set is
// skipped on restore only when every field is zero, so no such state is
// dropped.
func TestRestorePlacesInvalidWayState(t *testing.T) {
	g := l1()
	cases := []struct {
		name string
		set  func(e *phtEntry, slots []uint64)
	}{
		{"used", func(e *phtEntry, _ []uint64) { e.used = 7 }},
		{"tag", func(e *phtEntry, _ []uint64) { e.tag = 0x2a }},
		{"target", func(e *phtEntry, slots []uint64) { e.n, slots[0] = 1, 0x99 }},
	}
	for _, tc := range cases {
		src := New(TCP8M(g))
		l := src.place(12345)
		tc.set(&src.pht.At(l)[3], src.wayTargets(l, 3))
		img := saveTCP(t, src)

		dst := New(TCP8M(g))
		if err := restoreTCP(dst, img); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := saveTCP(t, dst); !bytes.Equal(got, img) {
			t.Errorf("%s: restored TCP saves a different image", tc.name)
		}
	}
}

// TestNewFootprint guards the demand-allocated PHT: a fresh TCP-8M holds
// its 1 MiB set directory and THT, not the 48 MiB of PHT entries and
// targets it would take if allocated up front.
func TestNewFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tcp := New(TCP8M(l1()))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tcp)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("New(TCP8M) allocated %d bytes, want <= 2 MiB", got)
	}
}

// TestRestoreTruncatedPHT cuts a trained TCP's section short inside the
// PHT — in the first entry, mid-table, in the last entry — and requires a
// typed error, no panic, and a predictor that Reset returns to the fresh
// state.
func TestRestoreTruncatedPHT(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.Targets = 2
	src := New(cfg)
	for i := uint64(0); i < 200; i++ {
		feed(src, g, uint32(i%64), i%5, i%9, i%7)
	}
	payload := sectionPayload(t, saveTCP(t, src))
	rows := g.Sets()
	// clock, THT geometry, THT tags, THT fill (length-prefixed), PHT size.
	phtStart := 8 + 4 + 4 + rows*2*8 + 4 + rows*8 + 4
	phtEnd := len(payload) - 8*len(src.ctr.metrics())
	if n := binary.LittleEndian.Uint32(payload[phtStart-4:]); n != uint32(cfg.PHTSets*cfg.PHTWays) {
		t.Fatalf("PHT size field at %d reads %d: the test's layout arithmetic is stale", phtStart-4, n)
	}
	fresh := saveTCP(t, New(cfg))
	for _, cut := range []int{phtStart + 3, (phtStart + phtEnd) / 2, phtEnd - 3} {
		w := checkpoint.NewWriter()
		w.Section("tcp")
		w.Write(payload[:cut])
		dst := New(cfg)
		err := restoreTCP(dst, w.Finish())
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrCorrupt", cut, len(payload), err)
		}
		dst.Reset()
		if !bytes.Equal(saveTCP(t, dst), fresh) {
			t.Fatalf("cut at %d: Reset after a failed restore does not give a fresh TCP", cut)
		}
		ref := New(cfg)
		for i := uint64(0); i < 50; i++ {
			a, b := feed(ref, g, 3, i%4, i%6), feed(dst, g, 3, i%4, i%6)
			if len(a) != len(b) {
				t.Fatalf("cut at %d: miss %d predicts %d requests, fresh TCP %d", cut, i, len(b), len(a))
			}
		}
	}
}

// sectionPayload returns the payload of a single-section image, which
// sits between the section header and the CRC trailer.
func sectionPayload(t *testing.T, img []byte) []byte {
	t.Helper()
	secs, err := checkpoint.Sections(img)
	if err != nil || len(secs) != 1 {
		t.Fatalf("sections = %v, %v; want one", secs, err)
	}
	end := len(img) - 4
	return img[end-secs[0].Len : end]
}
