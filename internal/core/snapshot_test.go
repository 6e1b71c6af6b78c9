package core

import (
	"bytes"
	"errors"
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
