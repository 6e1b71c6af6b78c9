package cpu

import (
	"testing"

	"tagprefetch/internal/xrand"
)

// naiveIssue is the reference scoreboard booking: scan for the first unit
// with the smallest free time, issue at max(ready, that time), and hold
// the unit for one cycle.
func naiveIssue(freeAt []int64, ready int64) int64 {
	best := 0
	for i := 1; i < len(freeAt); i++ {
		if freeAt[i] < freeAt[best] {
			best = i
		}
	}
	at := ready
	if freeAt[best] > at {
		at = freeAt[best]
	}
	freeAt[best] = at + 1
	return at
}

// TestFUPoolIssueMatchesNaive drives the branch-free issue and the naive
// scan with the same random booking sequences, for every pool size the
// machine could have from 1 to 8 units. The issue cycle and the whole
// freeAt array must agree after every call: checkpoints store freeAt per
// unit, so the tie-break (lowest index) is observable.
func TestFUPoolIssueMatchesNaive(t *testing.T) {
	rng := xrand.New(11)
	for n := 1; n <= 8; n++ {
		for seq := 0; seq < 50; seq++ {
			pool := newPool(n)
			ref := make([]int64, n)
			now := int64(0)
			for call := 0; call < 400; call++ {
				// Mostly clustered ready times, so units tie and queue;
				// sometimes a jump ahead, sometimes far behind.
				switch rng.Intn(8) {
				case 0:
					now += int64(rng.Intn(1000))
				case 1:
					now -= int64(rng.Intn(int(now) + 1))
				default:
					now += int64(rng.Intn(3))
				}
				got, want := pool.issue(now), naiveIssue(ref, now)
				if got != want {
					t.Fatalf("n=%d seq %d call %d: issue(%d) = %d, want %d", n, seq, call, now, got, want)
				}
				for i := range ref {
					if pool.freeAt[i] != ref[i] {
						t.Fatalf("n=%d seq %d call %d: freeAt %v, want %v", n, seq, call, pool.freeAt, ref)
					}
				}
			}
		}
	}
}
