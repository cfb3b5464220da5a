package core

import (
	"math/rand"
	"testing"
)

// TestSpansMatchBitmapModel: random inserts — nested, spanning,
// adjacent, repeated — against a byte bitmap. After every insert the
// list is sorted, disjoint and non-adjacent, and covers exactly the
// bytes the model has set.
func TestSpansMatchBitmapModel(t *testing.T) {
	const size = 96
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l spans
		var model [size]bool
		for step := 0; step < 40; step++ {
			off := rng.Int63n(size)
			end := off + 1 + rng.Int63n(min(size-off, 24))
			if step%5 == 4 && len(l) > 0 {
				// Aim at an edge, so adjacency is exercised on purpose.
				r := l[rng.Intn(len(l))]
				if off = r.end; off >= size {
					off = 0
				}
				end = min(off+1+rng.Int63n(8), size)
			}
			l = l.add(off, end)
			for i := off; i < end; i++ {
				model[i] = true
			}
			for i, r := range l {
				if r.off >= r.end {
					t.Fatalf("seed %d step %d: empty span %v in %v", seed, step, r, l)
				}
				if i > 0 && l[i-1].end >= r.off {
					t.Fatalf("seed %d step %d: %v then %v overlap or touch in %v", seed, step, l[i-1], r, l)
				}
			}
			var got [size]bool
			for _, r := range l {
				for i := r.off; i < r.end; i++ {
					got[i] = true
				}
			}
			if got != model {
				t.Fatalf("seed %d step %d: after add(%d,%d) list %v covers %v, model %v", seed, step, off, end, l, got, model)
			}
		}
	}
}

// TestSpansAddShapes pins the merge shapes by name.
func TestSpansAddShapes(t *testing.T) {
	base := func() spans { return spans{{10, 20}, {30, 40}, {50, 60}} }
	for _, tc := range []struct {
		name     string
		off, end int64
		want     spans
	}{
		{"before all", 0, 5, spans{{0, 5}, {10, 20}, {30, 40}, {50, 60}}},
		{"after all", 70, 80, spans{{10, 20}, {30, 40}, {50, 60}, {70, 80}}},
		{"in a gap", 22, 28, spans{{10, 20}, {22, 28}, {30, 40}, {50, 60}}},
		{"nested", 32, 38, base()},
		{"adjacent below", 20, 25, spans{{10, 25}, {30, 40}, {50, 60}}},
		{"adjacent above", 25, 30, spans{{10, 20}, {25, 40}, {50, 60}}},
		{"bridges a gap", 20, 30, spans{{10, 40}, {50, 60}}},
		{"spans all", 0, 100, spans{{0, 100}}},
		{"overlaps two", 15, 35, spans{{10, 40}, {50, 60}}},
	} {
		got := base().add(tc.off, tc.end)
		if len(got) != len(tc.want) {
			t.Errorf("%s: add(%d,%d) = %v, want %v", tc.name, tc.off, tc.end, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: add(%d,%d) = %v, want %v", tc.name, tc.off, tc.end, got, tc.want)
				break
			}
		}
	}
	if got := spans(nil).add(3, 9); len(got) != 1 || got[0] != (span{3, 9}) {
		t.Errorf("add to an empty list = %v", got)
	}
}
