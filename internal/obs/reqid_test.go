package obs

import (
	"context"
	"runtime/debug"
	"testing"
)

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == 0 || b == 0 {
		t.Fatal("request IDs must never be zero (zero means unset)")
	}
	if a == b {
		t.Fatalf("consecutive IDs collide: %016x", a)
	}
	if a>>32 != b>>32 {
		t.Fatalf("IDs from one process must share the prefix: %016x vs %016x", a, b)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != 0 {
		t.Fatalf("bare context carries ID %016x, want 0", got)
	}
	ctx, _ = WithReadAnnotation(ctx, 0xdeadbeef)
	if got := RequestIDFrom(ctx); got != 0xdeadbeef {
		t.Fatalf("roundtrip = %016x, want deadbeef", got)
	}
}

// TestReadAnnotationCarriesRequestID: the peer route's one context holds
// the annotation and the request ID, answers either lookup without an
// allocation, and leaves every other key — a cancellation too — to its
// parent; the nearest annotation wins. Released, it is handed out again,
// so a warm read's context allocates nothing.
func TestReadAnnotationCarriesRequestID(t *testing.T) {
	type key struct{}
	values := context.WithValue(context.Background(), key{}, "v")
	parent, cancel := context.WithCancel(values)
	ctx, ann := WithReadAnnotation(parent, 0xfeed)
	if RequestIDFrom(ctx) != 0xfeed || ReadAnnotationFrom(ctx) != ann || ctx.Value(key{}) != "v" {
		t.Fatalf("annotated context: id %x, annotation %p (want %p), parent value %v",
			RequestIDFrom(ctx), ReadAnnotationFrom(ctx), ann, ctx.Value(key{}))
	}
	ann.Annotate(FlagHedged)
	if ReadAnnotationFrom(ctx).Flags() != FlagHedged {
		t.Fatal("a flag set through the annotation does not read back through the context")
	}
	if inner, a := WithReadAnnotation(ctx, 9); RequestIDFrom(inner) != 9 || ReadAnnotationFrom(inner) != a {
		t.Fatalf("the nearer annotation does not win: id %x", RequestIDFrom(inner))
	}
	if !raceEnabled() {
		if allocs := testing.AllocsPerRun(100, func() {
			c, a := WithReadAnnotation(values, 0xfeed)
			if RequestIDFrom(c) != 0xfeed || ReadAnnotationFrom(c) != a || a.Flags() != 0 {
				t.Fatal("lost the values, or kept the last read's")
			}
			ReleaseReadAnnotation(a)
		}); allocs != 0 {
			t.Fatalf("a peer read's context costs %v allocations, want 0", allocs)
		}
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("the annotated context missed its parent's cancellation")
	}
}

// TestReadAnnotationRecycleRule: an annotation is never handed out again
// while some goroutine may still walk its context — not one a hedge
// flagged, not one over a parent that can be cancelled — and releasing
// one twice, or one WithReadAnnotation did not make, changes nothing.
func TestReadAnnotationRecycleRule(t *testing.T) {
	bg := context.Background()
	cancellable, cancel := context.WithCancel(bg)
	defer cancel()
	hedged, ha := WithReadAnnotation(bg, 1)
	ha.Annotate(FlagHedged)
	watched, wa := WithReadAnnotation(cancellable, 2)
	ReleaseReadAnnotation(ha)
	ReleaseReadAnnotation(wa)
	ReleaseReadAnnotation(nil)
	ReleaseReadAnnotation(&ReadAnnotation{})
	for i := 0; i < 100; i++ {
		c, a := WithReadAnnotation(bg, 3)
		if a == ha || a == wa {
			t.Fatalf("reuse %d handed out a released annotation the rule keeps", i)
		}
		ReleaseReadAnnotation(a)
		ReleaseReadAnnotation(a)
		if c2, _ := WithReadAnnotation(bg, 4); c2 == c {
			if c3, _ := WithReadAnnotation(bg, 5); c3 == c {
				t.Fatal("a second release put the context in the pool twice")
			}
		}
	}
	if RequestIDFrom(hedged) != 1 || ReadAnnotationFrom(hedged).Flags() != FlagHedged || RequestIDFrom(watched) != 2 {
		t.Fatal("a kept annotation lost its values")
	}
}

// raceEnabled reports a race-detector build, under which sync.Pool
// drops some of what it is given.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
