package obs

import (
	"context"
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
// the annotation and the request ID, costs one allocation, answers
// either lookup without another, and leaves every other key — a
// cancellation too — to its parent; the nearest annotation wins.
func TestReadAnnotationCarriesRequestID(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
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
	if allocs := testing.AllocsPerRun(100, func() {
		c, a := WithReadAnnotation(parent, 0xfeed)
		if RequestIDFrom(c) == 0 || ReadAnnotationFrom(c) != a {
			t.Fatal("lost the values")
		}
	}); allocs != 1 {
		t.Fatalf("a peer read's context costs %v allocations, want 1", allocs)
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("the annotated context missed its parent's cancellation")
	}
}
