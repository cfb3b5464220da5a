package trace

import (
	"testing"

	"monarch/internal/obs"
)

// TestPricerTable walks every (Kind, Class) pair: the pairs listed cost
// what the table says, every other pair costs nothing. Len 1000 at a
// copy chunk of 256 makes a whole-file fetch four requests.
func TestPricerTable(t *testing.T) {
	type pair struct {
		k Kind
		c Class
	}
	want := map[pair]Cost{
		{KindRead, ClassPFS}:        {Foreground: 1},
		{KindRead, ClassFallback}:   {Foreground: 1},
		{KindRead, ClassPeerMiss}:   {Foreground: 1},
		{KindWrite, ClassWrite}:     {Foreground: 1},
		{KindWrite, ClassRemove}:    {Foreground: 1},
		{KindPlacement, ClassFetch}: {Background: 4},
	}
	for c := ClassNone; c <= ClassRemove+1; c++ { // whatever the class says
		want[pair{KindChunkCopy, c}] = Cost{Background: 1}
		if c != ClassError {
			want[pair{KindFlush, c}] = Cost{Background: 1}
		}
	}
	h := Header{Meta: map[string]string{"copy_chunk": "256"}}
	for k := Kind(0); k <= KindFlush+1; k++ {
		for c := ClassNone; c <= ClassRemove+1; c++ {
			// A fresh pricer per pair: no chunk copy of another row
			// stands before this placement.
			got := NewPricer(h).Price(Event{Kind: k, Class: c, File: 1, Len: 1000})
			if got != want[pair{k, c}] {
				t.Errorf("%s/%s costs %+v, want %+v", k, c, got, want[pair{k, c}])
			}
		}
	}
}

// TestPricerRemembersChunkedPlacements: the state the pricer exists
// for, and the copy-chunk arithmetic.
func TestPricerRemembersChunkedPlacements(t *testing.T) {
	p := NewPricer(Header{Meta: map[string]string{"copy_chunk": "100"}})
	if p.CopyChunk() != 100 {
		t.Fatalf("copy chunk = %d", p.CopyChunk())
	}
	price := func(k Kind, c Class, file uint32, n int64) int64 {
		cost := p.Price(Event{Kind: k, Class: c, File: file, Len: n})
		return cost.Foreground + cost.Background
	}
	if price(KindChunkCopy, ClassNone, 1, 100) != 1 || price(KindChunkCopy, ClassNone, 1, 100) != 1 {
		t.Fatal("a chunk copy is one op")
	}
	if got := price(KindPlacement, ClassFetch, 2, 250); got != 3 {
		t.Fatalf("another file's whole-file fetch of 250 bytes = %d ops, want 3", got)
	}
	if got := price(KindPlacement, ClassFetch, 1, 200); got != 0 {
		t.Fatalf("a placement that arrived in chunks = %d more ops, want 0", got)
	}
	if got := price(KindPlacement, ClassFetch, 1, 200); got != 2 {
		t.Fatalf("the file's next placement, whole-file = %d ops, want 2: the resolution forgets the chunks", got)
	}
	// A failed chunked attempt is forgotten at its resolution too.
	price(KindChunkCopy, ClassNone, 3, 100)
	price(KindPlacement, ClassFail, 3, 300)
	if got := price(KindPlacement, ClassFetch, 3, 300); got != 3 {
		t.Fatalf("whole-file retry after a failed chunked attempt = %d ops, want 3", got)
	}
	for _, meta := range []map[string]string{nil, {"copy_chunk": "0"}, {"copy_chunk": "-4"}, {"copy_chunk": "x"}} {
		q := NewPricer(Header{Meta: meta})
		if c := q.Price(Event{Kind: KindPlacement, Class: ClassFetch, Len: 1 << 40}); q.CopyChunk() != 0 || c.Background != 1 {
			t.Errorf("meta %v: copy chunk %d, a fetch costs %d; want unknown and 1", meta, q.CopyChunk(), c.Background)
		}
	}
	if c := p.Price(Event{Kind: KindPlacement, Class: ClassFetch, File: 9, Len: 0}); c.Background != 1 {
		t.Errorf("an empty file's fetch costs %d, want 1", c.Background)
	}
}

// TestClassifyCoversEverySpanKind: a span kind is either recorded or
// named here as ignored, with the reason. A kind added to obs and to
// neither fails this test instead of vanishing from captures.
func TestClassifyCoversEverySpanKind(t *testing.T) {
	ignored := map[obs.SpanKind]string{
		obs.SpanPlacementEnqueue: "the placement's resolution is the event",
		obs.SpanTierProbe:        "a probe that succeeds is a tier-up state event",
		obs.SpanEvict:            "the eviction is a state event from core's event funnel",
	}
	kinds := 0
	for k := obs.SpanKind(0); k.String() != "unknown"; k++ {
		kinds++
		kind, _, _, ok := classify(&obs.Span{Kind: k, Tier: 0}, 1)
		switch why, skip := ignored[k]; {
		case ok && skip:
			t.Errorf("%s is recorded as %s and listed as ignored (%s)", k, kind, why)
		case !ok && !skip:
			t.Errorf("%s is neither recorded nor listed as ignored", k)
		case ok && kind.String() == "unknown":
			t.Errorf("%s is recorded as an unknown kind", k)
		}
	}
	if kinds < 10 {
		t.Fatalf("walked %d span kinds", kinds)
	}
	for _, k := range []obs.SpanKind{-1, obs.SpanKind(kinds), 1 << 20} {
		if _, _, _, ok := classify(&obs.Span{Kind: k}, 1); ok {
			t.Errorf("span kind %d is recorded", k)
		}
	}
}
