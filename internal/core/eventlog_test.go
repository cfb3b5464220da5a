package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

func TestEventLogRingSemantics(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.add(Event{Kind: EventPlaced, File: fmt.Sprintf("f%d", i)})
	}
	evs := l.Events()
	if len(evs) != 3 || l.Len() != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].File != "f2" || evs[2].File != "f4" {
		t.Fatalf("ring order wrong: %v %v", evs[0].File, evs[2].File)
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d", l.Dropped())
	}
	// Sequence numbers are global and monotone.
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("seqs: %d %d", evs[0].Seq, evs[2].Seq)
	}
}

func TestEventLogPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEventLog(0)
}

// TestEventKindAndString walks every kind: its name, and a phrase its
// rendered message must carry (the generic fallback renders the name).
func TestEventKindAndString(t *testing.T) {
	x := errors.New("x")
	cases := []struct {
		e          Event
		name, says string
	}{
		{Event{Kind: EventPlaced, File: "f", Bytes: 10}, "placed", "placed f on level 0 (10 bytes)"},
		{Event{Kind: EventSkipped, File: "f"}, "skipped", "skipped f"},
		{Event{Kind: EventFailed, File: "f", Err: x}, "failed", "placement of f failed: x"},
		{Event{Kind: EventEvicted, File: "f", Level: 1}, "evicted", "evicted f from level 1"},
		{Event{Kind: EventFallback, File: "f"}, "fallback", "fell back"},
		{Event{Kind: EventChunkPlaced, File: "f", Bytes: 4}, "chunk-placed", "chunk of f placed on level 0 (4 bytes)"},
		{Event{Kind: EventPartialHit, File: "f", Bytes: 4}, "partial-hit", "served mid-copy from level 0"},
		{Event{Kind: EventOpError, File: "f", Level: -1, Err: x}, "op-error", "best-effort operation on f (level -1) failed: x"},
		{Event{Kind: EventPromoted, File: "f", Bytes: 4}, "promoted", "promoted f back into placement"},
		{Event{Kind: EventFlushed, File: "f", Bytes: 4}, "flushed", "flushed f to the PFS (4 dirty bytes retired)"},
		{Event{Kind: EventWriteStalled, File: "f", Bytes: 4}, "write-stalled", "stalled on the dirty budget"},
		{Event{Kind: EventRecovered, Bytes: 2}, "recovered", "recovered 2 journaled files"},
		{Event{Kind: EventKind(42), File: "f"}, "unknown", "unknown f"},
	}
	for i, c := range cases {
		c.e.Seq = uint64(i + 1)
		if got := c.e.Kind.String(); got != c.name {
			t.Errorf("%d.String() = %q, want %q", c.e.Kind, got, c.name)
		}
		if got := c.e.String(); !strings.HasPrefix(got, fmt.Sprintf("#%d ", i+1)) || !strings.Contains(got, c.says) {
			t.Errorf("%q does not say %q", got, c.says)
		}
	}
	if len(cases) != int(eventKinds)-4+1 {
		// The four breaker kinds are health_test's; every other kind,
		// plus the unknown one, must have a row here.
		t.Errorf("%d rows for %d event kinds", len(cases), eventKinds)
	}
}

func TestNilEventLogIsSafe(t *testing.T) {
	var l *EventLog
	l.emit(Event{Kind: EventPlaced}) // must not panic
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.add(Event{Kind: EventPlaced})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 64 || l.Dropped() != 800-64 {
		t.Fatalf("len=%d dropped=%d", l.Len(), l.Dropped())
	}
}

func TestMiddlewareEmitsLifecycleEvents(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("pfs", 0)
	for i := 0; i < 4; i++ {
		if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("f%d", i),
			bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pfsRaw.SetReadOnly(true)
	tier0 := storage.NewFaulty(storage.NewMemFS("ssd", 250)) // fits 2
	log := NewEventLog(32)
	gp := pool.NewGoPool(1)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfsRaw},
		Pool:          gp,
		FullFileFetch: true,
		Events:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	for i := 0; i < 4; i++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("f%d", i), buf, 0); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !m.Idle() {
			if time.Now().After(deadline) {
				t.Fatal("stuck")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Break the tier and force a fallback.
	tier0.Break()
	if _, err := m.ReadAt(ctx, "f0", buf, 0); err != nil {
		t.Fatal(err)
	}

	byKind := map[EventKind]int{}
	for _, e := range log.Events() {
		byKind[e.Kind]++
	}
	if byKind[EventPlaced] != 2 {
		t.Fatalf("placed events = %d, want 2", byKind[EventPlaced])
	}
	if byKind[EventSkipped] != 2 {
		t.Fatalf("skipped events = %d, want 2", byKind[EventSkipped])
	}
	if byKind[EventFallback] != 1 {
		t.Fatalf("fallback events = %d, want 1", byKind[EventFallback])
	}
}
