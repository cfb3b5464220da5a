package analyze

import (
	"bytes"
	"os"
	"testing"

	"monarch/internal/trace"
)

// TestRenderGolden renders the three shapes the per-epoch table takes —
// plain, with peer columns, with peer and hedge columns plus the write
// table, a sampling note, a missing trailer and a truncated heatmap.
// testdata/render.golden is what the commit before the pricer printed
// for the same traces: the analyzer prices through trace.Pricer now and
// reports the same figures.
func TestRenderGolden(t *testing.T) {
	var got bytes.Buffer
	Analyze(synthetic(), Options{}).Render(&got, Options{})
	peer := synthetic()
	peer.Events = append(peer.Events,
		trace.Event{T: 130, Kind: trace.KindRead, Class: trace.ClassPeer, File: 1, Tier: 0, Len: 10},
		trace.Event{T: 140, Kind: trace.KindRead, Class: trace.ClassPeerMiss, File: 1, Tier: 1, Len: 10})
	Analyze(peer, Options{}).Render(&got, Options{})
	hedge := synthetic()
	hedge.Events = append(hedge.Events,
		trace.Event{T: 130, Kind: trace.KindRead, Class: trace.ClassPeerHedge, File: 1, Tier: 0, Len: 10},
		trace.Event{T: 135, Kind: trace.KindWrite, Class: trace.ClassWrite, File: 1, Tier: 1, Len: 10},
		trace.Event{T: 136, Kind: trace.KindFlush, Class: trace.ClassFlush, File: 1, Tier: 1, Len: 10},
		trace.Event{T: 140, Kind: trace.KindRead, Class: trace.ClassPeerMiss, File: 1, Tier: 1, Len: 10})
	hedge.Header.Sample = 4
	hedge.Summary = nil
	Analyze(hedge, Options{TopFiles: 1}).Render(&got, Options{TopFiles: 1})

	want, err := os.ReadFile("testdata/render.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the report drifted from the parent commit's.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
