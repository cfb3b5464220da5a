package experiments

import (
	"testing"

	"monarch/internal/dataset"
)

func distManifest(t *testing.T, p Params) *dataset.Manifest {
	t.Helper()
	ds100, _ := p.Datasets()
	man, err := dataset.Plan(ds100)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestShardingModeString(t *testing.T) {
	if ShardNone.String() != "replicated" || ShardSticky.String() != "sticky" ||
		ShardReshuffled.String() != "reshuffled" || ShardingMode(9).String() != "unknown" {
		t.Fatal("ShardingMode.String broken")
	}
}

func TestSelectorPartitionsCoverEverything(t *testing.T) {
	const nodes, total = 4, 25
	for _, mode := range []ShardingMode{ShardSticky, ShardReshuffled} {
		for epoch := 0; epoch < 3; epoch++ {
			seen := map[int]int{}
			for node := 0; node < nodes; node++ {
				for _, s := range shardOrder(mode, node, nodes, total, epoch, 7) {
					seen[s]++
				}
			}
			if len(seen) != total {
				t.Fatalf("%v epoch %d: %d shards covered, want %d", mode, epoch, len(seen), total)
			}
			for s, n := range seen {
				if n != 1 {
					t.Fatalf("%v epoch %d: shard %d assigned %d times", mode, epoch, s, n)
				}
			}
		}
	}
}

func TestSelectorStickyStableAcrossEpochs(t *testing.T) {
	a, b := shardOrder(ShardSticky, 1, 3, 20, 0, 7), shardOrder(ShardSticky, 1, 3, 20, 2, 7)
	if len(a) != len(b) {
		t.Fatal("sticky assignment size changed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sticky assignment changed across epochs")
		}
	}
}

func TestSelectorReshuffledChangesAcrossEpochs(t *testing.T) {
	a, b := shardOrder(ShardReshuffled, 0, 4, 40, 0, 7), shardOrder(ShardReshuffled, 0, 4, 40, 1, 7)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reshuffled assignment identical across epochs")
	}
}

func TestSelectorReplicatedReadsEveryShard(t *testing.T) {
	for node := 0; node < 4; node++ {
		got := shardOrder(ShardNone, node, 4, 10, 1, 7)
		if len(got) != 10 {
			t.Fatalf("node %d reads %d shards, want every one of 10", node, len(got))
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("node %d: order %v, want every shard in index order", node, got)
			}
		}
	}
}

func TestRunDistributedSingleNodeMatchesShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 1
	man := distManifest(t, p)
	d, err := RunDistributed(man, p, 1, ShardNone, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes != 1 || len(d.NodeTimes) != 1 || d.JobTime <= 0 {
		t.Fatalf("result: %+v", d)
	}
	if d.Placements == 0 {
		t.Fatal("single monarch node placed nothing")
	}
	if d.PFSOps == 0 || d.PFSBytes == 0 {
		t.Fatal("no PFS traffic recorded")
	}
}

func TestRunDistributedBarrierKeepsNodesTogether(t *testing.T) {
	p := QuickParams()
	man := distManifest(t, p)
	d, err := RunDistributed(man, p, 3, ShardSticky, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With the per-epoch barrier, node totals differ by at most one
	// epoch's straggler gap — they must all be within 25% of the max.
	for i, nt := range d.NodeTimes {
		if float64(nt) < 0.75*float64(d.JobTime) {
			t.Fatalf("node %d finished way early: %v vs job %v", i, nt, d.JobTime)
		}
	}
}

func TestRunDistributedRejectsBadNodeCount(t *testing.T) {
	p := QuickParams()
	man := distManifest(t, p)
	if _, err := RunDistributed(man, p, 0, ShardNone, false, 1); err == nil {
		t.Fatal("expected error for nodes=0")
	}
}

func TestRunDistributedDeterministic(t *testing.T) {
	p := QuickParams()
	man := distManifest(t, p)
	a, err := RunDistributed(man, p, 2, ShardSticky, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDistributed(man, p, 2, ShardSticky, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.JobTime != b.JobTime || a.PFSOps != b.PFSOps {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d", a.JobTime, a.PFSOps, b.JobTime, b.PFSOps)
	}
}
