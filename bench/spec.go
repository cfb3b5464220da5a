package main

import (
	"time"

	"monarch/internal/core"
)

// sizes is the fixed load. Nothing here is an argument: both sides of
// a later comparison run the same shapes, and only the length of the
// steady window follows --seconds.
type sizes struct {
	Shards        int   // TFRecord files in the dataset
	ShardBytes    int64 // target size of each (all shards are equal)
	RecordsPer    int   // records per shard
	ReadSize      int   // the loader's sequential pread size
	LoadRoutines  int   // closed-loop loader goroutines on one node
	PoolWorkers   int   // placement pool, the paper's 6
	CkptFiles     int   // files per checkpoint
	CkptFileBytes int64
	WriteSize     int // the trainer's WriteAt size, round-robin over the files

	Reps        int // set-up + cold epoch repetitions; medians are reported
	BlockEpochs int // warm epochs per ReadAt block and per ReadView block
	MinBlocks   int // blocks of each kind, whatever --seconds says
	MinCycles   int // checkpoint cycles, whatever --seconds says
	StackCycles int // a journaling stack is replaced after this many: its journal only grows
	PeerShards  int // per node and epoch: this many owned and as many non-owned shards
	IsoOps      int // calls per isolated layer measurement (traced run)
}

// fullSizes is the benchmark. The shapes are the issue's — equal
// shards, ≈114 KiB records, 256 KiB reads, a cache of half the working
// set, 8-file checkpoints written round-robin — at 1/32 of its bytes:
// a 16 MiB working set is copied out of the last-level cache, and on the
// shared two-core sandbox that is the difference between warm epochs
// that repeat within 5% and warm epochs that swing 3x with the
// neighbours' DRAM traffic (measured: README, "Why 16 MiB").
var fullSizes = sizes{
	Shards: 16, ShardBytes: 1 << 20, RecordsPer: 9, ReadSize: 256 << 10,
	LoadRoutines: 2, PoolWorkers: 6,
	CkptFiles: 8, CkptFileBytes: 1 << 20, WriteSize: 256 << 10,
	Reps: 9, BlockEpochs: 32, MinBlocks: 2, MinCycles: 5, StackCycles: 32, PeerShards: 4, IsoOps: 200,
}

// quickSizes runs every phase of every workload in about a second, for
// the smoke test.
var quickSizes = sizes{
	Shards: 8, ShardBytes: 1 << 20, RecordsPer: 9, ReadSize: 256 << 10,
	LoadRoutines: 2, PoolWorkers: 6,
	CkptFiles: 4, CkptFileBytes: 512 << 10, WriteSize: 256 << 10,
	Reps: 1, BlockEpochs: 1, MinBlocks: 2, MinCycles: 2, StackCycles: 32, PeerShards: 2, IsoOps: 20,
}

func (s sizes) datasetBytes() int64 { return int64(s.Shards) * s.ShardBytes }
func (s sizes) ckptBytes() int64    { return int64(s.CkptFiles) * s.CkptFileBytes }
func (s sizes) ckptWrites() int     { return int(s.ckptBytes() / int64(s.WriteSize)) }

// thePFS is the emulated parallel file system every workload reads the
// dataset from and flushes checkpoints to.
var thePFS = pfsModel{DataLatency: 400 * time.Microsecond, MetaLatency: 150 * time.Microsecond, BytesPerSec: 512 << 20}

// workload is one configuration of the same training job: set up, a
// cold epoch, warm ReadAt and ReadView epochs, checkpoint cycles. What
// differs is which layer the configuration makes do the work.
type workload struct {
	Name string
	// QuotaNum/QuotaDen: tier-0 quota as a fraction of the dataset. Where
	// the dataset is meant to fit, the quota also leaves room for the
	// three checkpoints that are live at a cycle's peak.
	QuotaNum, QuotaDen int64
	// Nodes is 1, or 2 for a pair of full nodes serving each other's
	// tier 0 over loopback TCP.
	Nodes int
	// Durability, Journal and JournalSync are the checkpoint flush
	// policy, stated here so both sides of a comparison share it.
	Durability  core.Durability
	Journal     bool
	JournalSync bool
	// Overlap runs the trainer's checkpoint cycles beside one reader for
	// the whole steady window; otherwise the cycles follow the reads.
	Overlap bool
}

var workloads = []workload{
	{Name: "fit_epochs", QuotaNum: 4, QuotaDen: 1, Nodes: 1, Durability: core.WriteBack, Journal: true},
	{Name: "partial_epochs", QuotaNum: 1, QuotaDen: 2, Nodes: 1, Durability: core.WriteThrough},
	{Name: "peer_epochs", QuotaNum: 3, QuotaDen: 1, Nodes: 2, Durability: core.WriteBack},
	{Name: "ckpt_burst", QuotaNum: 4, QuotaDen: 1, Nodes: 1, Durability: core.WriteBack, Journal: true, JournalSync: true, Overlap: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric and its unit; BENCHMARK.json repeats these
// lists and spec_test.go keeps the two in step.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_epoch_s", "s"},
	{"warm_epoch_s", "s"},
	{"warm_view_epoch_s", "s"},
	{"pfs_ops_saved_pct", "%"},
	{"alloc_mib_per_gib", "MiB/GiB"},
	{"ckpt_write_amp", "x"},
}

var perLayer = []metricDef{
	{"core.readat_p50_us", "us"}, {"core.readat_p99_us", "us"}, {"core.readat_p999_us", "us"}, {"core.readat_self_ns", "ns"},
	{"core.readview_p50_ns", "ns"}, {"core.readview_self_ns", "ns"},
	{"core.init_ms", "ms"},
	{"core.first_local_hit_ms", "ms"}, {"core.placement_p50_ms", "ms"}, {"core.placement_mibps", "MiB/s"},
	{"core.placements", "count"}, {"core.placement_errors", "count"},
	{"core.hit_ratio", "ratio"}, {"core.placement_skips", "count"}, {"core.fallbacks", "count"}, {"core.evictions", "count"},
	{"core.write_p50_us", "us"}, {"core.write_p99_us", "us"}, {"core.write_self_us", "us"}, {"core.create_p50_us", "us"}, {"core.write_stalls", "count"},
	{"core.ckpt_stall_ms", "ms"}, {"core.ckpt_durable_ms", "ms"},
	{"core.flush_p50_ms", "ms"}, {"core.flush_mibps", "MiB/s"}, {"core.flushes", "count"}, {"core.remove_p50_us", "us"}, {"core.placement_pauses", "count"},
	{"pool.queue_wait_p50_us", "us"}, {"pool.queue_wait_p99_us", "us"}, {"pool.task_run_p50_ms", "ms"}, {"pool.tasks", "count"}, {"pool.busy_frac", "ratio"},
	{"storage.tier0_read_p50_us", "us"}, {"storage.tier0_read_p99_us", "us"}, {"storage.tier0_reads", "count"}, {"storage.tier0_view_p50_us", "us"},
	{"storage.tier0_writefile_p50_ms", "ms"}, {"storage.tier0_writeat_p50_us", "us"}, {"storage.tier0_write_amp", "ratio"}, {"storage.tier0_removes", "count"},
	{"storage.pfs_data_ops", "count"}, {"storage.pfs_meta_ops", "count"}, {"storage.pfs_read_amp", "ratio"},
	{"storage.pfs_write_ops", "count"}, {"storage.pfs_write_amp", "ratio"}, {"storage.pfs_busy_frac", "ratio"},
	{"peernet.read_p50_us", "us"}, {"peernet.read_p99_us", "us"}, {"peernet.reads", "count"}, {"peernet.misses", "count"}, {"peernet.errors", "count"},
	{"peernet.sock_write_p50_us", "us"}, {"peernet.sock_read_p50_us", "us"}, {"peernet.syscalls_per_read", "ratio"},
	{"peernet.wire_bytes_per_payload_byte", "ratio"}, {"peernet.conns_dialed", "count"}, {"peernet.server_backend_p50_us", "us"},
	{"peernet.codec_self_us", "us"}, {"peernet.pipe_read_p50_us", "us"}, {"peernet.alloc_bytes_per_read", "B"},
	{"journal.append_p50_us", "us"}, {"journal.append_p99_us", "us"}, {"journal.append_nosync_p50_us", "us"}, {"journal.sync_p50_us", "us"},
	{"journal.alloc_bytes_per_append", "B"}, {"journal.bytes_per_payload_byte", "ratio"}, {"journal.replay_mibps", "MiB/s"}, {"journal.compact_ms", "ms"},
	{"bufpool.gets", "count"}, {"bufpool.news", "count"}, {"bufpool.miss_ratio", "ratio"},
	{"rt.cpu_ms_per_gib", "ms/GiB"}, {"rt.gc_cycles", "count"}, {"rt.gc_pause_total_ms", "ms"}, {"rt.heap_peak_mib", "MiB"}, {"obs.trace_overhead_pct", "%"},
}
