package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"monarch/internal/core"
	"monarch/internal/journal"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

type memStats struct {
	numGC   uint32
	pauseNs uint64
}

func readMemStats() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

// layerMetrics turns a traced run into the per-layer numbers. Three
// sources, all outside the program: the spans the shims and the loader
// recorded, the public counters (Stats, the PFS emulator, bufpool, the
// Config.Trace hook), and isolated calls for the layers the benchmark
// can only reach through a constructor (journal, the frame codec over
// an in-process pipe).
func layerMetrics(ctx context.Context, rc runConfig, st *stack, cold coldOut, so, bare steadyOut, memStart memStats) (map[string]float64, error) {
	spans := st.rec.snapshot()
	if rc.SpanOut != "" {
		if err := writeSpans(rc.SpanOut, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	set := indexSpans(spans)
	const us, ms = 1e3, 1e6
	m := make(map[string]float64)

	// Windows on the recorder's clock. The checkpoint window starts with
	// the reads when the two overlap, after them otherwise.
	coldFrom, coldTo := cold.from.recAt, cold.idle.recAt
	readFrom, readTo := so.readFrom.recAt, so.readTo.recAt
	ckptFrom := so.readTo
	if st.w.Overlap {
		ckptFrom = so.readFrom
	}
	all := func(name string) []span { return set.window(name, 0, math.MaxInt64) }
	inReads := func(name string) []span { return set.window(name, readFrom, readTo) }
	end := so.ckptTo

	// core: the loader's and the trainer's own calls.
	readat := inReads("core.readat")
	m["core.readat_p50_us"] = quantile(durations(readat), 0.5) / us
	m["core.readat_p99_us"] = quantile(durations(readat), 0.99) / us
	m["core.readat_p999_us"] = quantile(durations(readat), 0.999) / us
	m["core.readat_self_ns"] = median(set.selfTimes(readat))
	readview := inReads("core.readview")
	m["core.readview_p50_ns"] = quantile(durations(readview), 0.5)
	m["core.readview_self_ns"] = median(set.selfTimes(readview))
	m["core.init_ms"] = float64(st.nodes[0].initTime) / ms
	var placements, flushes []float64
	var flushedBytes int64
	firstHit := time.Duration(0)
	for _, n := range st.nodes {
		n.hook.mu.Lock()
		placements = append(placements, n.hook.placements...)
		flushes = append(flushes, n.hook.flushes...)
		flushedBytes += n.hook.flushedBytes
		if h := n.hook.firstLocalHit; h > 0 && (firstHit == 0 || h < firstHit) {
			firstHit = h
		}
		n.hook.mu.Unlock()
	}
	m["core.first_local_hit_ms"] = float64(firstHit) / ms
	m["core.placement_p50_ms"] = median(placements) / ms
	m["core.placement_mibps"] = ratio(float64(cold.idle.core.PlacedBytes-cold.from.core.PlacedBytes)/(1<<20),
		cold.idle.at.Sub(cold.from.at).Seconds())
	m["core.placements"] = float64(end.core.Placements)
	m["core.placement_errors"] = float64(end.core.PlacementErrors)
	m["core.placement_skips"] = float64(end.core.PlacementSkips)
	m["core.fallbacks"] = float64(end.core.Fallbacks)
	m["core.evictions"] = float64(end.core.Evictions)
	var hits, reads int64
	src := len(end.core.ReadsServed) - 1
	for lvl := range end.core.ReadsServed {
		d := so.readTo.core.ReadsServed[lvl] - so.readFrom.core.ReadsServed[lvl]
		reads += d
		if lvl != src {
			hits += d
		}
	}
	m["core.hit_ratio"] = ratio(float64(hits), float64(reads))
	writes := all("core.write")
	m["core.write_p50_us"] = quantile(durations(writes), 0.5) / us
	m["core.write_p99_us"] = quantile(durations(writes), 0.99) / us
	m["core.write_self_us"] = median(set.selfTimes(writes)) / us
	m["core.create_p50_us"] = quantile(durations(all("core.create")), 0.5) / us
	m["core.remove_p50_us"] = quantile(durations(all("core.remove")), 0.5) / us
	m["core.write_stalls"] = float64(end.core.WriteStalls)
	m["core.ckpt_stall_ms"] = median(so.ck.stall)
	m["core.ckpt_durable_ms"] = median(so.ck.durable)
	m["core.flush_p50_ms"] = median(flushes) / ms
	m["core.flush_mibps"] = ratio(float64(flushedBytes)/(1<<20), sum(flushes)/1e9)
	m["core.flushes"] = float64(end.core.Flushes)
	m["core.placement_pauses"] = float64(end.core.PlacementPauses)

	// pool: the placement executor, busy only while the cold epoch's
	// files are being copied up.
	queue, tasks := durations(all("pool.queue")), durations(all("pool.task"))
	m["pool.queue_wait_p50_us"] = quantile(queue, 0.5) / us
	m["pool.queue_wait_p99_us"] = quantile(queue, 0.99) / us
	m["pool.task_run_p50_ms"] = quantile(tasks, 0.5) / ms
	m["pool.tasks"] = float64(len(tasks))
	m["pool.busy_frac"] = ratio(sum(durations(set.window("pool.task", coldFrom, coldTo))),
		float64(coldTo-coldFrom)*float64(rc.Sz.PoolWorkers*len(st.nodes)))

	// storage, tier 0.
	t0reads := inReads("storage.tier0.readat")
	t0views := inReads("storage.tier0.readview")
	m["storage.tier0_read_p50_us"] = quantile(durations(t0reads), 0.5) / us
	m["storage.tier0_read_p99_us"] = quantile(durations(t0reads), 0.99) / us
	m["storage.tier0_reads"] = float64(len(t0reads) + len(t0views))
	m["storage.tier0_view_p50_us"] = quantile(durations(t0views), 0.5) / us
	m["storage.tier0_writefile_p50_ms"] = quantile(durations(all("storage.tier0.writefile")), 0.5) / ms
	m["storage.tier0_writeat_p50_us"] = quantile(durations(all("storage.tier0.writeat")), 0.5) / us
	landed := end.core.PlacedBytes
	if st.w.Durability == core.WriteBack {
		landed += end.core.WrittenBytes
	}
	m["storage.tier0_write_amp"] = ratio(float64(end.tier0Written), float64(landed))
	m["storage.tier0_removes"] = float64(len(all("storage.tier0.remove")))

	// storage, the PFS boundary: what the emulator saw during the warm
	// reads, during the cold epoch, and for the checkpoints.
	pfsReads := so.readTo.pfs.sub(so.readFrom.pfs)
	m["storage.pfs_data_ops"] = float64(pfsReads.ReadOps + pfsReads.WriteOps)
	m["storage.pfs_meta_ops"] = float64(pfsReads.MetaOps)
	m["storage.pfs_busy_frac"] = ratio(float64(pfsReads.Busy), float64(so.readTo.at.Sub(so.readFrom.at)))
	m["storage.pfs_read_amp"] = ratio(float64(cold.idle.pfs.BytesRead-cold.from.pfs.BytesRead), float64(st.manifest.TotalBytes()))
	m["storage.pfs_write_ops"] = float64(end.pfs.WriteOps - ckptFrom.pfs.WriteOps)
	m["storage.pfs_write_amp"] = so.writeAmp()

	// peernet: the peer tier as the middleware calls it, both ends'
	// sockets, and the serving node's backend.
	peerReads := inReads("peernet.tier.readat")
	nPeer := float64(len(peerReads))
	m["peernet.read_p50_us"] = quantile(durations(peerReads), 0.5) / us
	m["peernet.read_p99_us"] = quantile(durations(peerReads), 0.99) / us
	m["peernet.reads"] = nPeer
	m["peernet.misses"] = float64(so.readTo.core.PeerMisses - so.readFrom.core.PeerMisses)
	m["peernet.errors"] = float64(end.transportErrs)
	sockW, sockR := durations(inReads("peernet.sock.write")), durations(inReads("peernet.sock.read"))
	m["peernet.sock_write_p50_us"] = quantile(sockW, 0.5) / us
	m["peernet.sock_read_p50_us"] = quantile(sockR, 0.5) / us
	d := func(get func(snap) int64) float64 { return float64(get(so.readTo) - get(so.readFrom)) }
	m["peernet.syscalls_per_read"] = ratio(d(func(s snap) int64 { return s.sockReads + s.sockWrites + s.srvReads + s.srvWrites }), nPeer)
	m["peernet.wire_bytes_per_payload_byte"] = ratio(d(func(s snap) int64 { return s.sockBytes }), d(func(s snap) int64 { return s.core.PeerHitBytes }))
	m["peernet.conns_dialed"] = float64(end.dials)
	srvBackend := append(durations(inReads("peernet.server_backend.readview")), durations(inReads("peernet.server_backend.readat"))...)
	m["peernet.server_backend_p50_us"] = quantile(srvBackend, 0.5) / us
	// What neither end spent in a socket call or in the serving tier:
	// the client's time outside its socket calls, plus the server's time
	// awake between two reads of its socket, less its backend and writes.
	clientSelf := sum(durations(peerReads)) - sum(sockW) - sum(sockR)
	serverSelf := d(func(s snap) int64 { return s.srvAwake }) - sum(srvBackend) - sum(durations(inReads("peernet.srvsock.write")))
	m["peernet.codec_self_us"] = ratio(clientSelf+serverSelf, nPeer) / us

	// bufpool, over the warm reads.
	gets, news := d(func(s snap) int64 { return s.buf.Gets }), d(func(s snap) int64 { return s.buf.News })
	m["bufpool.gets"], m["bufpool.news"], m["bufpool.miss_ratio"] = gets, news, ratio(news, gets)

	// Runtime, whole process; tracing cost against the bare stack that
	// ran the same steady epochs first.
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m["rt.cpu_ms_per_gib"] = median(so.blockCPU)
	m["rt.gc_cycles"] = float64(ms1.NumGC - memStart.numGC)
	m["rt.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-memStart.pauseNs) / ms
	m["rt.heap_peak_mib"] = float64(ms1.HeapSys) / (1 << 20)
	m["obs.trace_overhead_pct"] = 100 * (ratio(quantile(so.copyEpochs, quietDecile), quantile(bare.copyEpochs, quietDecile)) - 1)

	iso := filepath.Join(st.dir, "isolated")
	if err := isolatedJournal(iso, rc.Sz, st.journalCopy, m); err != nil {
		return nil, fmt.Errorf("isolated journal: %w", err)
	}
	if err := isolatedPipe(ctx, rc.Sz, m); err != nil {
		return nil, fmt.Errorf("isolated pipe: %w", err)
	}
	return m, nil
}

// timeCalls runs call n times and returns each duration in ns and the
// heap bytes allocated per call.
func timeCalls(n int, call func(i int) error) ([]float64, float64, error) {
	out := make([]float64, 0, n)
	before := heapAllocs()
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := call(i); err != nil {
			return nil, 0, err
		}
		out = append(out, float64(time.Since(t)))
	}
	return out, float64(heapAllocs()-before) / float64(n), nil
}

// isolatedJournal measures internal/journal alone: appends of one
// WriteSize record with and without the per-append fsync, an explicit
// Sync, Compact, and Open replaying a journal — the copy taken between
// a burst's last ack and its flush when the workload journals, else the
// journal this function just wrote.
func isolatedJournal(dir string, sz sizes, midBurstCopy string, m map[string]float64) error {
	const us, ms = 1e3, 1e6
	payload := make([]byte, sz.WriteSize)
	rec := journal.Record{Kind: 2, Name: ckptName(0, 0), Data: payload}
	synced, err := journal.Open(filepath.Join(dir, "synced"), journal.Options{Sync: true}, nil)
	if err != nil {
		return err
	}
	defer synced.Close()
	durs, alloc, err := timeCalls(sz.IsoOps, func(int) error { _, err := synced.Append(rec); return err })
	if err != nil {
		return err
	}
	m["journal.append_p50_us"] = quantile(durs, 0.5) / us
	m["journal.append_p99_us"] = quantile(durs, 0.99) / us
	m["journal.alloc_bytes_per_append"] = alloc
	m["journal.bytes_per_payload_byte"] = ratio(float64(synced.Stats().AppendedBytes), float64(sz.IsoOps*len(payload)))

	lazy, err := journal.Open(filepath.Join(dir, "lazy"), journal.Options{}, nil)
	if err != nil {
		return err
	}
	defer lazy.Close()
	var syncs []float64
	durs, _, err = timeCalls(sz.IsoOps, func(int) error {
		if _, err := lazy.Append(rec); err != nil {
			return err
		}
		t := time.Now()
		err := lazy.Sync()
		syncs = append(syncs, float64(time.Since(t)))
		return err
	})
	if err != nil {
		return err
	}
	for i := range durs {
		durs[i] -= syncs[i]
	}
	m["journal.append_nosync_p50_us"] = quantile(durs, 0.5) / us
	m["journal.sync_p50_us"] = quantile(syncs, 0.5) / us

	replay := midBurstCopy
	if replay == "" {
		replay = filepath.Join(dir, "replay")
		if err := copyFile(synced.Path(), replay); err != nil {
			return err
		}
	}
	info, err := os.Stat(replay)
	if err != nil {
		return err
	}
	t := time.Now()
	reopened, err := journal.Open(replay, journal.Options{}, func(journal.Record) error { return nil })
	if err != nil {
		return err
	}
	m["journal.replay_mibps"] = ratio(float64(info.Size())/(1<<20), time.Since(t).Seconds())
	reopened.Close()

	t = time.Now()
	if err := synced.Compact(nil); err != nil {
		return err
	}
	m["journal.compact_ms"] = float64(time.Since(t)) / ms
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		return err
	}
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// isolatedPipe measures the frame codec with no kernel in the way: a
// peer client reading ReadSize windows from a peer server over
// net.Pipe, the server lending views out of a MemFS.
func isolatedPipe(ctx context.Context, sz sizes, m map[string]float64) error {
	mem := storage.NewMemFS("iso", 0)
	if err := mem.WriteFile(ctx, "f", make([]byte, sz.ShardBytes)); err != nil {
		return err
	}
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem})
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := peernet.NewClient(peernet.ClientConfig{Dial: peernet.PipeDialer(srv)})
	if err != nil {
		return err
	}
	defer client.Close()
	buf := make([]byte, sz.ReadSize)
	windows := int(sz.ShardBytes) / sz.ReadSize
	read := func(i int) error {
		n, err := client.ReadAt(ctx, "f", buf, int64(i%windows)*int64(sz.ReadSize))
		if err == nil && n != len(buf) {
			err = fmt.Errorf("pipe read returned %d of %d bytes", n, len(buf))
		}
		return err
	}
	if err := read(0); err != nil { // dial, and warm the buffer pool
		return err
	}
	durs, alloc, err := timeCalls(sz.IsoOps, read)
	if err != nil {
		return err
	}
	m["peernet.pipe_read_p50_us"] = quantile(durs, 0.5) / 1e3
	m["peernet.alloc_bytes_per_read"] = alloc
	return nil
}
