package dataset

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"monarch/internal/recordio"
	"monarch/internal/storage"
	"monarch/internal/tfexample"
	"monarch/internal/tfrecord"
)

func smallSpec() Spec {
	return Spec{
		Name:       "test",
		NumImages:  100,
		TotalBytes: 200_000,
		NumShards:  4,
		SizeSigma:  0.3,
		Seed:       7,
	}
}

func TestSpecValidate(t *testing.T) {
	good := smallSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},
		{Name: "x", NumImages: 0, TotalBytes: 1, NumShards: 1},
		{Name: "x", NumImages: 10, TotalBytes: 1000, NumShards: 0},
		{Name: "x", NumImages: 2, TotalBytes: 1000, NumShards: 3},
		{Name: "x", NumImages: 10, TotalBytes: 0, NumShards: 1},
		{Name: "x", NumImages: 1000, TotalBytes: 1000, NumShards: 1}, // < 1 B/image after framing
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid: %+v", i, s)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, err := Plan(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBytes() != b.TotalBytes() || a.NumRecords() != b.NumRecords() {
		t.Fatal("plans differ across runs")
	}
	for i := range a.Shards {
		if a.Shards[i].Size != b.Shards[i].Size {
			t.Fatalf("shard %d sizes differ", i)
		}
	}
}

func TestPlanShape(t *testing.T) {
	spec := smallSpec()
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != spec.NumShards {
		t.Fatalf("shards = %d", len(m.Shards))
	}
	if m.NumRecords() != spec.NumImages {
		t.Fatalf("records = %d, want %d", m.NumRecords(), spec.NumImages)
	}
	// Total size should land near the target (lognormal sampling noise).
	total := float64(m.TotalBytes())
	target := float64(spec.TotalBytes)
	if total < target*0.7 || total > target*1.3 {
		t.Fatalf("total = %v, target %v", total, target)
	}
	// Records within each shard must tile it exactly.
	for _, s := range m.Shards {
		off := int64(0)
		for _, e := range s.Records {
			if e.Offset != off {
				t.Fatalf("shard %s: record at %d, want %d", s.Name, e.Offset, off)
			}
			off = e.End()
		}
		if off != s.Size {
			t.Fatalf("shard %s: records end at %d, size %d", s.Name, off, s.Size)
		}
	}
}

func TestPlanUnevenImageDistribution(t *testing.T) {
	spec := smallSpec()
	spec.NumImages = 10
	spec.NumShards = 3
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{len(m.Shards[0].Records), len(m.Shards[1].Records), len(m.Shards[2].Records)}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("distribution = %v", counts)
	}
}

func TestPlanZeroSigmaUniformSizes(t *testing.T) {
	spec := smallSpec()
	spec.SizeSigma = 0
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.MeanImageBytes()
	for _, s := range m.Shards {
		for _, e := range s.Records {
			if e.Length != want {
				t.Fatalf("record length %d, want %d", e.Length, want)
			}
		}
	}
}

func TestShardName(t *testing.T) {
	got := ShardName("imagenet-100g", TFRecord, 17, 1600)
	want := "imagenet-100g.tfrecord-00017-of-01600"
	if got != want {
		t.Fatalf("got %q", got)
	}
	if got := ShardName("ds", RecordIO, 0, 2); got != "ds.rec-00000-of-00002" {
		t.Fatalf("recordio name %q", got)
	}
}

func TestFormatString(t *testing.T) {
	if TFRecord.String() != "tfrecord" || RecordIO.String() != "recordio" ||
		Format(9).String() != "unknown" {
		t.Fatal("Format.String broken")
	}
}

func TestPlanRecordIOTiling(t *testing.T) {
	spec := smallSpec()
	spec.Format = RecordIO
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Shards {
		off := int64(0)
		for _, e := range s.Records {
			if e.Offset != off {
				t.Fatalf("shard %s: record at %d, want %d", s.Name, e.Offset, off)
			}
			off = RecordIO.RecordEnd(e)
		}
		if off != s.Size {
			t.Fatalf("shard %s: records end at %d, size %d", s.Name, off, s.Size)
		}
	}
}

func TestMaterializeRecordIODecodes(t *testing.T) {
	ctx := context.Background()
	b := storage.NewMemFS("pfs", 0)
	spec := smallSpec()
	spec.Format = RecordIO
	spec.NumImages, spec.NumShards = 30, 3
	m, err := Materialize(ctx, b, spec)
	if err != nil {
		t.Fatal(err)
	}
	recID := 0
	for _, shard := range m.Shards {
		data, err := b.ReadFile(ctx, shard.Name)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != shard.Size {
			t.Fatalf("shard %s: %d bytes on disk, planned %d", shard.Name, len(data), shard.Size)
		}
		idx, err := recordio.BuildIndex(data)
		if err != nil {
			t.Fatalf("shard %s invalid RecordIO: %v", shard.Name, err)
		}
		if len(idx) != len(shard.Records) {
			t.Fatalf("shard %s: %d records, planned %d", shard.Name, len(idx), len(shard.Records))
		}
		r := recordio.NewReader(bytes.NewReader(data))
		for range shard.Records {
			payload, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, Payload(recID, len(payload))) {
				t.Fatalf("record %d payload mismatch", recID)
			}
			recID++
		}
	}
}

func TestMaterializeMatchesPlan(t *testing.T) {
	ctx := context.Background()
	b := storage.NewMemFS("pfs", 0)
	spec := smallSpec()
	m, err := Materialize(ctx, b, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range m.Shards {
		fi, err := b.Stat(ctx, shard.Name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size != shard.Size {
			t.Fatalf("shard %s: on disk %d, planned %d", shard.Name, fi.Size, shard.Size)
		}
		data, err := b.ReadFile(ctx, shard.Name)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := tfrecord.BuildIndex(data)
		if err != nil {
			t.Fatalf("shard %s is not valid TFRecord: %v", shard.Name, err)
		}
		if len(idx) != len(shard.Records) {
			t.Fatalf("shard %s: %d records on disk, planned %d", shard.Name, len(idx), len(shard.Records))
		}
		for i := range idx {
			if idx[i] != shard.Records[i] {
				t.Fatalf("shard %s record %d: disk %+v, plan %+v", shard.Name, i, idx[i], shard.Records[i])
			}
		}
	}
}

func TestMaterializedRecordsDecodeWithCRC(t *testing.T) {
	ctx := context.Background()
	b := storage.NewMemFS("pfs", 0)
	spec := smallSpec()
	spec.NumImages, spec.NumShards = 20, 2
	m, err := Materialize(ctx, b, spec)
	if err != nil {
		t.Fatal(err)
	}
	recID := 0
	for _, shard := range m.Shards {
		data, _ := b.ReadFile(ctx, shard.Name)
		r := tfrecord.NewReader(bytes.NewReader(data))
		for range shard.Records {
			payload, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, Payload(recID, len(payload))) {
				t.Fatalf("record %d payload mismatch", recID)
			}
			recID++
		}
	}
}

func TestMaterializeTFExamplePayloads(t *testing.T) {
	ctx := context.Background()
	b := storage.NewMemFS("pfs", 0)
	spec := smallSpec()
	spec.TFExamplePayloads = true
	spec.NumImages, spec.NumShards = 20, 2
	m, err := Materialize(ctx, b, spec)
	if err != nil {
		t.Fatal(err)
	}
	recID := 0
	for _, shard := range m.Shards {
		data, _ := b.ReadFile(ctx, shard.Name)
		r := tfrecord.NewReader(bytes.NewReader(data))
		for _, e := range shard.Records {
			payload, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(payload)) != e.Length {
				t.Fatalf("record %d: payload %d bytes, planned %d", recID, len(payload), e.Length)
			}
			ex, err := tfexample.Unmarshal(payload)
			if err != nil {
				t.Fatalf("record %d not a tf.Example: %v", recID, err)
			}
			if got := ex["image/class/label"].Ints[0]; got != int64(recID%1000) {
				t.Fatalf("record %d label = %d", recID, got)
			}
			if len(ex["image/encoded"].Bytes[0]) == 0 {
				t.Fatalf("record %d has no image bytes", recID)
			}
			recID++
		}
	}
}

func TestExamplePayloadExactAndDeterministic(t *testing.T) {
	a, err := ExamplePayload(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExamplePayload(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 500 || !bytes.Equal(a, b) {
		t.Fatalf("len=%d equal=%v", len(a), bytes.Equal(a, b))
	}
}

func TestMaterializeQuotaFailure(t *testing.T) {
	ctx := context.Background()
	b := storage.NewMemFS("tiny", 100)
	if _, err := Materialize(ctx, b, smallSpec()); err == nil {
		t.Fatal("expected quota failure")
	}
}

func TestPayloadDeterministicAndDistinct(t *testing.T) {
	a := Payload(1, 64)
	b := Payload(1, 64)
	c := Payload(2, 64)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("distinct records share payloads")
	}
}

func TestPayloadProperty(t *testing.T) {
	err := quick.Check(func(id uint16, length uint8) bool {
		p := Payload(int(id), int(length))
		return len(p) == int(length)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFronteraSpecs(t *testing.T) {
	ds100, ds200 := Frontera(1)
	if err := ds100.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ds200.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds100.NumImages != 900_000 || ds200.NumImages != 3_000_000 {
		t.Fatalf("image counts: %d / %d", ds100.NumImages, ds200.NumImages)
	}
	if ds100.TotalBytes != 100<<30 || ds200.TotalBytes != 200<<30 {
		t.Fatalf("sizes: %d / %d", ds100.TotalBytes, ds200.TotalBytes)
	}

	small100, small200 := Frontera(1.0 / 64)
	if err := small100.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := small200.Validate(); err != nil {
		t.Fatal(err)
	}
	if small100.NumShards != 25 {
		t.Fatalf("scaled shards = %d", small100.NumShards)
	}
	// Mean image size must be scale-invariant so access granularity and
	// per-image preprocess cost stay faithful at small scales.
	if d := float64(small100.MeanImageBytes()) / float64(ds100.MeanImageBytes()); d < 0.95 || d > 1.05 {
		t.Fatalf("mean image size drifted by %vx under scaling", d)
	}
}

func TestFronteraPanicsOnBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v should panic", s)
				}
			}()
			Frontera(s)
		}()
	}
}

func BenchmarkPlan100GiBManifest(b *testing.B) {
	ds100, _ := Frontera(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(ds100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeSmall(b *testing.B) {
	ctx := context.Background()
	spec := smallSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(ctx, storage.NewMemFS("m", 0), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestShardWorkers(t *testing.T) {
	for _, c := range []struct {
		procs   int
		largest int64
		want    int
	}{
		{2, 1 << 20, 2},
		{64, 1 << 20, 64},
		{64, 64 << 20, 4}, // the paper's shards on a large host
		{64, 100 << 20, 2},
		{8, 256 << 20, 1},
		{8, 1 << 30, 1},
		{1, 1, 1},
	} {
		if got := shardWorkers(c.procs, c.largest); got != c.want {
			t.Errorf("shardWorkers(%d, %d) = %d, want %d", c.procs, c.largest, got, c.want)
		}
	}
}

// writeHook runs every WriteFile through fn, one call at a time. It
// records how many shard buffers were handed to it at once, and fails t
// on a call once done is set.
type writeHook struct {
	storage.Backend
	t  *testing.T
	fn func(ctx context.Context, name string, data []byte) error

	mu             sync.Mutex
	inFlight, peak atomic.Int32
	done           atomic.Bool
}

func (w *writeHook) WriteFile(ctx context.Context, name string, data []byte) error {
	if w.done.Load() {
		w.t.Errorf("WriteFile(%s) after Materialize returned", name)
	}
	n := w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	for p := w.peak.Load(); n > p && !w.peak.CompareAndSwap(p, n); p = w.peak.Load() {
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fn(ctx, name, data)
}

// TestMaterializeFailureLeavesNoGoroutine fails Materialize on a full
// backend and on a context cancelled after the first shard: both must
// return the error, with no write after the return and no goroutine
// left behind. A worker past its last statement may still be counted
// for a moment, so the count gets a second to settle; a worker that
// never exits does not.
func TestMaterializeFailureLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers on any host
	spec := smallSpec()
	spec.NumImages, spec.NumShards = 40, 8
	full := storage.NewMemFS("tiny", 100) // TestMaterializeQuotaFailure's backend
	mem := storage.NewMemFS("m", 0)
	cancelCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		hook *writeHook
		want error
	}{
		{"quota", context.Background(), &writeHook{Backend: full, t: t, fn: full.WriteFile}, storage.ErrNoSpace},
		{"cancelled", cancelCtx, &writeHook{Backend: mem, t: t, fn: func(ctx context.Context, name string, data []byte) error {
			defer cancel()
			return mem.WriteFile(ctx, name, data)
		}}, context.Canceled},
	} {
		before := runtime.NumGoroutine()
		_, err := Materialize(c.ctx, c.hook, spec)
		c.hook.done.Store(true)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Materialize returned %v, want %v", c.name, err, c.want)
		}
		if peak := c.hook.peak.Load(); peak > 4 {
			t.Errorf("%s: %d shard buffers handed to WriteFile at once, workers 4", c.name, peak)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after != before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before Materialize, %d a second after it returned:\n%s",
				c.name, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
	if files, err := mem.List(context.Background()); err != nil || len(files) != 1 {
		t.Errorf("cancelled after the first shard, %d shards written (%v)", len(files), err)
	}
}

// TestMaterializeReturnsEarliestShardError fails two shards and wants
// the lower one's error, whichever worker failed first.
func TestMaterializeReturnsEarliestShardError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	spec := smallSpec()
	spec.NumImages, spec.NumShards = 40, 8
	m, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	errLow, errHigh := errors.New("shard 2 refused"), errors.New("shard 3 refused")
	mem := storage.NewMemFS("m", 0)
	hook := &writeHook{Backend: mem, t: t, fn: func(ctx context.Context, name string, data []byte) error {
		switch name {
		case m.Shards[2].Name:
			return errLow
		case m.Shards[3].Name:
			return errHigh
		}
		return mem.WriteFile(ctx, name, data)
	}}
	for range 20 {
		if _, err := Materialize(context.Background(), hook, spec); !errors.Is(err, errLow) {
			t.Fatalf("Materialize returned %v, want shard 2's error", err)
		}
	}
}
