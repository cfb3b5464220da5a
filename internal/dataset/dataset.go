// Package dataset builds the synthetic stand-ins for the paper's
// ImageNet-1k derivatives: a 900 k-image / 100 GiB set and a 3 M-image /
// 200 GiB set, both packed into TFRecord shards.
//
// Two builders share one deterministic layout algorithm:
//
//   - Plan computes a Manifest — shard names, shard sizes, and the exact
//     record layout inside each shard — without materialising a byte.
//     The simulation substrate mounts manifests as virtual files.
//   - Materialize writes real TFRecord shards with deterministic
//     payloads into any storage.Backend, for functional tests, examples,
//     and the monarch-mkdataset tool.
//
// Plan and Materialize agree exactly: materialised shard n has the size
// and record offsets the manifest promised.
package dataset

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"monarch/internal/recordio"
	"monarch/internal/rng"
	"monarch/internal/storage"
	"monarch/internal/tfexample"
	"monarch/internal/tfrecord"
)

// Format selects the shard container format.
type Format int

// Supported container formats (§I of the paper names both).
const (
	// TFRecord is TensorFlow's format (the evaluation's choice).
	TFRecord Format = iota
	// RecordIO is MXNet's format.
	RecordIO
)

// String names the format.
func (f Format) String() string {
	switch f {
	case TFRecord:
		return "tfrecord"
	case RecordIO:
		return "recordio"
	default:
		return "unknown"
	}
}

// extension returns the shard file extension for the format.
func (f Format) extension() string {
	if f == RecordIO {
		return "rec"
	}
	return "tfrecord"
}

// RecordEnd returns the on-disk end offset (framing and padding
// included) of a record under this format.
func (f Format) RecordEnd(e tfrecord.Entry) int64 {
	if f == RecordIO {
		return e.Offset + recordio.RecordSize(e.Length)
	}
	return e.End()
}

// Spec describes a synthetic dataset.
type Spec struct {
	// Name prefixes shard file names ("imagenet-100g").
	Name string
	// Format selects the shard container (default TFRecord).
	Format Format
	// NumImages is the total number of records across all shards.
	NumImages int
	// TotalBytes is the approximate on-disk size target, including
	// TFRecord framing.
	TotalBytes int64
	// NumShards is the number of TFRecord files. Images are assigned to
	// shards contiguously, as TF's dataset converters do.
	NumShards int
	// SizeSigma is the lognormal spread of individual image sizes
	// (0 = all images identical).
	SizeSigma float64
	// Seed drives the deterministic size sampling.
	Seed uint64
	// TFExamplePayloads makes Materialize emit real tf.Example protobuf
	// payloads (image bytes + class label + filename) instead of raw
	// keyed patterns. Record sizes are unchanged — the manifest still
	// describes the layout exactly.
	TFExamplePayloads bool
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("dataset: empty name")
	case s.NumImages <= 0:
		return fmt.Errorf("dataset: NumImages = %d", s.NumImages)
	case s.NumShards <= 0:
		return fmt.Errorf("dataset: NumShards = %d", s.NumShards)
	case s.NumShards > s.NumImages:
		return fmt.Errorf("dataset: more shards (%d) than images (%d)", s.NumShards, s.NumImages)
	case s.TotalBytes <= 0:
		return fmt.Errorf("dataset: TotalBytes = %d", s.TotalBytes)
	}
	if s.MeanImageBytes() < 1 {
		return fmt.Errorf("dataset: TotalBytes %d too small for %d images", s.TotalBytes, s.NumImages)
	}
	return nil
}

// MeanImageBytes returns the average payload size implied by the spec,
// accounting for per-record framing overhead.
func (s Spec) MeanImageBytes() int64 {
	return s.TotalBytes/int64(s.NumImages) - tfrecord.Overhead
}

// Shard describes one TFRecord file of the dataset.
type Shard struct {
	// Name is the file name within the dataset directory.
	Name string
	// Size is the on-disk size including framing.
	Size int64
	// Records indexes every record in file order.
	Records tfrecord.Index
}

// Manifest is the fully-resolved layout of a dataset.
type Manifest struct {
	Spec   Spec
	Shards []Shard
}

// TotalBytes returns the exact on-disk footprint of all shards.
func (m *Manifest) TotalBytes() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].Size
	}
	return t
}

// NumRecords returns the total record count.
func (m *Manifest) NumRecords() int {
	n := 0
	for i := range m.Shards {
		n += len(m.Shards[i].Records)
	}
	return n
}

// ShardName formats the canonical shard file name, mirroring TF's
// "name.tfrecord-00017-of-01600" convention (extension varies with the
// format).
func ShardName(base string, f Format, index, total int) string {
	return fmt.Sprintf("%s.%s-%05d-of-%05d", base, f.extension(), index, total)
}

// Plan computes the manifest for spec deterministically.
func Plan(spec Spec) (*Manifest, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(spec.Seed)
	mean := float64(spec.MeanImageBytes())
	m := &Manifest{Spec: spec, Shards: make([]Shard, spec.NumShards)}

	perShard := spec.NumImages / spec.NumShards
	extra := spec.NumImages % spec.NumShards
	for i := 0; i < spec.NumShards; i++ {
		count := perShard
		if i < extra {
			count++
		}
		shard := Shard{
			Name:    ShardName(spec.Name, spec.Format, i, spec.NumShards),
			Records: make(tfrecord.Index, count),
		}
		off := int64(0)
		for r := 0; r < count; r++ {
			size := imageSize(src, mean, spec.SizeSigma)
			e := tfrecord.Entry{Offset: off, Length: size}
			shard.Records[r] = e
			off = spec.Format.RecordEnd(e)
		}
		shard.Size = off
		m.Shards[i] = shard
	}
	return m, nil
}

// imageSize samples one image payload size: lognormal around mean with
// spread sigma, clamped to at least 1 byte.
func imageSize(src *rng.Source, mean, sigma float64) int64 {
	if sigma <= 0 {
		return int64(mean)
	}
	v := int64(src.LogNormalMean(mean, sigma))
	if v < 1 {
		v = 1
	}
	return v
}

// Materialize writes the dataset's shards into b as real TFRecord (or
// RecordIO) files and returns the manifest they follow. Payload bytes
// are deterministic per record so reads are verifiable.
//
// Shards are built concurrently, each in one buffer of its own size, by
// at most shardWorkers goroutines, all of which have exited when
// Materialize returns. After a failed write or with ctx done no further
// shard is started, and the error of the earliest failed shard is
// returned.
func Materialize(ctx context.Context, b storage.Backend, spec Spec) (*Manifest, error) {
	m, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	first := make([]int, len(m.Shards)) // the id of each shard's first record
	id, largest := 0, int64(0)
	for i, s := range m.Shards {
		first[i] = id
		id += len(s.Records)
		largest = max(largest, s.Size)
	}
	errs := make([]error, len(m.Shards))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(shardWorkers(runtime.GOMAXPROCS(0), largest), len(m.Shards)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(m.Shards) {
					return
				}
				if errs[i] = writeShard(ctx, b, spec, m.Shards[i], first[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// shardBufferBytes bounds the shard buffers Materialize holds at once.
const shardBufferBytes = 256 << 20

// shardWorkers is how many shards Materialize builds at once: one per
// processor, but no more than shardBufferBytes of the largest shard
// holds, and at least one.
func shardWorkers(procs int, largest int64) int {
	return int(min(int64(procs), max(1, shardBufferBytes/largest)))
}

// writeShard builds shard, whose first record is firstID, and writes it
// to b.
func writeShard(ctx context.Context, b storage.Backend, spec Spec, shard Shard, firstID int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", shard.Name, err)
	}
	data, err := buildShard(spec, shard, firstID)
	if err != nil {
		return err
	}
	if err := b.WriteFile(ctx, shard.Name, data); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", shard.Name, err)
	}
	return nil
}

// buildShard lays shard out in one buffer: each record's payload is
// generated at its manifest offset and framed where it lies.
func buildShard(spec Spec, shard Shard, firstID int) ([]byte, error) {
	// TFRecord: uint64 length, uint32 masked CRC of it. RecordIO:
	// uint32 magic, uint32 length.
	header := int64(8 + 4)
	if spec.Format == RecordIO {
		header = 4 + 4
	}
	buf := make([]byte, shard.Size)
	for r, e := range shard.Records {
		id := firstID + r
		if spec.Format == RecordIO && e.Length > recordioMaxLength {
			return nil, fmt.Errorf("dataset: shard %s record %d: %w", shard.Name, id, recordio.ErrTooLarge)
		}
		rec := buf[e.Offset:spec.Format.RecordEnd(e)]
		data := rec[header : header+e.Length]
		if spec.TFExamplePayloads {
			ex, err := ExamplePayload(id, len(data))
			if err != nil {
				return nil, fmt.Errorf("dataset: shard %s record %d: %w", shard.Name, id, err)
			}
			copy(data, ex)
		} else {
			fill(data, id)
		}
		if spec.Format == RecordIO {
			binary.LittleEndian.PutUint32(rec, recordio.Magic)
			binary.LittleEndian.PutUint32(rec[4:], uint32(e.Length))
			continue // the zero padding after data is make's
		}
		binary.LittleEndian.PutUint64(rec, uint64(e.Length))
		binary.LittleEndian.PutUint32(rec[8:], tfrecord.MaskedCRC(rec[:8]))
		binary.LittleEndian.PutUint32(rec[header+e.Length:], tfrecord.MaskedCRC(data))
	}
	return buf, nil
}

// recordioMaxLength is the largest payload a single-part RecordIO
// record's 29-bit length field holds.
const recordioMaxLength = 1<<29 - 1

// ExamplePayload returns record id's content as a serialized
// tf.Example of exactly `length` bytes: deterministic image bytes, the
// class label id%1000 (ImageNet's class count), and a filename.
func ExamplePayload(id, length int) ([]byte, error) {
	return tfexample.MarshalToSize(int64(id%1000), fmt.Sprintf("img-%08d.jpg", id),
		length, byte(id*131+17))
}

// Frontera reproduces the paper's two evaluation datasets at an
// arbitrary scale in (0, 1]. Scale 1 is the full 100 GiB / 200 GiB pair;
// benches run smaller scales. The shard-size choice (64 MiB vs 32 MiB)
// is our substitution documented in DESIGN.md — the paper does not state
// shard counts.
func Frontera(scale float64) (ds100, ds200 Spec) {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("dataset: scale %v out of (0, 1]", scale))
	}
	const gib = int64(1) << 30
	ds100 = Spec{
		Name:       "imagenet-100g",
		NumImages:  scaleInt(900_000, scale),
		TotalBytes: int64(float64(100*gib) * scale),
		NumShards:  scaleInt(1600, scale),
		SizeSigma:  0.35,
		Seed:       100,
	}
	ds200 = Spec{
		Name:       "imagenet-200g",
		NumImages:  scaleInt(3_000_000, scale),
		TotalBytes: int64(float64(200*gib) * scale),
		NumShards:  scaleInt(6400, scale),
		SizeSigma:  0.35,
		Seed:       200,
	}
	return ds100, ds200
}

func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}
