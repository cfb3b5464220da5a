// Command monarch-mkdataset materialises a synthetic TFRecord dataset
// on disk: deterministic image-like records packed into shards, laid
// out exactly as the simulation's manifests describe. Useful for
// exercising the real-I/O middleware (quickstart example, integration
// tests) and for inspecting the on-disk format.
//
// Usage:
//
//	monarch-mkdataset -dir /tmp/ds -images 2000 -bytes 64MiB -shards 8
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"monarch/internal/dataset"
	"monarch/internal/storage"
)

func main() {
	var (
		dir     = flag.String("dir", "", "output directory (required; created if missing)")
		name    = flag.String("name", "synthetic", "dataset name prefix")
		images  = flag.Int("images", 1000, "number of records")
		size    = flag.String("bytes", "16MiB", "total size target (e.g. 512KiB, 64MiB, 2GiB)")
		shards  = flag.Int("shards", 4, "number of shard files")
		sigma   = flag.Float64("sigma", 0.35, "lognormal spread of record sizes")
		seed    = flag.Uint64("seed", 1, "layout seed")
		format  = flag.String("format", "tfrecord", "shard container: tfrecord | recordio")
		example = flag.Bool("tfexample", false, "emit real tf.Example protobuf payloads")
	)
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	var f dataset.Format
	switch *format {
	case "tfrecord":
		f = dataset.TFRecord
	case "recordio":
		f = dataset.RecordIO
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	total, err := parseBytes(*size)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	backend, err := storage.NewOSFS("out", *dir, 0)
	if err != nil {
		fatal(err)
	}
	spec := dataset.Spec{
		Name:              *name,
		Format:            f,
		TFExamplePayloads: *example,
		NumImages:         *images,
		TotalBytes:        total,
		NumShards:         *shards,
		SizeSigma:         *sigma,
		Seed:              *seed,
	}
	man, err := dataset.Materialize(context.Background(), backend, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d shards, %d records, %d bytes to %s\n",
		len(man.Shards), man.NumRecords(), man.TotalBytes(), *dir)
	fmt.Printf("first shard: %s (%d bytes, %d records)\n",
		man.Shards[0].Name, man.Shards[0].Size, len(man.Shards[0].Records))
}

// parseBytes understands "123", "64KiB", "2MiB", "1GiB". It refuses a
// size that is not positive or does not fit an int64 once multiplied.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(upper, "KIB"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "KIB")
	case strings.HasSuffix(upper, "MIB"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "MIB")
	case strings.HasSuffix(upper, "GIB"):
		mult, upper = 1<<30, strings.TrimSuffix(upper, "GIB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n <= 0 {
		return 0, fmt.Errorf("bad size %q: must be positive", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q: exceeds %d bytes", s, int64(math.MaxInt64))
	}
	return n * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monarch-mkdataset:", err)
	os.Exit(1)
}
