package dataset

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"monarch/internal/storage"
)

// benchFull is the benchmark's full-size dataset: 16 shards of 1 MiB,
// nine records each.
var benchFull = Spec{Name: "train", NumImages: 16 * 9, TotalBytes: 16 << 20, NumShards: 16}

// TestMaterializeHashes pins the bytes Materialize writes for the
// dataset specs the repo measures with — the benchmark's (bench/spec.go,
// full and -quick sizes) and the experiments' (Frontera, at a scale a
// test can hold in memory), the latter with tf.Example payloads too, the
// one path through tfexample.MarshalToSize. The hashes were taken at the
// commit before MarshalToSize learned to stop at sizes that have no
// encoding: every dataset that could be generated then is generated
// byte-identically now. The RecordIO case, whose lognormal record sizes
// give every padding length, was pinned at the commit before Payload
// became a jump-ahead generator filled into the shard in place.
func TestMaterializeHashes(t *testing.T) {
	ds100, ds200 := Frontera(1.0 / 16384)
	ex100, ex200 := ds100, ds200
	ex100.TFExamplePayloads, ex200.TFExamplePayloads = true, true
	rio100 := ds100
	rio100.Format = RecordIO
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"bench-full", benchFull,
			"4d08189643c00162d28a70c6f903b5bb7142272c7a0821962096b4bfa28e6a3e"},
		{"bench-quick", Spec{Name: "train", NumImages: 8 * 9, TotalBytes: 8 << 20, NumShards: 8},
			"acffe9baedfd95acc72cb4affe65400a8c400c5676587c1969ae6de920c84e31"},
		{"ds100", ds100, "53a1f0eb83bc2e76311980c614cd64a2558ba816b1a3cbddc52a34f3dde34082"},
		{"ds200", ds200, "d50dc5594aac89d0bf7caa1f3f9bd77630c8684c23c3589c9f0513ffef83ec35"},
		{"ds100-examples", ex100, "510ca04bd84d7306099c0464750e4cddd3a9e1a66f5f32c716f9cf3d9582eb4c"},
		{"ds200-examples", ex200, "3f0fcf5e48a4ecb8c42b255333d0a601422927ebb0f55e8587670e2cf0536bbb"},
		{"ds100-recordio", rio100, "a19a7fdf375b6fe0c6e02bc22b0225330719561c88f22e3377ae7677a05eccc4"},
	} {
		b := storage.NewMemFS("m", 0)
		m, err := Materialize(context.Background(), b, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for _, s := range m.Shards {
			data, err := b.ReadFile(context.Background(), s.Name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", s.Name, len(data))
			h.Write(data)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("%s: the dataset hashes to %s, at the parent commit to %s", c.name, got, c.want)
		}
	}
}
