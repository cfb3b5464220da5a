package main

import (
	"bytes"
	"context"
	"errors"
	"io"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/tfrecord"
)

// shardReader streams one file through Monarch.ReadAt as an io.Reader,
// counting each read like any other loader op.
type shardReader struct {
	ctx   context.Context
	m     *core.Monarch
	name  string
	off   int64
	tally *tally
}

func (r *shardReader) Read(p []byte) (int, error) {
	n, err := r.m.ReadAt(r.ctx, r.name, p, r.off)
	r.tally.op(err, true)
	r.off += int64(n)
	if err == nil && n == 0 {
		err = io.EOF
	}
	return n, err
}

// verifyDataset decodes every shard through every node's Monarch with
// the CRC-checking TFRecord reader and compares each payload with what
// dataset.Payload says record id must hold. A shard that does not
// verify counts as one failed operation. It runs after the timed
// window, on whatever tier each file ended up on.
func verifyDataset(ctx context.Context, j *job) {
	for _, n := range j.st.nodes {
		id := 0
		for _, s := range j.st.shards() {
			rd := tfrecord.NewReader(&shardReader{ctx: ctx, m: n.m, name: s.Name, tally: j.tally})
			ok := true
			for _, want := range s.Records {
				got, err := rd.Next()
				if err != nil || !bytes.Equal(got, dataset.Payload(id, int(want.Length))) {
					ok = false
				}
				id++
			}
			if _, err := rd.Next(); !errors.Is(err, io.EOF) {
				ok = false
			}
			if !ok {
				j.tally.failed.Add(1)
			}
		}
	}
}
