package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestReadRefusesOtherVersions: the record layout belongs to the
// version, so a header that is not this reader's must fail up front
// with a clear error instead of being mis-parsed (a version-1 binary
// capture had 32-byte records; read as 40-byte ones it would decode
// into garbage events).
func TestReadRefusesOtherVersions(t *testing.T) {
	for _, v := range []int{1, Version + 1} {
		hdr, err := json.Marshal(Header{Version: v, Clock: "wall", Levels: []Level{{Name: "ssd"}}})
		if err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		bin.Write(binMagic)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(hdr)))
		bin.Write(n[:])
		bin.Write(hdr)
		bin.WriteByte(tagEvent)
		bin.Write(make([]byte, 32)) // one version-1-sized record
		for enc, in := range map[string]*bytes.Buffer{
			"binary": &bin,
			"jsonl":  bytes.NewBuffer(append(hdr, '\n')),
		} {
			_, err := Read(in)
			want := fmt.Sprintf("unsupported trace version %d", v)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s version %d: err = %v, want %q", enc, v, err, want)
			}
		}
	}
}
