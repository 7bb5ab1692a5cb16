package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hotleakage/internal/workload"
)

// FuzzNewReader feeds arbitrary bytes to the trace-file decoder: each
// input must either fail with ErrBadTrace or yield a non-empty Reader
// that replays (wrapping included) without panicking. The seed corpus in
// testdata/fuzz/FuzzNewReader holds a recorded gcc trace and cuts of it.
func FuzzNewReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error outside ErrBadTrace: %v", err)
			}
			return
		}
		if r.Len() == 0 {
			t.Fatal("reader accepted an empty trace")
		}
		var ins workload.Instr
		for i := 0; i <= min(2*r.Len(), 1<<12); i++ {
			r.Next(&ins)
		}
	})
}

// TestReaderBoundsForgedHint: a header whose count hint claims 2^26
// records used to make NewReader preallocate ~3 GB for a payload holding
// one record (the forged-hint corpus entry). The preallocation is now
// bounded by what the payload can encode.
func TestReaderBoundsForgedHint(t *testing.T) {
	buf, _ := record(t, "gcc", 1)
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[len(magic)+2+len("gcc"):], 1<<26)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || cap(r.records) > len(data) {
		t.Fatalf("len %d cap %d for a %d-byte trace", r.Len(), cap(r.records), len(data))
	}
}
