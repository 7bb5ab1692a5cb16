package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// FuzzOpen feeds arbitrary bytes to open-time recovery, written both as a
// sealed segment and as the append segment of one store. Open must not
// panic. Every hash it indexes must read back as the first valid record
// the bytes hold under that hash, or fail with an error, never as other
// bytes. A Put after open must read back, before and after a reopen, so
// recovery has to leave the append segment on a record boundary. The seed
// corpus in testdata/fuzz/FuzzOpen holds a valid segment, one with a torn
// tail and one with a bit-rotted, non-UTF-8 record.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, name := range []string{"seg-000001.jsonl", "seg-000002.jsonl"} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{FS: unsyncedFS{}, Logf: func(string, ...any) {}}
		s, err := OpenOptions(dir, opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer func() { s.Close() }()

		want := validRecords(data)
		if got := s.Len(); got != len(want) {
			t.Fatalf("indexed %d records, the bytes hold %d valid ones", got, len(want))
		}
		for hash, value := range want {
			rec, ok, err := s.Get(hash)
			if err != nil {
				continue
			}
			if !ok || rec.Hash != hash || !bytes.Equal(rec.Value, value) {
				t.Fatalf("Get(%q) = %q, %v; want value %q", hash, rec.Value, ok, value)
			}
		}

		hash := "fuzz-put"
		for s.Has(hash) {
			hash += "+"
		}
		if err := s.Put(hash, nil, []int{1, 2, 3}); err != nil {
			t.Fatalf("put: %v", err)
		}
		for round := 0; round < 2; round++ {
			rec, ok, err := s.Get(hash)
			if err != nil || !ok || string(rec.Value) != "[1,2,3]" {
				t.Fatalf("round %d: Get after Put = %q, %v, %v", round, rec.Value, ok, err)
			}
			if round == 0 {
				s.Close()
				if s, err = OpenOptions(dir, opts); err != nil {
					t.Fatalf("reopen: %v", err)
				}
			}
		}
	})
}

// unsyncedFS is OSFS without fsync: the fuzz target checks what Open and
// Put leave on disk, not durability, and a sync per input would stall the
// fuzzer on slow disks.
type unsyncedFS struct{ OSFS }

func (fs unsyncedFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (unsyncedFS) SyncDir(string) error { return nil }

type unsyncedFile struct{ File }

func (unsyncedFile) Sync() error { return nil }

// validRecords returns, per hash, the value of the first record among
// data's complete lines that open-time recovery accepts.
func validRecords(data []byte) map[string]json.RawMessage {
	out := map[string]json.RawMessage{}
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return out
		}
		line := data[:i]
		data = data[i+1:]
		var rec segRecord
		if json.Unmarshal(line, &rec) != nil || rec.Hash == "" || rec.Value == nil || !utf8.Valid(line) {
			continue
		}
		if _, dup := out[rec.Hash]; !dup {
			out[rec.Hash] = rec.Value
		}
	}
}
