package cpu

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hotleakage/internal/bpred"
	"hotleakage/internal/workload"
)

// TestFrontRecPacked pins the packed record layout: a front costs 32 bytes
// per instruction, so a chunk is 2 MiB.
func TestFrontRecPacked(t *testing.T) {
	if got := unsafe.Sizeof(FrontRec{}); got != 32 {
		t.Fatalf("sizeof(FrontRec) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(FrontChunk{}); got != 2<<20 {
		t.Fatalf("sizeof(FrontChunk) = %d, want 2 MiB", got)
	}
}

// chunkList is a minimal FrontChunks: a free list that counts the chunks
// it made, and panics on Get number failAt (1-based) when that is set.
type chunkList struct {
	mu     sync.Mutex
	free   []*FrontChunk
	made   int
	gets   int
	failAt int
}

func (l *chunkList) Get() *FrontChunk {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gets++; l.gets == l.failAt {
		panic("chunk storage exhausted")
	}
	if n := len(l.free); n > 0 {
		c := l.free[n-1]
		l.free = l.free[:n-1]
		return c
	}
	l.made++
	return new(FrontChunk)
}

func (l *chunkList) Put(c *FrontChunk) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, c)
}

func newTestFront(prof workload.Profile, n uint64, readers int, store FrontChunks) *Front {
	f := NewFront(n, readers, store)
	f.Start(workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()))
	return f
}

// TestFrontFillMatchesGenerator checks, for every profile, that the packed
// records carry exactly the fields replay reads — PC, address, both
// dependence distances, op class and direction — of a fresh generator's
// stream. n is not a multiple of the chunk length, so the reads cross two
// chunk boundaries into a partial last chunk; the chunks are released as
// the read passes them and cycle through one free list across profiles,
// so dirty chunk reuse is covered too.
func TestFrontFillMatchesGenerator(t *testing.T) {
	const n = 2*FrontChunkLen + 12_345
	store := new(chunkList)
	for _, name := range workload.Names() {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		f := newTestFront(prof, n, 1, store)
		if f.Chunks() != 3 {
			t.Fatalf("%s: %d chunks, want 3", name, f.Chunks())
		}
		gen := workload.NewGenerator(prof)
		var ins workload.Instr
		for i := 0; i < n; i++ {
			if i > 0 && i%FrontChunkLen == 0 {
				f.Release(i/FrontChunkLen-1, i/FrontChunkLen)
			}
			r := f.chunk(i / FrontChunkLen)[i%FrontChunkLen]
			gen.Next(&ins)
			if r.PC != ins.PC || r.Addr != ins.Addr || r.Src1 != ins.Src1 ||
				r.Src2 != ins.Src2 || r.Op != ins.Op || (r.Flags&FrontTaken != 0) != ins.Taken {
				t.Fatalf("%s record %d: %+v does not match generator %+v", name, i, r, ins)
			}
		}
		if f.gen != nil || f.pred != nil {
			t.Fatalf("%s: fill source kept after the last chunk", name)
		}
		f.Release(2, 3)
	}
	if store.made != 1 || len(store.free) != 1 {
		t.Fatalf("made %d chunks, %d free; want 1 and 1 (each released before the next fill)", store.made, len(store.free))
	}
}

// TestFrontReleaseRefcount checks the reference rule: a chunk returns to
// the store only when every reader has released it, a reader that never
// reads still holds every chunk until it releases, and a chunk every
// reader released before it was filled goes straight back.
func TestFrontReleaseRefcount(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	store := new(chunkList)
	f := newTestFront(prof, 3*FrontChunkLen, 2, store)
	f.chunk(1) // fills chunks 0 and 1
	if store.made != 2 || len(store.free) != 0 {
		t.Fatalf("after filling 2 chunks: made %d, free %d", store.made, len(store.free))
	}
	f.Release(0, 2)
	if len(store.free) != 0 {
		t.Fatalf("one reader's release freed %d chunks while the other still holds them", len(store.free))
	}
	f.Release(0, 3) // the second reader exits without reading
	if len(store.free) != 2 {
		t.Fatalf("free = %d after both readers released chunks 0-1, want 2", len(store.free))
	}
	f.chunk(2) // only the first reader still holds chunk 2
	f.Release(2, 3)
	if store.made != 2 || len(store.free) != 2 {
		t.Fatalf("made %d, free %d; want chunk 2 to reuse a freed chunk and return", store.made, len(store.free))
	}

	g := newTestFront(prof, 2*FrontChunkLen, 1, store)
	g.Release(0, 1)
	g.chunk(1) // fills chunk 0, which nobody holds, on the way
	if len(store.free) != 1 {
		t.Fatalf("free = %d; the unheld chunk 0 should have gone straight back", len(store.free))
	}
	mustPanic(t, "read after release", func() { g.chunk(0) })
}

// TestFrontFillFailure checks that a panic during a chunk fill fails the
// front: that request and every later one for an unfilled chunk panic
// with the fill error, while already-published chunks stay readable.
func TestFrontFillFailure(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	store := &chunkList{failAt: 2}
	f := newTestFront(prof, 3*FrontChunkLen, 1, store)
	f.chunk(0)
	for i := 0; i < 2; i++ {
		mustPanic(t, "batch front fill: chunk storage exhausted", func() { f.chunk(1) })
	}
	mustPanic(t, "batch front fill", func() { f.chunk(2) })
	f.chunk(0)
	if f.gen != nil || f.pred != nil {
		t.Fatal("failed front kept its fill source")
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
