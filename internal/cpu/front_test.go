package cpu

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"hotleakage/internal/bpred"
	"hotleakage/internal/workload"
)

// TestFrontRecPacked pins the packed record layout: a front costs 16 bytes
// per instruction, so a chunk is 1 MiB.
func TestFrontRecPacked(t *testing.T) {
	if got := unsafe.Sizeof(FrontRec{}); got != 16 {
		t.Fatalf("sizeof(FrontRec) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(FrontChunk{}); got != 1<<20 {
		t.Fatalf("sizeof(FrontChunk) = %d, want 1 MiB", got)
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
// dependence distances (clamped at FrontMaxDist), op class and direction —
// of a fresh generator's stream, plus a gcc variant whose distances mostly
// pass the clamp. n is not a multiple of the chunk length, so the reads cross two
// chunk boundaries into a partial last chunk; the chunks are released as
// the read passes them and cycle through one free list across profiles,
// so dirty chunk reuse is covered too.
func TestFrontFillMatchesGenerator(t *testing.T) {
	const n = 2*FrontChunkLen + 12_345
	store := new(chunkList)
	profs := workload.Profiles()
	far, _ := workload.ByName("gcc")
	far.Name, far.DepP = "gcc-far-deps", 1e-5 // mean distance 100k
	for _, prof := range append(profs, far) {
		name := prof.Name
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
			if uint64(r.PC) != ins.PC || uint64(r.Addr) != ins.Addr ||
				int32(r.Src1) != min(ins.Src1, FrontMaxDist) || int32(r.Src2) != min(ins.Src2, FrontMaxDist) ||
				r.Op != ins.Op || (r.Flags&FrontTaken != 0) != ins.Taken {
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

// TestFrontDistClamp pins the dependence-distance clamp: distances up to
// FrontMaxDist are kept, longer ones (and the negative values fetch reads
// as huge unsigned distances) become FrontMaxDist.
func TestFrontDistClamp(t *testing.T) {
	for _, c := range []struct {
		d    int32
		want uint16
	}{{0, 0}, {1, 1}, {45, 45}, {FrontMaxDist - 1, FrontMaxDist - 1}, {FrontMaxDist, FrontMaxDist}, {FrontMaxDist + 1, FrontMaxDist}, {1 << 30, FrontMaxDist}, {-1, FrontMaxDist}} {
		if got := frontDist(c.d); got != c.want {
			t.Errorf("frontDist(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestAttachFrontRefusesLongRing checks the clamp's guard: a core whose
// RUU ring could hold a producer FrontMaxDist instructions back cannot
// replay a front, while the largest ring below that bound can.
func TestAttachFrontRefusesLongRing(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	f := newTestFront(prof, FrontChunkLen, 1, new(chunkList))
	defer f.Release(0, 1)
	for _, c := range []struct {
		ruu int
		ok  bool
	}{{80, true}, {1<<15 - 12, true}, {1<<15 - 11, false}, {1 << 16, false}} {
		cfg := DefaultConfig()
		cfg.RUUSize = c.ruu
		core := New(cfg, nil, nil, nil, nil)
		if err := core.AttachFront(f); (err == nil) != c.ok {
			t.Errorf("RUU %d (ring %d): AttachFront error %v, want ok=%v", c.ruu, core.ringMask+1, err, c.ok)
		}
	}
}

// scheduleStore is a FrontChunks for one front that knows which stream
// chunk each piece of storage holds: fills run in stream order, so the
// k-th Get is chunk k. It records every return and fails the test on a
// second return of the same chunk.
type scheduleStore struct {
	t        *testing.T
	mu       sync.Mutex
	free     []*FrontChunk
	index    map[*FrontChunk]int
	gets     int
	made     int
	returned []int // per chunk: times returned
}

func (s *scheduleStore) Get() *FrontChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c *FrontChunk
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		c = new(FrontChunk)
		s.made++
	}
	s.index[c] = s.gets
	s.gets++
	return c
}

func (s *scheduleStore) Put(c *FrontChunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.index[c]
	if s.returned[i]++; s.returned[i] > 1 {
		s.t.Errorf("chunk %d returned %d times", i, s.returned[i])
	}
	s.free = append(s.free, c)
}

// live reports whether chunk i is filled and not yet returned.
func (s *scheduleStore) live(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return i < s.gets && s.returned[i] == 0
}

// TestFrontRandomSchedules drives one front with several readers, each
// advancing by a random number of records per step and stopping at a
// random point (some before reading anything, some at the end), releasing
// chunks the way a lockstep group does: everything below its position
// after each step, everything left on exit. Every record read must match
// the generator and lie in a chunk not yet returned; afterwards every
// filled chunk must have gone back to the store exactly once. Run it under
// -race to check the lock-free reads against the fills and releases.
func TestFrontRandomSchedules(t *testing.T) {
	const n = 4*FrontChunkLen + 777
	prof, _ := workload.ByName("vpr")
	want := make([]uint32, n)
	gen := workload.NewGenerator(prof)
	var ins workload.Instr
	for i := range want {
		gen.Next(&ins)
		want[i] = uint32(ins.PC) ^ uint32(ins.Addr)
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		readers := 2 + rng.Intn(4)
		store := &scheduleStore{t: t, index: map[*FrontChunk]int{}, returned: make([]int, 5)}
		f := newTestFront(prof, n, readers, store)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			stop := n
			switch rng.Intn(3) {
			case 0:
				stop = rng.Intn(n)
			case 1:
				stop = rng.Intn(FrontChunkLen)
			}
			step := 1 + rng.Intn(3*FrontChunkLen/2)
			seed := rng.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				pos, held := 0, 0
				defer func() { f.Release(held, f.Chunks()) }()
				for pos < stop {
					end := min(pos+1+rng.Intn(step), stop)
					for ; pos < end; pos++ {
						i := pos >> FrontChunkShift
						r := &f.chunk(i)[pos&(FrontChunkLen-1)]
						if r.PC^r.Addr != want[pos] {
							t.Errorf("record %d read wrong contents", pos)
							return
						}
						if !store.live(i) {
							t.Errorf("record %d read from chunk %d after its release", pos, i)
							return
						}
					}
					if c := pos >> FrontChunkShift; c > held {
						f.Release(held, c)
						held = c
					}
				}
			}()
		}
		wg.Wait()
		for i, k := range store.returned {
			if i < store.gets && k != 1 {
				t.Errorf("trial %d: chunk %d returned %d times, want once", trial, i, k)
			}
		}
		if len(store.free) != store.made {
			t.Errorf("trial %d: %d chunks of storage made, %d back in the store", trial, store.made, len(store.free))
		}
	}
}
