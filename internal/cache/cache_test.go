package cache

import (
	"math/bits"
	"testing"
	"testing/quick"
	"unsafe"

	"hotleakage/internal/tech"
)

func p70() *tech.Params { return tech.MustByNode(tech.Node70) }

func tinyCfg() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 2}
}

func TestConfigValidate(t *testing.T) {
	good := tinyCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "zero"},
		{Name: "notpow2", SizeBytes: 3 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 1},
		{Name: "oddline", SizeBytes: 1024, LineBytes: 48, Assoc: 2, HitLatency: 1},
		{Name: "nolat", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 0},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
}

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2}
	if c.Sets() != 512 {
		t.Fatalf("Sets = %d, want 512", c.Sets())
	}
}

func TestHitAfterMiss(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	addr := uint64(0x1000)
	lat := c.Access(addr, false, 1)
	if lat != 2+100 {
		t.Fatalf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(addr, false, 2); lat != 2 {
		t.Fatalf("hit latency = %d, want 2", lat)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	if lat := c.Access(0x1038, false, 2); lat != 2 {
		t.Fatalf("same-line access missed: %d", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	// 8 sets, 2 ways. Three lines in the same set: the least recently
	// used must be evicted.
	set0 := func(i uint64) uint64 { return i * 8 * 64 } // same set index 0
	c.Access(set0(1), false, 1)
	c.Access(set0(2), false, 2)
	c.Access(set0(1), false, 3) // refresh line 1
	c.Access(set0(3), false, 4) // evicts line 2
	if !c.Contains(set0(1)) || !c.Contains(set0(3)) {
		t.Fatal("expected lines 1 and 3 resident")
	}
	if c.Contains(set0(2)) {
		t.Fatal("line 2 should have been evicted (LRU)")
	}
}

func TestWritebackDirtyVictim(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	set0 := func(i uint64) uint64 { return i * 8 * 64 }
	c.Access(set0(1), true, 1) // dirty
	c.Access(set0(2), false, 2)
	c.Access(set0(3), false, 3) // evicts dirty line 1
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// The writeback reaches memory as a write access.
	if mem.Stats.Accesses != 4 { // 3 fills + 1 writeback
		t.Fatalf("memory accesses = %d, want 4", mem.Stats.Accesses)
	}
}

func TestWriteAllocates(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x2000, true, 1)
	if !c.Contains(0x2000) {
		t.Fatal("write did not allocate")
	}
}

func TestHierarchyLatency(t *testing.T) {
	mem := NewMemory(p70(), 100)
	l2 := MustNew(p70(), Config{Name: "l2", SizeBytes: 4096, LineBytes: 64, Assoc: 2, HitLatency: 11}, mem)
	l1 := MustNew(p70(), tinyCfg(), l2)
	// Cold: L1 miss + L2 miss + memory.
	if lat := l1.Access(0x4000, false, 1); lat != 2+11+100 {
		t.Fatalf("cold latency = %d, want 113", lat)
	}
	// L1 hit.
	if lat := l1.Access(0x4000, false, 2); lat != 2 {
		t.Fatalf("L1 hit = %d", lat)
	}
	// Evict from L1 (same set pressure), keep in L2: L1 miss + L2 hit.
	set := func(i uint64) uint64 { return 0x4000 + i*8*64 }
	l1.Access(set(1), false, 3)
	l1.Access(set(2), false, 4)
	if lat := l1.Access(0x4000, false, 5); lat != 2+11 {
		t.Fatalf("L2 hit path = %d, want 13", lat)
	}
}

func TestFlush(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	c.Access(0x1000, true, 1)
	c.Access(0x2000, false, 2)
	c.Flush(3)
	if c.Contains(0x1000) || c.Contains(0x2000) {
		t.Fatal("flush left lines resident")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("flush writebacks = %d, want 1 (only the dirty line)", c.Stats.Writebacks)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	j1 := c.DynJ
	c.Access(0x1000, false, 2)
	if c.DynJ <= j1 || j1 <= 0 {
		t.Fatalf("energy not accumulating: %v -> %v", j1, c.DynJ)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	c.ResetStats()
	if c.Stats.Accesses != 0 || c.DynJ != 0 {
		t.Fatal("ResetStats incomplete")
	}
	if !c.Contains(0x1000) {
		t.Fatal("ResetStats must keep contents")
	}
}

func TestMemoryWriteOffCriticalPath(t *testing.T) {
	mem := NewMemory(p70(), 100)
	if lat := mem.Access(0, true, 1); lat != 0 {
		t.Fatalf("memory write latency = %d, want 0 (buffered)", lat)
	}
	if lat := mem.Access(0, false, 1); lat != 100 {
		t.Fatalf("memory read latency = %d", lat)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	// Property: set/tag decomposition is injective per line address.
	c := MustNew(p70(), Config{Name: "p", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 1}, nil)
	f := func(a, b uint64) bool {
		a &= (1 << 40) - 1
		b &= (1 << 40) - 1
		sa, ta := c.Index(a)
		sb, tb := c.Index(b)
		if a>>6 == b>>6 {
			return sa == sb && ta == tb
		}
		return sa != sb || ta != tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsConsistencyProperty(t *testing.T) {
	// Property: immediately after any access, the line is resident.
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	cycle := uint64(0)
	f := func(addr uint64, write bool) bool {
		cycle++
		addr &= (1 << 30) - 1
		c.Access(addr, write, cycle)
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigIsAnError(t *testing.T) {
	if _, err := New(p70(), Config{Name: "bad"}, nil); err == nil {
		t.Fatal("New with invalid config returned no error")
	}
	if _, err := New(nil, tinyCfg(), nil); err == nil {
		t.Fatal("New with nil tech params returned no error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid config did not panic")
		}
	}()
	MustNew(p70(), Config{Name: "bad"}, nil)
}

// TestLinePacked pins the packed line layout: the L2's line array is the
// largest per-lane allocation, at 8 bytes a line.
func TestLinePacked(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 8 {
		t.Fatalf("sizeof(Line) = %d, want 8", got)
	}
}

// addrLog is a Level that records the addresses it is asked for.
type addrLog struct{ writes []uint64 }

func (l *addrLog) Access(addr uint64, write bool, cycle uint64) int {
	if write {
		l.writes = append(l.writes, addr)
	}
	return 1
}
func (l *addrLog) Name() string { return "log" }

// TestNewRejectsWideTags checks that New refuses every geometry whose tag
// could reach bit 55, where the line's age and state bits start, and every
// associativity the 7-bit age cannot rank, and that the widest accepted tag
// (55 bits) keeps the top address intact: it hits, and its dirty eviction
// writes back the exact line address.
func TestNewRejectsWideTags(t *testing.T) {
	for _, g := range []struct{ line, sets int }{{1, 1}, {2, 1}, {1, 2}, {256, 1}, {64, 4}, {1, 256}} {
		cfg := Config{Name: "wide", SizeBytes: g.line * g.sets, LineBytes: g.line, Assoc: 1, HitLatency: 1}
		if _, err := New(p70(), cfg, nil); err == nil {
			t.Errorf("line %d B x %d sets: %d-bit tag accepted", g.line, g.sets, 64-bits.TrailingZeros(uint(g.line*g.sets)))
		}
	}
	wide := Config{Name: "ways", SizeBytes: 64 * (maxAssoc * 2) * 8, LineBytes: 64, Assoc: maxAssoc * 2, HitLatency: 1}
	if _, err := New(p70(), wide, nil); err == nil {
		t.Errorf("%d ways accepted", wide.Assoc)
	}
	next := new(addrLog)
	c, err := New(p70(), Config{Name: "edge", SizeBytes: 512, LineBytes: 64, Assoc: 1, HitLatency: 1}, next)
	if err != nil {
		t.Fatalf("55-bit tag rejected: %v", err)
	}
	top := ^uint64(63)
	c.Access(top, true, 1)
	if !c.Contains(top) || c.Contains(top&^(1<<63)) || c.Contains(top&^(1<<55)) {
		t.Fatal("top line not held exactly")
	}
	if lat := c.Access(top|1, false, 2); lat != 1 {
		t.Fatalf("re-access of the top line took %d cycles, want a hit", lat)
	}
	c.Access(top&^(1<<63), false, 3) // same set: evicts the dirty top line
	if len(next.writes) != 1 || next.writes[0] != top {
		t.Fatalf("writebacks %#x, want [%#x]", next.writes, top)
	}
}
