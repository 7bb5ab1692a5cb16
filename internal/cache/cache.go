// Package cache implements the simulated memory hierarchy: set-associative
// write-back, write-allocate caches with LRU replacement, plus a
// fixed-latency main memory. The baseline L1 instruction cache, the unified
// L2 and memory live here; the leakage-controlled L1 data cache (package
// leakctl) is built from the same primitives.
package cache

import (
	"fmt"
	"math/bits"

	"hotleakage/internal/power"
	"hotleakage/internal/tech"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int
	Banks      int // physical banks for the energy model (>=1)
	TagBits    int // defaults to a 40-bit physical address tag if 0
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate reports configuration errors (non-power-of-two geometry, zero
// sizes) before they become index-arithmetic bugs.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, line and assoc must be positive", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %q: hit latency must be >= 1", c.Name)
	}
	if tb := 64 - bits.TrailingZeros(uint(c.LineBytes)) - bits.TrailingZeros(uint(s)); tb > maxTagBits {
		return fmt.Errorf("cache %q: %d-bit tag exceeds %d bits (line*sets must be at least 512 bytes)", c.Name, tb, maxTagBits)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("cache %q: associativity %d exceeds %d", c.Name, c.Assoc, maxAssoc)
	}
	return nil
}

// Geometry returns the energy-model geometry for this configuration.
func (c Config) Geometry() power.CacheGeometry {
	tb := c.TagBits
	if tb == 0 {
		tb = 40 - bits.TrailingZeros(uint(c.LineBytes)) - bits.TrailingZeros(uint(c.Sets()))
		// valid + dirty + LRU state travel with the tag.
		tb += 3
	}
	banks := c.Banks
	if banks < 1 {
		banks = 1
	}
	return power.CacheGeometry{
		Sets: c.Sets(), Assoc: c.Assoc, LineBytes: c.LineBytes,
		TagBits: tb, Banks: banks,
	}
}

// Line is one cache line's bookkeeping state, packed into one 8-byte tag
// word. LRU state is the line's rank in its set's recency order rather than
// an access stamp: bits 55-61 hold the age (0 = most recently used), bit 62
// the dirty bit and bit 63 the valid bit. The valid ways of a set always
// hold the distinct ages 0..k-1, so the oldest valid way is exactly the
// one with the smallest access stamp. New rejects any geometry whose tag
// could reach the age bits, or whose ways could outnumber the ages.
type Line struct {
	tag uint64
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	lineAge1  = 1 << 55 // one step of age
	lineAge   = 0x7f * lineAge1
	lineState = lineValid | lineDirty | lineAge
	// maxTagBits is the widest tag that stays clear of the state bits,
	// and maxAssoc the most ways a 7-bit age can rank.
	maxTagBits = 55
	maxAssoc   = 128
)

func (l *Line) valid() bool { return l.tag&lineValid != 0 }
func (l *Line) dirty() bool { return l.tag&lineDirty != 0 }

// addrTag is the line's address tag without the state bits.
func (l *Line) addrTag() uint64 { return l.tag &^ lineState }

// holds reports whether the line is valid with address tag tag.
func (l *Line) holds(tag uint64) bool { return l.tag&^(lineDirty|lineAge) == tag|lineValid }

// Stats accumulates per-level event counts.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Fills      uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Level is anything that can service a line-granular access and report its
// latency in cycles. Memory and Cache both implement it.
type Level interface {
	// Access services a demand access to addr. write distinguishes
	// stores. The returned latency is the full latency of this level and
	// anything below it.
	Access(addr uint64, write bool, cycle uint64) int
	// Name identifies the level in reports.
	Name() string
}

// Memory is the fixed-latency DRAM backstop.
type Memory struct {
	Latency int
	Energy  float64 // per access, joules
	Stats   Stats
	DynJ    float64
}

// NewMemory builds main memory with the given access latency in cycles.
func NewMemory(p *tech.Params, latency int) *Memory {
	return &Memory{Latency: latency, Energy: power.MemoryAccessEnergy(p)}
}

// Access implements Level.
func (m *Memory) Access(addr uint64, write bool, cycle uint64) int {
	m.Stats.Accesses++
	if write {
		// Writes (writebacks) are buffered off the critical path.
		m.DynJ += m.Energy
		return 0
	}
	m.Stats.Hits++
	m.DynJ += m.Energy
	return m.Latency
}

// Name implements Level.
func (m *Memory) Name() string { return "memory" }

// ResetStats zeroes the event counters and energy meter (warmup support).
func (m *Memory) ResetStats() {
	m.Stats = Stats{}
	m.DynJ = 0
}

// Reset returns the memory to the state NewMemory leaves it in with the
// given latency (run-to-run reuse; the access energy depends only on the
// technology point, which does not change under reuse).
func (m *Memory) Reset(latency int) {
	m.Latency = latency
	m.ResetStats()
}

// Cache is a plain (uncontrolled) set-associative write-back cache.
type Cache struct {
	Cfg    Config
	Next   Level
	Stats  Stats
	Energy power.CacheEnergy
	DynJ   float64 // accumulated dynamic energy in joules

	lines     []Line // sets*assoc, row-major by set
	assoc     int
	setMask   uint64
	lineShift uint

	// Observability flush state (see obs.go): counter IDs resolved once,
	// and the Stats value at the last flush for delta computation.
	obsIDs  *cacheObsIDs
	obsPrev Stats
}

// New builds a cache level on top of next. An invalid configuration is
// reported as an error before any simulation state is built, so a bad
// machine description fails one run instead of panicking a whole suite.
func New(p *tech.Params, cfg Config, next Level) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Cache{
		Cfg:       cfg,
		Next:      next,
		Energy:    power.NewCacheEnergy(p, cfg.Geometry()),
		lines:     make([]Line, sets*cfg.Assoc),
		assoc:     cfg.Assoc,
		setMask:   uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}, nil
}

// Reset returns the cache to the state New(p, cfg, next) leaves it in —
// cold contents, zero stats and energy — while keeping the line array and
// energy model. It lets a worker reuse one cache allocation across many
// runs (the L2's line array is the dominant per-run allocation). cfg must
// have the geometry the cache was built with; its latency may differ, and
// the energy model depends only on the geometry. next replaces the
// downstream level, which may itself have been reset.
func (c *Cache) Reset(cfg Config, next Level) {
	c.Cfg = cfg
	c.Next = next
	c.Stats = Stats{}
	c.DynJ = 0
	clear(c.lines)
	c.obsPrev = Stats{}
}

// MustNew is New for static configuration known to be valid (tests,
// examples); it panics on error.
func MustNew(p *tech.Params, cfg Config, next Level) *Cache {
	c, err := New(p, cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Level.
func (c *Cache) Name() string { return c.Cfg.Name }

// HitLat returns the hit latency in cycles (cpu.FetchCache).
func (c *Cache) HitLat() int { return c.Cfg.HitLatency }

// Tick is a no-op for an uncontrolled cache (cpu.FetchCache).
func (c *Cache) Tick(uint64) {}

// ResetStats zeroes the event counters and energy meter, keeping contents
// (warmup support).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	c.DynJ = 0
	c.obsPrev = Stats{}
}

// Index splits a byte address into set index and tag.
func (c *Cache) Index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	return lineAddr & c.setMask, lineAddr >> bits.TrailingZeros64(c.setMask+1)
}

// set returns the ways of set s as a slice.
func (c *Cache) set(s uint64) []Line {
	base := int(s) * c.assoc
	return c.lines[base : base+c.assoc]
}

// Access implements Level: LRU lookup, miss to Next, write-back
// write-allocate fill.
func (c *Cache) Access(addr uint64, write bool, cycle uint64) int {
	c.Stats.Accesses++
	set, tag := c.Index(addr)
	ways := c.set(set)

	for i := range ways {
		l := &ways[i]
		if l.holds(tag) {
			c.Stats.Hits++
			promote(ways, i)
			if write {
				l.tag |= lineDirty
				c.DynJ += c.Energy.WriteHit
			} else {
				c.DynJ += c.Energy.ReadHit
			}
			return c.Cfg.HitLatency
		}
	}

	// Miss.
	c.Stats.Misses++
	c.DynJ += c.Energy.TagProbe
	lat := c.Cfg.HitLatency
	if c.Next != nil {
		lat += c.Next.Access(addr, false, cycle)
	}
	c.fill(set, tag, write, cycle)
	return lat
}

// promote makes way w the set's most recently used: every valid way more
// recent than w ages by one and w's age becomes 0. An invalid w counts as
// older than every valid way; a valid w of age 0 is already the most
// recent, which is the common hit.
func promote(ways []Line, w int) {
	age := ways[w].tag & lineAge
	if !ways[w].valid() {
		age = lineAge + lineAge1
	} else if age == 0 {
		return
	}
	for i := range ways {
		if t := ways[i].tag; t&lineValid != 0 && t&lineAge < age {
			ways[i].tag = t + lineAge1
		}
	}
	ways[w].tag &^= lineAge
}

// fill installs addr's line into set, evicting the LRU way — the first
// invalid way, else the oldest — and writing back a dirty victim.
func (c *Cache) fill(set, tag uint64, write bool, cycle uint64) {
	ways := c.set(set)
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			break
		}
		if ways[i].tag&lineAge > ways[victim].tag&lineAge {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid() && v.dirty() {
		c.writeback(set, v, cycle)
	}
	promote(ways, victim)
	v.tag = tag | lineValid
	if write {
		v.tag |= lineDirty
	}
	c.Stats.Fills++
	c.DynJ += c.Energy.LineFill
}

// writeback pushes a dirty victim to the next level (off the critical path;
// energy and traffic only).
func (c *Cache) writeback(set uint64, v *Line, cycle uint64) {
	c.Stats.Writebacks++
	c.DynJ += c.Energy.LineRead
	if c.Next != nil {
		setsBits := bits.TrailingZeros64(c.setMask + 1)
		addr := ((v.addrTag() << setsBits) | set) << c.lineShift
		c.Next.Access(addr, true, cycle)
	}
	v.tag &^= lineDirty
}

// Contains reports whether addr's line is present (for tests and the
// harness; does not touch LRU or stats).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.Index(addr)
	for _, l := range c.set(set) {
		if l.holds(tag) {
			return true
		}
	}
	return false
}

// Flush invalidates every line, writing back dirty ones.
func (c *Cache) Flush(cycle uint64) {
	sets := int(c.setMask) + 1
	for s := 0; s < sets; s++ {
		ways := c.set(uint64(s))
		for i := range ways {
			if ways[i].valid() && ways[i].dirty() {
				c.writeback(uint64(s), &ways[i], cycle)
			}
			ways[i] = Line{}
		}
	}
}
